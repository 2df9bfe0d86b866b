"""Fuzzing the readers and the command line.

A mutated, truncated or extended input file raises only CbqError; any argv
exits 0, 2 (usage) or 3 (data) and leaves no partial output.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbquant import cli, core, grouping, tensorio
from cbquant.errors import CbqError

VALID_CBQ = tensorio.write_cbq(grouping.quantize_grouped(
    np.linspace(-1.0, 1.0, 20).reshape(4, 5),
    core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, group_count=3, seed=1)))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_bytes(draw, valid: bytes) -> bytes:
    """Overwrite, truncate or extend ``valid`` a few times."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["overwrite", "truncate", "extend"]))
        if op == "overwrite" and data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_manifest(draw, manifest: dict) -> bytes:
    """Manifest text with a few JSON values replaced, deleted or duplicated, or its bytes mutated."""
    if draw(st.booleans()):
        return draw(mutated_bytes(json.dumps(manifest, indent=2).encode()))
    doc = copy.deepcopy(manifest)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "delete":
            del parent[path[-1]]
        elif op == "duplicate" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
        else:
            parent[path[-1]] = draw(json_values)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    """A tensor bundle and a quantized directory holding one CBQ and one raw tensor."""
    root = tmp_path_factory.mktemp("fuzz")
    bundle = root / "model.json"
    tensorio.write_bundle(bundle, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                   "b": np.ones(4, np.float32)})
    tensorio.write_quantized(root / "q", {"a": VALID_CBQ, "b": np.ones((2, 2), np.float32)})
    return bundle, root / "q" / "manifest.json"


def _only_cbq_errors(read, *args):
    try:
        read(*args)
    except CbqError:
        pass


@given(mutated_bytes(VALID_CBQ))
@settings(max_examples=300, deadline=None)
def test_read_cbq_raises_only_cbq_errors(data):
    _only_cbq_errors(tensorio.read_cbq, data)


@pytest.mark.parametrize("kind", ["bundle", "quantized"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_manifest_readers_raise_only_cbq_errors(directories, kind, data):
    bundle, quantized = directories
    manifest_path = bundle if kind == "bundle" else quantized
    valid = json.loads(manifest_path.read_text())
    mutated = manifest_path.with_name("mutated.json")
    mutated.write_bytes(data.draw(mutated_manifest(valid)))
    _only_cbq_errors(tensorio.read_bundle if kind == "bundle" else tensorio.read_quantized, mutated)


# Per flag: (accepted values, values the parser or the library must reject).
# Iteration and epoch counts stay small so that every example runs in milliseconds.
# Learning rates stay where SGD converges: a diverging run overflows, numpy warns,
# and this suite turns RuntimeWarnings into errors (the CLI itself exits 3 then).
QUANT_FLAGS = {
    "--bits": (["1", "2", "8"], ["0", "9", "x"]),
    "--iters": (["0", "1", "3"], ["-1", "x"]),
    "--seed": (["0", "7"], [str(2**64), "-1"]),
    "--epsilon": (["0", "0.1"], ["nan", "inf", "-1", "x"]),
}
FORMAT = (["table", "csv"], ["xml"])
ARGV_FLAGS = {
    "quantize": {**QUANT_FLAGS,
                 "--scheme": (["linear", "kmeans"], ["zzz"]),
                 "--groups": (["1", "2", "4"], ["5", "99999999999", "0", "-3", "x"]),
                 "--exclude": (["", "a", "a|b"], ["(", "[", "*"]),
                 "--format": FORMAT},
    "reconstruct": {},
    "stats": {"--format": FORMAT},
    "sweep": {"--bits": QUANT_FLAGS["--bits"],
              "--iters": QUANT_FLAGS["--iters"],
              "--epsilon": QUANT_FLAGS["--epsilon"],
              "--schemes": (["linear", "kmeans"], ["zzz"]),
              "--seeds": (["0", "1"], ["-1"]),
              "--groups": (["1", "4"], ["5", "99999999999", "0", "x"]),
              "--format": FORMAT},
    "train-toy": {**QUANT_FLAGS,
                  "--epochs": (["0", "1", "2"], ["-1", "x"]),
                  "--pretrain-epochs": (["0", "1", "2"], ["-1"]),
                  "--lr": (["0.02", "0.01"], ["0", "-1", "nan", "x"]),
                  "--multiplier": (["10", "0"], ["-1", "nan", "x"]),
                  "--batch-size": (["1", "64"], ["0", "x"]),
                  "--data-seed": (["0", "3"], ["-1"]),
                  "--task-seed": (["0", "3"], ["-1"]),
                  "--groups": ([], ["1"]),
                  "--format": FORMAT},
}
MULTI_VALUE_FLAGS = {("sweep", "--bits"), ("sweep", "--schemes"), ("sweep", "--seeds")}
REQUIRED = {"--bits", "-o", "--curves"}
# Flags whose defaults would make an example slow.
ALWAYS_SET = {"--epochs", "--pretrain-epochs"}


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """A tiny bundle (30 + 4 elements), a quantized directory of it, and its reconstruction."""
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(0)
    tensorio.write_bundle(root / "model.json", {"a.weight": rng.normal(size=(6, 5)).astype(np.float32),
                                                "b.bias": rng.normal(size=4).astype(np.float32)})
    assert cli.main(["quantize", str(root / "model.json"), "-o", str(root / "q"), "--bits", "2"]) == 0
    assert cli.main(["reconstruct", str(root / "q"), "-o", str(root / "rebuilt.json")]) == 0
    return {"bundle": root / "model.json", "quantized": root / "q", "rebuilt": root / "rebuilt.json",
            "missing": root / "missing.json"}


@st.composite
def argvs(draw, command, inputs, out: Path):
    """An argv for ``command`` that writes, if at all, under ``out``; mostly well-formed."""
    def often(n):  # True n times in n + 1 (hypothesis favours the first item of sampled_from)
        return draw(st.sampled_from([True] * n + [False]))

    def path(usual, *others):
        return str(inputs[usual if often(3) else draw(st.sampled_from(others))])

    def value(accepted, rejected):
        return draw(st.sampled_from(accepted if accepted and (not rejected or often(3)) else rejected))

    positional = {"quantize": [path("bundle", "missing")],
                  "reconstruct": [path("quantized", "bundle", "missing")],
                  "stats": [path("bundle", "missing"), path("rebuilt", "bundle", "missing")],
                  "sweep": [path("bundle", "missing")],
                  "train-toy": []}[command]
    output = {"quantize": ("-o", "q"), "reconstruct": ("-o", "r.json"), "train-toy": ("--curves", "c.csv")}
    flags = dict(ARGV_FLAGS[command])
    if command in output:
        flag, name = output[command]
        flags[flag] = ([str(out / name)], [])
    argv = [command, *positional]
    for flag, (accepted, rejected) in flags.items():
        if flag in ALWAYS_SET or often(9 if flag in REQUIRED else 1):
            if (command, flag) in MULTI_VALUE_FLAGS:
                argv += [flag, *(value(accepted, rejected) for _ in range(draw(st.integers(0, 3))))]
            else:
                argv += [flag, value(accepted, rejected)]
    return argv


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("command", sorted(ARGV_FLAGS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_any_argv_exits_0_2_or_3_and_leaves_no_partial_output(argv_inputs, command, data):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"CBQUANT_THREADS": "2"}):
        argv = data.draw(argvs(command, argv_inputs, Path(tmp)))
        code = _exit_code(argv)
        assert code in (0, 2, 3), argv
        if code != 0:
            assert os.listdir(tmp) == [], argv
