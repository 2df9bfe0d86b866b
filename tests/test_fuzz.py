"""Fuzzing the readers and the command line.

A mutated, truncated or extended input file raises only CbqError, and
reading it costs memory in proportion to the bytes supplied; any argv exits
0, 2 (usage) or 3 (data) and leaves no partial output, and a well-formed
argv exits 0.
"""

import contextlib
import copy
import io
import json
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


@st.composite
def resized_header(draw, valid: bytes) -> bytes:
    """``valid`` with one to three of its CBQ header's size fields rewritten:
    bits (u8 at byte 7), group count (u32 at 8), rank (u8 at 12), each dimension (u64 from 13)."""
    data = bytearray(valid)
    fields = [("<B", 7), ("<I", 8), ("<B", 12)] + [("<Q", 13 + 8 * i) for i in range(valid[12])]
    for _ in range(draw(st.integers(1, 3))):
        fmt, offset = draw(st.sampled_from(fields))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        # Small and mid-size claims can pass the length check or cost memory; huge ones overflow.
        value = (st.integers(0, 64) | st.integers(0, min(top, 2**24)) | st.sampled_from([top - 1, top])
                 | st.integers(0, top))
        struct.pack_into(fmt, data, offset, draw(value))
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


# A reader's memory budget: READ_FACTOR times the bytes supplied plus READ_CONSTANT,
# whatever sizes a header or manifest claims.  Valid CBQ blobs at 1 to 8 bits (1 to
# 10**6 labels, 1 to 4096 groups) peak at most 7.9 times their bytes beyond the
# constant, at 1 bit: a label takes 1/8 byte in the blob and 1 byte once decoded, and
# decoding holds a few more bytes per label of one 2**16-label chunk only.  The
# constant is the 2**16-entry intp index chunk (512 KiB) plus 128 KiB.
READ_FACTOR = 10
READ_CONSTANT = 8 * 2**16 + 128 * 1024


def _only_cbq_errors(supplied_bytes, read, *args):
    """Run ``read(*args)``: it may raise only CbqError, within the memory budget for ``supplied_bytes``."""
    tracemalloc.start()
    try:
        try:
            read(*args)
        except CbqError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= READ_FACTOR * supplied_bytes + READ_CONSTANT


@pytest.mark.parametrize("groups", [1, 64])
@pytest.mark.parametrize("bits", range(1, 9))
def test_valid_blobs_fit_the_read_budget(bits, groups):
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, group_count=groups)
    blob = tensorio.write_cbq(grouping.quantize_grouped(np.random.default_rng(bits).normal(size=100_000), cfg))
    _only_cbq_errors(len(blob), tensorio.read_cbq, blob)


def _resized(valid: bytes, fmt: str, offset: int, value: int) -> bytes:
    data = bytearray(valid)
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


# Mid-size claims in each header size field, which the memory budget exists for; bits
# and rank are u8s, so 255 is their largest claim.
@given(mutated_bytes(VALID_CBQ) | resized_header(VALID_CBQ))
@example(_resized(VALID_CBQ, "<B", 7, 255))
@example(_resized(VALID_CBQ, "<I", 8, 2**20))
@example(_resized(VALID_CBQ, "<I", 8, 2**24))
@example(_resized(VALID_CBQ, "<B", 12, 255))
@example(_resized(VALID_CBQ, "<Q", 13, 2**20))
@example(_resized(VALID_CBQ, "<Q", 13, 2**24))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_read_cbq_raises_only_cbq_errors(data):
    _only_cbq_errors(len(data), tensorio.read_cbq, data)


@pytest.mark.parametrize("kind", ["bundle", "quantized"])
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_manifest_readers_raise_only_cbq_errors(directories, kind, data):
    bundle, quantized = directories
    manifest_path = bundle if kind == "bundle" else quantized
    valid = json.loads(manifest_path.read_text())
    mutated = manifest_path.with_name("mutated.json")
    mutated.write_bytes(data.draw(mutated_manifest(valid)))
    supplied = sum(p.stat().st_size for p in mutated.parent.iterdir() if p.is_file())
    _only_cbq_errors(supplied, tensorio.read_bundle if kind == "bundle" else tensorio.read_quantized, mutated)


# Per flag: (accepted values, values the parser or the library must reject).
# Iteration and epoch counts stay small so that every example runs in milliseconds.
# Learning rates stay where SGD converges: a diverging run overflows, numpy warns,
# and this suite turns RuntimeWarnings into errors (the CLI itself exits 3 then).
QUANT_FLAGS = {
    "--bits": (["1", "2", "8"], ["0", "9", "1.5", "x"]),
    "--iters": (["0", "1", "3"], ["-1", str(2**32), "x"]),
    "--seed": (["0", "7"], [str(2**64), "-1", "x"]),
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
              "--schemes": (["linear", "kmeans"], ["zzz"]),
              "--seeds": (["0", "1"], [str(2**64), "-1", "x"]),
              "--groups": (["1", "4"], ["5", "99999999999", "0", "x"]),
              "--format": FORMAT},
    "train-toy": {**QUANT_FLAGS,
                  "--epochs": (["0", "1", "2"], ["-1", "x"]),
                  "--pretrain-epochs": (["0", "1", "2"], ["-1", "x"]),
                  "--lr": (["0.02", "0.01"], ["0", "-1", "nan", "inf", "1e400", "x"]),
                  "--multiplier": (["10", "0"], ["-1", "nan", "inf", "1e400", "x"]),
                  "--batch-size": (["1", "64"], ["0", "x"]),
                  "--data-seed": (["0", "3"], ["-1", "x"]),
                  "--task-seed": (["0", "3"], ["-1", "x"]),
                  "--groups": ([], ["1"]),
                  "--format": FORMAT},
}
# The usual inputs of each command, and the flag and file name of its output.
POSITIONAL = {"quantize": ["bundle"], "reconstruct": ["quantized"], "stats": ["bundle", "rebuilt"],
              "sweep": ["bundle"], "train-toy": []}
OUTPUT = {"quantize": ("-o", "q"), "reconstruct": ("-o", "r.json"), "train-toy": ("--curves", "c.csv")}
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


# Hypothesis does not replay a choice sequence, so a command with few distinct
# well-formed argvs draws each of them once and then only malformed ones: over
# the 60 derandomized examples, reconstruct draws its one well-formed argv and
# stats its three (no --format, table, csv).  That is full coverage, not a skew.
@st.composite
def argvs(draw, command, inputs, out: Path):
    """``(argv, well_formed)`` for ``command``, writing, if at all, under ``out``.

    A well-formed argv has the usual inputs, every required flag, accepted
    values only and at least one value per multi-value flag; any other argv
    is mostly well-formed.
    """
    def often(n):  # True n times in n + 1 (hypothesis favours the first item of sampled_from)
        return draw(st.sampled_from([True] * n + [False]))

    well_formed = draw(st.booleans())

    def path(usual, *others):
        return str(inputs[usual if well_formed or often(3) else draw(st.sampled_from(others))])

    def value(accepted, rejected):
        use_accepted = accepted and (well_formed or not rejected or often(3))
        return draw(st.sampled_from(accepted if use_accepted else rejected))

    positional = {"quantize": [path("bundle", "missing")],
                  "reconstruct": [path("quantized", "bundle", "missing")],
                  "stats": [path("bundle", "missing"), path("rebuilt", "bundle", "missing")],
                  "sweep": [path("bundle", "missing")],
                  "train-toy": []}[command]
    flags = dict(ARGV_FLAGS[command])
    if command in OUTPUT:
        flag, name = OUTPUT[command]
        flags[flag] = ([str(out / name)], [])
    argv = [command, *positional]
    for flag, (accepted, rejected) in flags.items():
        if well_formed and not accepted:
            continue
        if flag in ALWAYS_SET or (well_formed and flag in REQUIRED) or often(9 if flag in REQUIRED else 1):
            if (command, flag) in MULTI_VALUE_FLAGS:
                count = draw(st.integers(1 if well_formed else 0, 3))
                argv += [flag, *(value(accepted, rejected) for _ in range(count))]
            else:
                argv += [flag, value(accepted, rejected)]
    return argv, well_formed


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
        argv, well_formed = data.draw(argvs(command, argv_inputs, Path(tmp)))
        code = _exit_code(argv)
        assert code in ((0,) if well_formed else (0, 2, 3)), argv
        if code != 0:
            assert os.listdir(tmp) == [], argv


# A random argv rarely holds one rejected value with every other flag valid, so
# each rejected value also runs alone, on the usual inputs and required flags.
@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command, flags in sorted(ARGV_FLAGS.items())
    for flag, (_, rejected) in flags.items() for value in rejected])
def test_each_rejected_value_alone_exits_2_or_3_and_leaves_no_output(argv_inputs, tmp_path, command, flag, value):
    argv = [command, *(str(argv_inputs[name]) for name in POSITIONAL[command])]
    if command in OUTPUT:
        argv += [OUTPUT[command][0], str(tmp_path / OUTPUT[command][1])]
    for required, (accepted, _) in ARGV_FLAGS[command].items():
        if required in REQUIRED | ALWAYS_SET:
            argv += [required, accepted[0]]
    with mock.patch.dict(os.environ, {"CBQUANT_THREADS": "2"}):
        code = _exit_code([*argv, flag, value])  # the later value of a repeated flag wins
    assert code in (2, 3)
    assert os.listdir(tmp_path) == []
