"""Fuzzing the readers: a mutated, truncated or extended input raises only CbqError."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbquant import core, grouping, tensorio
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
