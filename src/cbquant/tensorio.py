"""Bit-exact serialization: packed index streams, CBQ files, tensor bundles.

CBQ container layout (all integers little-endian):

    header:  magic "CBQ1" | version u16 | scheme u8 | bits u8 |
             group_count u32 | rank u8 | dims u64 * rank |
             seed u64 | max_iterations u32
    per group (in span order):
             centroids  f32 * 2**bits
             occupancy  u32 * 2**bits
             indices    ceil(len * bits / 8) bytes, fixed-width packed

Equal-length groups have equal-width records, so each block of them
(``grouping.group_blocks``) is read and written as one 2-D byte array.

Index packing is little-endian within bytes: the first label occupies the
least-significant bits of the first byte, and each group's stream is padded
with zero bits to a byte boundary so groups stay independently addressable.

A tensor bundle is a JSON manifest next to a raw payload file of row-major
little-endian float32 blobs; unknown manifest fields are ignored.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

from . import core
from .errors import (
    BadConfigError,
    BadMagicError,
    CorruptIndexError,
    IOFailureError,
    LabelOverflowError,
    LengthMismatchError,
    ManifestMismatchError,
    NonzeroPaddingError,
    UnsupportedVersionError,
)
from .grouping import GroupedQuantizedTensor, group_blocks

__all__ = [
    "CBQ_MAGIC",
    "CBQ_VERSION",
    "pack_indices",
    "unpack_indices",
    "cbq_size_bytes",
    "write_cbq",
    "read_cbq",
    "write_bundle",
    "read_bundle",
]

CBQ_MAGIC = b"CBQ1"
CBQ_VERSION = 1

_HEADER_FIXED = struct.Struct("<4sHBBIB")  # magic, version, scheme, bits, groups, rank
_HEADER_TAIL = struct.Struct("<QI")  # seed, max_iterations


def _pack_rows(labels: np.ndarray, bits: int) -> np.ndarray:
    """Pack each row of 2-D uint8 labels into its own zero-padded byte stream.

    Eight labels fill ``bits`` bytes: each run of eight is shifted into one
    little-endian u64, whose low ``bits`` bytes are the stream.
    """
    rows, length = labels.shape
    lanes = np.zeros((rows, -(-length // 8), 8), dtype=np.uint8)
    lanes.reshape(rows, -1)[:, :length] = labels
    words = lanes[..., 0].astype("<u8")
    for k in range(1, 8):
        words |= lanes[..., k].astype("<u8") << (k * bits)
    stream = words.view(np.uint8).reshape(rows, -1, 8)[..., :bits].reshape(rows, -1)
    return stream[:, : (length * bits + 7) // 8]


def _unpack_rows(packed: np.ndarray, length: int, bits: int) -> np.ndarray:
    """Inverse of ``_pack_rows``; rejects nonzero pad bits."""
    rows, nbytes = packed.shape
    tail = length * bits % 8
    if tail and (packed[:, -1] >> tail).any():
        raise NonzeroPaddingError("pad bits beyond the last label are not zero")
    lanes = np.zeros((rows, -(-length // 8), 8), dtype=np.uint8)
    stream = np.pad(packed, ((0, 0), (0, lanes.shape[1] * bits - nbytes)))
    lanes[..., :bits] = stream.reshape(rows, -1, bits)
    words = lanes.view("<u8")[..., 0]
    labels = np.empty_like(lanes)
    for k in range(8):
        labels[..., k] = (words >> (k * bits)) & ((1 << bits) - 1)
    return labels.reshape(rows, -1)[:, :length]


def pack_indices(labels, bits: int) -> bytes:
    """Pack labels into a fixed-width little-endian bit stream.

    Bit ``j`` of the stream lands in bit ``j % 8`` of byte ``j // 8``; the
    result is ``ceil(n * bits / 8)`` bytes with zeroed pad bits.
    """
    if not 1 <= bits <= 8:
        raise BadConfigError(f"bits must be in [1, 8], got {bits}")
    lab = np.asarray(labels).reshape(1, -1)
    if lab.size and (lab.min() < 0 or lab.max() >= (1 << bits)):
        raise LabelOverflowError(f"labels do not fit in {bits} bits")
    return _pack_rows(lab.astype(np.uint8), bits).tobytes()


def unpack_indices(data: bytes, n: int, bits: int) -> np.ndarray:
    """Inverse of ``pack_indices``; validates length and zero padding."""
    if not 1 <= bits <= 8:
        raise BadConfigError(f"bits must be in [1, 8], got {bits}")
    expected = (n * bits + 7) // 8
    if len(data) != expected:
        raise LengthMismatchError(f"expected {expected} packed bytes for n={n}, got {len(data)}")
    return _unpack_rows(np.frombuffer(data, dtype=np.uint8).reshape(1, -1), n, bits)[0]


def _group_row_bytes(bits: int, length: int) -> int:
    """Bytes of one group's record: centroids, occupancy, packed labels."""
    return (1 << bits) * (4 + 4) + (length * bits + 7) // 8


def cbq_size_bytes(n: int, rank: int, bits: int, group_count: int) -> int:
    """Exact byte size of the CBQ serialization of an n-element tensor."""
    header = _HEADER_FIXED.size + 8 * rank + _HEADER_TAIL.size
    return header + sum((groups.stop - groups.start) * _group_row_bytes(bits, length)
                        for groups, _, length in group_blocks(n, group_count))


def write_cbq(g: GroupedQuantizedTensor) -> bytes:
    """Serialize a grouped quantized tensor to CBQ bytes."""
    cfg = g.cfg
    parts = [
        _HEADER_FIXED.pack(CBQ_MAGIC, CBQ_VERSION, cfg.scheme.value, cfg.bits, cfg.group_count, len(g.shape)),
        struct.pack(f"<{len(g.shape)}Q", *g.shape),
        _HEADER_TAIL.pack(cfg.seed, cfg.max_iterations),
    ]
    for groups, elements, length in group_blocks(g.n, cfg.group_count):
        parts.append(np.hstack([g.centroids[groups].astype("<f4").view(np.uint8),
                                g.occupancy[groups].astype("<u4").view(np.uint8),
                                _pack_rows(g.labels[elements].reshape(-1, length), cfg.bits)]).tobytes())
    return b"".join(parts)


def read_cbq(data: bytes) -> GroupedQuantizedTensor:
    """Parse CBQ bytes back into a grouped quantized tensor.

    Validates the magic, version and total length before reading any group,
    then the occupancy counts and pad bits of every group.
    """
    if data[:4] != CBQ_MAGIC:
        raise BadMagicError("not a CBQ blob")
    try:
        _, version, scheme_id, bits, group_count, rank = _HEADER_FIXED.unpack_from(data)
        shape = struct.unpack_from(f"<{rank}Q", data, _HEADER_FIXED.size)
        seed, max_iterations = _HEADER_TAIL.unpack_from(data, _HEADER_FIXED.size + 8 * rank)
    except struct.error:
        raise LengthMismatchError(f"truncated CBQ header: {len(data)} bytes") from None
    if version != CBQ_VERSION:
        raise UnsupportedVersionError(f"CBQ version {version} not supported")
    try:
        scheme = core.Scheme(scheme_id)
    except ValueError:
        raise UnsupportedVersionError(f"unknown scheme id {scheme_id}") from None
    cfg = core.QuantConfig(
        scheme=scheme,
        bits=bits,
        max_iterations=max_iterations,
        seed=seed,
        group_count=group_count,
    )
    n = math.prod(shape)
    expected = cbq_size_bytes(n, rank, bits, group_count)
    if len(data) != expected:
        raise LengthMismatchError(f"CBQ data is {len(data)} bytes; its header describes {expected}")

    m = cfg.n_levels
    pos = _HEADER_FIXED.size + 8 * rank + _HEADER_TAIL.size
    centroids = np.empty((group_count, m), dtype=np.float32)
    occupancy = np.empty((group_count, m), dtype=np.uint32)
    labels = np.empty(n, dtype=np.uint8)
    for groups, elements, length in group_blocks(n, group_count):
        width = _group_row_bytes(bits, length)
        rows = np.frombuffer(data, np.uint8, (groups.stop - groups.start) * width, pos).reshape(-1, width)
        pos += rows.size
        centroids[groups] = rows[:, : 4 * m].copy().view("<f4")
        occupancy[groups] = rows[:, 4 * m : 8 * m].copy().view("<u4")
        block_labels = _unpack_rows(rows[:, 8 * m :], length, bits)
        labels[elements] = block_labels.reshape(-1)
        index = block_labels + m * np.arange(len(rows))[:, None]
        if not np.array_equal(np.bincount(index.reshape(-1), minlength=len(rows) * m),
                              occupancy[groups].reshape(-1)):
            raise CorruptIndexError("stored occupancy disagrees with decoded labels")
    return GroupedQuantizedTensor(shape, cfg, centroids, occupancy, labels)


def write_bundle(manifest_path, tensors: dict) -> None:
    """Write named float32 tensors as a JSON manifest plus a raw payload file."""
    manifest_path = Path(manifest_path)
    payload_path = manifest_path.with_suffix(".bin")
    entries = []
    blobs = []
    offset = 0
    for name, tensor in tensors.items():
        blob = np.ascontiguousarray(tensor, dtype="<f4").tobytes()
        entries.append(
            {
                "name": name,
                "shape": [int(d) for d in np.shape(tensor)],
                "dtype": "f4",
                "offset": offset,
                "length": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "format": "tensor-bundle",
        "version": 1,
        "payload": payload_path.name,
        "tensors": entries,
    }
    try:
        payload_path.write_bytes(b"".join(blobs))
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write bundle: {exc}") from exc


def read_bundle(manifest_path) -> dict:
    """Read a tensor bundle back as an ordered ``{name: float32 ndarray}`` dict."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise IOFailureError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestMismatchError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "tensors" not in manifest or "payload" not in manifest:
        raise ManifestMismatchError("manifest lacks required fields 'payload' and 'tensors'")
    try:
        payload = (manifest_path.parent / manifest["payload"]).read_bytes()
    except OSError as exc:
        raise IOFailureError(f"cannot read payload: {exc}") from exc

    tensors = {}
    for entry in manifest["tensors"]:
        try:
            name = entry["name"]
            if name in tensors:
                raise ManifestMismatchError(f"duplicate tensor name {name!r}")
            if entry.get("dtype", "f4") != "f4":
                raise ManifestMismatchError(f"unsupported dtype {entry.get('dtype')!r} for {name!r}")
            shape = tuple(int(d) for d in entry["shape"])
            offset, length = int(entry["offset"]), int(entry["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestMismatchError(f"malformed manifest entry: {exc}") from exc
        if length != 4 * math.prod(shape):
            raise ManifestMismatchError(f"length of {name!r} disagrees with its shape")
        if offset < 0 or offset + length > len(payload):
            raise ManifestMismatchError(f"blob of {name!r} extends past the payload")
        tensors[name] = np.frombuffer(payload[offset : offset + length], dtype="<f4").reshape(shape).copy()
    return tensors
