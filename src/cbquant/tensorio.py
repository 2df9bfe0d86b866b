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
little-endian float32 blobs; unknown manifest fields are ignored.  A quantized
directory is ``manifest.json`` plus one ``tNNNNN.cbq`` (CBQ blob) or
``tNNNNN.f32`` (raw float32) file per tensor.  In both formats every file a
manifest names must be a bare name in the manifest's directory, and writes
are all or nothing: files are staged under temporary names, then renamed
into place with the manifest last.
"""

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from . import core
from .errors import (
    BadMagicError,
    CorruptIndexError,
    IOFailureError,
    LabelOverflowError,
    LengthMismatchError,
    ManifestMismatchError,
    NonzeroPaddingError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from .grouping import GroupedQuantizedTensor, _codebook_index, _label_chunks, group_blocks

__all__ = [
    "CBQ_MAGIC",
    "CBQ_VERSION",
    "pack_indices",
    "unpack_indices",
    "cbq_size_bytes",
    "compression_ratio",
    "write_cbq",
    "read_cbq",
    "write_bundle",
    "read_bundle",
    "write_quantized",
    "read_quantized",
]

CBQ_MAGIC = b"CBQ1"
CBQ_VERSION = 1

_HEADER_FIXED = struct.Struct("<4sHBBIB")  # magic, version, scheme, bits, groups, rank
_HEADER_TAIL = struct.Struct("<QI")  # seed, max_iterations
_QUANTIZED_MANIFEST = "manifest.json"


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


def _unpack_rows(packed: np.ndarray, out: np.ndarray, bits: int) -> None:
    """Inverse of ``_pack_rows``: decodes each row of ``packed`` into the same row
    of the uint8 (rows, length) array ``out``; rejects nonzero pad bits.

    Decodes one chunk of ``grouping._label_chunks`` at a time, so besides
    ``out`` it holds about four label-sized buffers of one chunk.
    """
    rows, length = out.shape
    tail = length * bits % 8
    if tail and (packed[:, -1] >> tail).any():
        raise NonzeroPaddingError("pad bits beyond the last label are not zero")
    if length == 0:
        return
    for chunk_rows, cols in _label_chunks(rows, length):
        dest = out[chunk_rows, cols]
        lanes = np.zeros((len(dest), -(-dest.shape[1] // 8), 8), dtype=np.uint8)
        stream = np.zeros((len(dest), lanes.shape[1] * bits), dtype=np.uint8)
        start = cols.start * bits // 8  # a piece of a row starts on a whole byte
        src = packed[chunk_rows, start : start + stream.shape[1]]
        stream[:, : src.shape[1]] = src
        lanes[..., :bits] = stream.reshape(len(dest), -1, bits)
        words = lanes.view("<u8")[..., 0]
        labels = np.empty_like(lanes)
        field = np.empty_like(words)  # one scratch buffer for every shift
        for k in range(8):
            np.right_shift(words, k * bits, out=field)
            labels[..., k] = np.bitwise_and(field, (1 << bits) - 1, out=field)
        dest[...] = labels.reshape(len(dest), -1)[:, : dest.shape[1]]


def pack_indices(labels, bits: int) -> bytes:
    """Pack labels into a fixed-width little-endian bit stream.

    Bit ``j`` of the stream lands in bit ``j % 8`` of byte ``j // 8``; the
    result is ``ceil(n * bits / 8)`` bytes with zeroed pad bits.  Labels
    must be integers (or bools) in ``[0, 2**bits)``.
    """
    bits = core._integer("bits", bits, 1, 8)
    lab = np.asarray(labels).reshape(1, -1)
    core._labels(lab, 1 << bits, LabelOverflowError)
    return _pack_rows(lab.astype(np.uint8), bits).tobytes()


def unpack_indices(data: bytes, n: int, bits: int) -> np.ndarray:
    """Inverse of ``pack_indices``; validates length and zero padding."""
    bits = core._integer("bits", bits, 1, 8)
    n = core._integer("label count", n, 0, error=LengthMismatchError)
    expected = (n * bits + 7) // 8
    if len(data) != expected:
        raise LengthMismatchError(f"expected {expected} packed bytes for n={n}, got {len(data)}")
    out = np.empty(n, dtype=np.uint8)
    _unpack_rows(np.frombuffer(data, dtype=np.uint8).reshape(1, -1), out.reshape(1, -1), bits)
    return out


def _group_row_bytes(bits: int, length: int) -> int:
    """Bytes of one group's record: centroids, occupancy, packed labels."""
    return (1 << bits) * (4 + 4) + (length * bits + 7) // 8


def cbq_size_bytes(n: int, rank: int, bits: int, group_count: int) -> int:
    """Exact byte size of the CBQ serialization of an n-element tensor."""
    header = _HEADER_FIXED.size + 8 * rank + _HEADER_TAIL.size
    return header + sum((groups.stop - groups.start) * _group_row_bytes(bits, length)
                        for groups, _, length in group_blocks(n, group_count))


def compression_ratio(n: int, cfg: core.QuantConfig) -> float:
    """Original size (32 bits/element) over the exact serialized CBQ size.

    Uses the byte-accurate size of the CBQ container for a rank-1 tensor of
    ``n`` elements: packed indices plus per-group codebooks (centroid values
    and occupancy counts) plus the fixed header.
    """
    n = core._integer("element count", n, 1)
    return (32.0 * n) / (8.0 * cbq_size_bytes(n, 1, cfg.bits, cfg.group_count))


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


def _label_counts(labels: np.ndarray, n_levels: int) -> np.ndarray:
    """Occurrences of each label in each row of a 2-D block, counted chunk by chunk.

    Integer counts add up exactly.  The index chunk dies on return, so two
    blocks never hold one each.
    """
    counts = np.zeros((len(labels), n_levels), dtype=np.int64)
    for chunk, _, index in _codebook_index(labels, n_levels):
        counts[chunk] += np.bincount(index.reshape(-1), minlength=index.shape[0] * n_levels).reshape(-1, n_levels)
    return counts


def read_cbq(data) -> GroupedQuantizedTensor:
    """Parse CBQ bytes (or a uint8 array) back into a grouped quantized tensor.

    Validates the magic, version, rank and total length before reading any
    group, then the occupancy counts and pad bits of every group.
    """
    if bytes(data[:4]) != CBQ_MAGIC:
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
    try:
        np.empty((0,) * rank)  # numpy's rank limit: 32 before numpy 2, 64 since
    except ValueError:
        raise ShapeMismatchError(f"CBQ rank {rank} exceeds numpy's array rank limit") from None
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
        block = labels[elements].reshape(-1, length)
        _unpack_rows(rows[:, 8 * m :], block, bits)
        if not np.array_equal(_label_counts(block, m), occupancy[groups]):
            raise CorruptIndexError("stored occupancy disagrees with decoded labels")
    return GroupedQuantizedTensor(shape, cfg, centroids, occupancy, labels)


def _manifest_entries(manifest_path: Path) -> tuple[dict, list]:
    """Load a manifest: a JSON object whose ``tensors`` are objects with distinct string names."""
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except OSError as exc:
        raise IOFailureError(f"cannot read manifest: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ManifestMismatchError(f"manifest is not valid JSON: {exc}") from exc
    entries = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ManifestMismatchError("manifest must be an object whose 'tensors' is a list of objects")
    _check_names([e.get("name") for e in entries])
    return manifest, entries


def _check_names(names: list) -> None:
    """The one rule for tensor names, which the manifest writers and readers share."""
    if not all(isinstance(name, str) for name in names) or len(set(names)) != len(names):
        raise ManifestMismatchError("manifest tensor names must be distinct strings")


def _read_member(directory: Path, name) -> np.ndarray:
    """The bytes of file ``name`` in ``directory``, read once into one uint8 array.

    ``name`` must be a bare file name: no separators, no ``..``, not absolute.
    """
    if not (isinstance(name, str) and name.isprintable() and name not in ("", ".", "..")
            and "/" not in name and "\\" not in name):
        raise ManifestMismatchError(f"file name {name!r} is not a bare name inside {directory}")
    try:
        return np.fromfile(directory / name, dtype=np.uint8)
    except OSError as exc:
        raise IOFailureError(f"cannot read {directory / name}: {exc}") from exc


def _tensor_view(data: np.ndarray, offset, length, entry: dict) -> np.ndarray:
    """The float32 tensor ``entry`` describes, stored in ``data[offset:offset + length]``, as a view."""
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list):
        raise ManifestMismatchError(f"shape of {name!r} is not a list of non-negative integers")

    def count(field, value):
        return core._integer(f"{field} of {name!r}", value, 0, error=ManifestMismatchError)

    shape, offset, length = [count("shape entry", d) for d in shape], count("offset", offset), count("length", length)
    if length != 4 * math.prod(shape):
        raise ManifestMismatchError(f"length of {name!r} disagrees with its shape")
    if offset + length > len(data):
        raise ManifestMismatchError(f"blob of {name!r} extends past the payload")
    try:
        return data[offset : offset + length].view("<f4").reshape(shape)
    except ValueError as exc:
        raise ManifestMismatchError(f"shape of {name!r} is not a valid array shape: {exc}") from exc


def _publish(directory: Path, files: dict, manifest_name: str, manifest: dict) -> None:
    """Write ``{file name: buffers}`` and then the manifest into ``directory``, all or nothing.

    Every file is written to a temporary name first, then renamed into place,
    the manifest last, so a manifest appears only once all its files have.
    On any failure, every file this call staged or renamed is removed.
    """
    files = {**files, manifest_name: [(json.dumps(manifest, indent=2) + "\n").encode()]}
    touched = []
    done = False
    try:
        for name, chunks in files.items():
            touched.append(directory / f".{name}.tmp")
            with open(touched[-1], "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for name in files:
            os.replace(directory / f".{name}.tmp", directory / name)
            touched.append(directory / name)
        done = True
    except OSError as exc:
        raise IOFailureError(f"cannot write into {directory}: {exc}") from exc
    finally:
        if not done:
            for path in touched:
                with contextlib.suppress(OSError):
                    path.unlink()


def write_bundle(manifest_path, tensors: dict) -> None:
    """Write named float32 tensors as a JSON manifest plus a raw payload file.

    The payload is the manifest path with the suffix ``.bin``, so a manifest
    path ending in ``.bin`` is rejected.
    """
    _check_names(list(tensors))
    manifest_path = Path(manifest_path)
    payload_path = manifest_path.with_suffix(".bin")
    if payload_path == manifest_path:
        raise ManifestMismatchError(f"manifest {manifest_path} would be its own payload; name it other than *.bin")
    entries = []
    blobs = [np.ascontiguousarray(tensor, dtype="<f4") for tensor in tensors.values()]
    offset = 0
    for (name, tensor), blob in zip(tensors.items(), blobs):
        entries.append({"name": name, "shape": [int(d) for d in np.shape(tensor)], "dtype": "f4",
                        "offset": offset, "length": blob.nbytes})
        offset += blob.nbytes
    manifest = {"format": "tensor-bundle", "version": 1, "payload": payload_path.name, "tensors": entries}
    _publish(manifest_path.parent, {payload_path.name: blobs}, manifest_path.name, manifest)


def read_bundle(manifest_path) -> dict:
    """Read a tensor bundle back as an ordered ``{name: float32 ndarray}`` dict.

    The payload is read once; the tensors are views into it.
    """
    manifest_path = Path(manifest_path)
    manifest, entries = _manifest_entries(manifest_path)
    payload = _read_member(manifest_path.parent, manifest.get("payload"))
    tensors = {}
    for entry in entries:
        name = entry["name"]
        if entry.get("dtype", "f4") != "f4":
            raise ManifestMismatchError(f"unsupported dtype {entry.get('dtype')!r} for {name!r}")
        tensors[name] = _tensor_view(payload, entry.get("offset"), entry.get("length"), entry)
    return tensors


def write_quantized(out_dir, tensors: dict) -> None:
    """Write ``{name: CBQ bytes | float32 array}`` as a quantized directory.

    The directory holds ``manifest.json`` plus one ``tNNNNN.cbq`` or
    ``tNNNNN.f32`` file per tensor, numbered in the dict's order.  It is
    created if missing, and removed again if the write fails.
    """
    _check_names(list(tensors))
    out_dir = Path(out_dir)
    entries = []
    files = {}
    for i, (name, value) in enumerate(tensors.items()):
        if isinstance(value, bytes):
            entries.append({"name": name, "file": f"t{i:05d}.cbq", "kind": "cbq"})
            files[entries[-1]["file"]] = [value]
        else:
            entries.append({"name": name, "file": f"t{i:05d}.f32", "kind": "raw",
                            "shape": [int(d) for d in np.shape(value)]})
            files[entries[-1]["file"]] = [np.ascontiguousarray(value, dtype="<f4")]
    created = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _publish(out_dir, files, _QUANTIZED_MANIFEST, {"format": "cbq-bundle", "version": 1, "tensors": entries})
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                out_dir.rmdir()
        if isinstance(exc, OSError):
            raise IOFailureError(f"cannot create {out_dir}: {exc}") from exc
        raise


def read_quantized(path) -> dict:
    """Read a quantized directory (or its manifest) as ``{name: GroupedQuantizedTensor | array}``.

    Each distinct file is read once: entries that name the same file (tied
    weights) get the same parsed tensor, or views of the same raw bytes.
    """
    path = Path(path)
    manifest_path = path / _QUANTIZED_MANIFEST if path.is_dir() else path
    manifest, entries = _manifest_entries(manifest_path)
    if manifest.get("format") != "cbq-bundle":
        raise ManifestMismatchError("not a quantized-bundle manifest")
    tensors = {}
    loaded = {}  # (file, kind) -> the parsed CBQ tensor or the raw bytes
    for entry in entries:
        name, kind, file = entry["name"], entry.get("kind"), entry.get("file")
        if kind not in ("cbq", "raw"):
            raise ManifestMismatchError(f"unknown kind {kind!r} for {name!r}")
        if not isinstance(file, str) or (file, kind) not in loaded:
            data = _read_member(manifest_path.parent, file)  # rejects a file that is not a bare name
            loaded[file, kind] = read_cbq(data) if kind == "cbq" else data
        value = loaded[file, kind]
        tensors[name] = value if kind == "cbq" else _tensor_view(value, 0, len(value), entry)
    return tensors
