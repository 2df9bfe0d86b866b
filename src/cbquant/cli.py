"""Command-line pipeline: quantize/reconstruct bundles, report stats, run sweeps.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 internal error.
``CBQUANT_THREADS`` caps per-tensor parallelism; results are bit-identical
for any thread count because every (tensor, group) pair owns a derived RNG
stream.  All numeric work happens through the library calls; the CLI only
arranges inputs and formats reports.
"""

import argparse
import csv
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import core, grouping, tensorio, training
from .errors import CbqError, EmptyInputError, ManifestMismatchError, ShapeMismatchError


def _number(cast, low, high=math.inf, open_low=False):
    """An argparse type: ``cast(value)`` finite and within ``[low, high]``, or ``(low, high]`` if ``open_low``."""
    def parse(value: str):
        x = cast(value)
        if not ((low < x if open_low else low <= x) and x <= high and x < math.inf):  # nan fails every comparison
            raise argparse.ArgumentTypeError(
                f"expected a finite {cast.__name__} in {'(' if open_low else '['}{low}, {high}], got {x}")
        return x
    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value: 'x'"
    return parse


def _regex_arg(value: str) -> re.Pattern | None:
    if not value:
        return None  # an empty pattern excludes nothing
    try:
        return re.compile(value)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"invalid regular expression {value!r}: {exc}") from None


def _thread_count() -> int:
    raw = os.environ.get("CBQUANT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, min(4, os.cpu_count() or 1))


def _parallel_map(fn, items):
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        return list(pool.map(fn, items))


def _emit(header, rows, fmt):
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def cmd_quantize(args) -> int:
    tensors = tensorio.read_bundle(args.bundle)
    if not tensors:
        raise EmptyInputError("bundle contains no tensors")
    cfg = core.QuantConfig(scheme=core.Scheme[args.scheme.upper()], bits=args.bits,
                           max_iterations=args.iters, seed=args.seed, group_count=args.groups)
    names = sorted(tensors)

    def work(name):
        tensor = tensors[name]
        if args.exclude and args.exclude.search(name):
            return tensor, [name, tensor.size, "", "", "excluded"]
        g = grouping.quantize_grouped(tensor, cfg, tensor_name=name)
        mse = _grouped_sse(tensor, g) / tensor.size
        blob = tensorio.write_cbq(g)
        ratio = (32.0 * tensor.size) / (8.0 * len(blob))
        return blob, [name, tensor.size, f"{mse:.6g}", f"{ratio:.3f}", "quantized"]

    results = _parallel_map(work, names)
    tensorio.write_quantized(args.output, {name: out for name, (out, _) in zip(names, results)})
    _emit(["tensor", "n", "mse", "ratio", "status"], [row for _, row in results], args.format)
    return 0


def cmd_reconstruct(args) -> int:
    tensors = {name: grouping.reconstruct_grouped(t) if isinstance(t, grouping.GroupedQuantizedTensor) else t
               for name, t in tensorio.read_quantized(args.quantized).items()}
    tensorio.write_bundle(args.output, tensors)
    print(f"wrote {len(tensors)} tensors to {args.output}")
    return 0


def cmd_stats(args) -> int:
    ref = tensorio.read_bundle(args.reference)
    cand = tensorio.read_bundle(args.candidate)
    if set(ref) != set(cand):
        raise ManifestMismatchError("bundles do not contain the same tensor names")
    rows = []
    for name in sorted(ref):
        if ref[name].shape != cand[name].shape:
            raise ShapeMismatchError(f"tensor {name!r} has different shapes in the two bundles")
        st = core.error_stats(ref[name], cand[name])
        rows.append([name, ref[name].size, f"{st.sse:.6g}", f"{st.mse:.6g}", f"{st.max_abs_error:.6g}"])
    _emit(["tensor", "n", "sse", "mse", "max_abs_error"], rows, args.format)
    return 0


def _grouped_sse(tensor, g: grouping.GroupedQuantizedTensor) -> float:
    """``core.error_stats(tensor, grouping.reconstruct_grouped(g)).sse``, bit
    for bit, without the float32 reconstruction: the centroids are gathered
    as float64 into one buffer, which then holds the differences and their
    squares for one contiguous sum."""
    diff = np.empty(g.n)
    grouping._reconstruct_into(g, diff)
    np.subtract(np.reshape(tensor, -1), diff, out=diff)
    return float(np.sum(np.square(diff, out=diff)))


def cmd_sweep(args) -> int:
    # One float64 copy per tensor, in name order, shared by every job's worker.
    tensors = {name: t.astype(np.float64) for name, t in sorted(tensorio.read_bundle(args.bundle).items())}
    if not tensors:
        raise EmptyInputError("bundle contains no tensors")
    schemes, bit_widths, seeds = (sorted(set(v)) for v in (args.schemes, args.bits, args.seeds))
    # What every job quantizes: one value order per tensor when k-means is swept.
    inputs = {name: grouping.ValueOrder(t, args.groups) if "kmeans" in schemes else t
              for name, t in tensors.items()}
    count = sum(t.size for t in tensors.values())
    # Each output row, in sorted order, and the job that computes its MSE.
    # Linear quantization reads no seed: one job per bit width serves every seed's row.
    rows = {(s, b, seed): (s, b, seed if s == "kmeans" else seeds[0])
            for s in schemes for b in bit_widths for seed in seeds}

    def work(job):
        scheme, bits, seed = job
        cfg = core.QuantConfig(scheme=core.Scheme[scheme.upper()], bits=bits,
                               max_iterations=args.iters, seed=seed, group_count=args.groups)
        sse = 0.0
        for name, x in inputs.items():
            sse += _grouped_sse(tensors[name], grouping.quantize_grouped(x, cfg, tensor_name=name))
        return sse / count

    jobs = sorted(set(rows.values()))
    mse = dict(zip(jobs, _parallel_map(work, jobs)))
    if args.format == "csv":
        _emit(["scheme", "bits", "seed", "mse"], [[*row, f"{mse[job]:.9g}"] for row, job in rows.items()], "csv")
    else:
        _emit(["bits"] + [f"{s}_mse" for s in schemes],
              [[b] + [f"{np.mean([mse[rows[s, b, seed]] for seed in seeds]):.9g}" for s in schemes]
               for b in bit_widths], "table")
    return 0


def cmd_train_toy(args) -> int:
    train_cfg = training.TrainConfig(
        base_learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        quantized_lr_multiplier=args.multiplier,
        data_seed=args.data_seed,
    )
    quant_cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=args.bits,
                                 max_iterations=args.iters, seed=args.seed)
    result = training.run_experiment(train_cfg, quant_cfg, task_seed=args.task_seed,
                                     pretrain_epochs=args.pretrain_epochs)
    if args.curves:
        Path(args.curves).write_text("\n".join(training.curve_records(result)) + "\n")
    rows = []
    for name in sorted(result.arms):
        arm = result.arms[name]
        rows.append([name.lower(), args.bits, f"{result.pretrain_loss:.6g}",
                     f"{arm.post_quant_loss:.6g}", f"{arm.final_loss:.6g}",
                     f"{result.recovery(core.Scheme[name]):.3f}"])
    _emit(["scheme", "bits", "pretrain_loss", "post_quant_loss", "final_loss", "recovery"],
          rows, args.format)
    return 0


def _add_quant_flags(p):
    p.add_argument("--bits", type=_number(int, 1, 8), required=True)
    p.add_argument("--iters", type=_number(int, 0, core._U32_MAX), default=3, metavar="N")
    p.add_argument("--seed", type=_number(int, 0, core._U64_MAX), default=0, metavar="S")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbquant",
                                     description="Codebook quantization of tensor bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize a tensor bundle into CBQ files")
    p.add_argument("bundle", help="bundle manifest (.json)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--scheme", choices=["linear", "kmeans"], default="kmeans")
    p.add_argument("--groups", type=_number(int, 1, core._U32_MAX), default=1, metavar="G")
    _add_quant_flags(p)
    p.add_argument("--exclude", type=_regex_arg, metavar="PATTERN",
                   help="regex of tensor names to pass through unquantized")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("reconstruct", help="rebuild a bundle from quantized output")
    p.add_argument("quantized", help="quantized directory (or its manifest.json)")
    p.add_argument("-o", "--output", required=True, help="output bundle manifest (.json)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stats", help="reconstruction error between two bundles")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="MSE per (scheme, bits, seed) over a bundle")
    p.add_argument("bundle")
    p.add_argument("--bits", type=_number(int, 1, 8), nargs="+", required=True)
    p.add_argument("--schemes", choices=["linear", "kmeans"], nargs="+",
                   default=["linear", "kmeans"])
    p.add_argument("--seeds", type=_number(int, 0, core._U64_MAX), nargs="+", default=[0])
    p.add_argument("--iters", type=_number(int, 0, core._U32_MAX), default=3)
    p.add_argument("--groups", type=_number(int, 1, core._U32_MAX), default=1)
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-toy", help="centroid fine-tuning experiment on the toy model")
    _add_quant_flags(p)
    p.add_argument("--epochs", type=_number(int, 0), default=200)
    p.add_argument("--lr", type=_number(float, 0, open_low=True), default=0.02)
    p.add_argument("--multiplier", type=_number(float, 0), default=10.0)
    p.add_argument("--batch-size", type=_number(int, 1), default=64)
    p.add_argument("--data-seed", type=_number(int, 0), default=0)
    p.add_argument("--task-seed", type=_number(int, 0), default=0)
    p.add_argument("--pretrain-epochs", type=_number(int, 0), default=300)
    p.add_argument("--curves", metavar="FILE", help="write epoch,scheme,bits,seed,loss lines")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CbqError, OSError) as exc:
        print(f"cbquant: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"cbquant: internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
