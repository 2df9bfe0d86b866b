"""Command-line pipeline: quantize/reconstruct bundles, report stats, run sweeps.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 internal error.
``CBQUANT_THREADS`` caps per-tensor parallelism; results are bit-identical
for any thread count because every (tensor, group) pair owns a derived RNG
stream.  All numeric work happens through the library calls; the CLI only
arranges inputs and formats reports.
"""

import argparse
import csv
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import core, grouping, tensorio, training
from .errors import CbqError, EmptyInputError, ManifestMismatchError, ShapeMismatchError


def _bits_arg(value: str) -> int:
    bits = int(value)
    if not 1 <= bits <= 8:
        raise argparse.ArgumentTypeError(f"bits must be in [1, 8], got {bits}")
    return bits


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _nonneg_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {n}")
    return n


def _nonneg_float(value: str) -> float:
    x = float(value)
    if not x >= 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {x}")
    return x


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
    threads = _thread_count()
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _emit(header, rows, fmt, out=None):
    out = out or sys.stdout
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def cmd_quantize(args) -> int:
    tensors = tensorio.read_bundle(args.bundle)
    if not tensors:
        raise EmptyInputError("bundle contains no tensors")
    cfg = core.QuantConfig(scheme=core.Scheme[args.scheme.upper()], bits=args.bits,
                           max_iterations=args.iters, seed=args.seed,
                           convergence_epsilon=args.epsilon, group_count=args.groups)
    names = sorted(tensors)

    def work(name):
        tensor = tensors[name]
        if args.exclude and args.exclude.search(name):
            return tensor, [name, tensor.size, "", "", "excluded"]
        g = grouping.quantize_grouped(tensor, cfg, tensor_name=name)
        mse = core.error_stats(tensor, grouping.reconstruct_grouped(g)).mse
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


def cmd_sweep(args) -> int:
    tensors = tensorio.read_bundle(args.bundle)
    if not tensors:
        raise EmptyInputError("bundle contains no tensors")
    names = sorted(tensors)
    combos = sorted(
        (scheme, bits, seed)
        for scheme in set(args.schemes)
        for bits in set(args.bits)
        for seed in set(args.seeds)
    )

    def work(combo):
        scheme, bits, seed = combo
        cfg = core.QuantConfig(scheme=core.Scheme[scheme.upper()], bits=bits,
                               max_iterations=args.iters, seed=seed,
                               convergence_epsilon=args.epsilon, group_count=args.groups)
        sse = 0.0
        count = 0
        for name in names:
            g = grouping.quantize_grouped(tensors[name], cfg, tensor_name=name)
            sse += core.error_stats(tensors[name], grouping.reconstruct_grouped(g)).sse
            count += tensors[name].size
        return scheme, bits, seed, sse / count

    results = _parallel_map(work, combos)
    if args.format == "csv":
        _emit(["scheme", "bits", "seed", "mse"],
              [[s, b, seed, f"{mse:.9g}"] for s, b, seed, mse in results], "csv")
    else:
        schemes = sorted(set(args.schemes))
        bit_rows = sorted(set(args.bits))
        by_key = {(s, b): [] for s in schemes for b in bit_rows}
        for s, b, seed, mse in results:
            by_key[(s, b)].append(mse)
        rows = [[bits] + [f"{np.mean(by_key[(s, bits)]):.9g}" for s in schemes]
                for bits in bit_rows]
        _emit(["bits"] + [f"{s}_mse" for s in schemes], rows, "table")
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
                                 max_iterations=args.iters, seed=args.seed,
                                 convergence_epsilon=args.epsilon)
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
    p.add_argument("--bits", type=_bits_arg, required=True)
    p.add_argument("--iters", type=_nonneg_int, default=3, metavar="N")
    p.add_argument("--seed", type=_nonneg_int, default=0, metavar="S")
    p.add_argument("--epsilon", type=_nonneg_float, default=0.0, metavar="E")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbquant",
                                     description="Codebook quantization of tensor bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize a tensor bundle into CBQ files")
    p.add_argument("bundle", help="bundle manifest (.json)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--scheme", choices=["linear", "kmeans"], default="kmeans")
    p.add_argument("--groups", type=_positive_int, default=1, metavar="G")
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
    p.add_argument("--bits", type=_bits_arg, nargs="+", required=True)
    p.add_argument("--schemes", choices=["linear", "kmeans"], nargs="+",
                   default=["linear", "kmeans"])
    p.add_argument("--seeds", type=_nonneg_int, nargs="+", default=[0])
    p.add_argument("--iters", type=_nonneg_int, default=3)
    p.add_argument("--epsilon", type=_nonneg_float, default=0.0)
    p.add_argument("--groups", type=_positive_int, default=1)
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-toy", help="centroid fine-tuning experiment on the toy model")
    _add_quant_flags(p)
    p.add_argument("--epochs", type=_nonneg_int, default=200)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--multiplier", type=_nonneg_float, default=10.0)
    p.add_argument("--batch-size", type=_positive_int, default=64)
    p.add_argument("--data-seed", type=_nonneg_int, default=0)
    p.add_argument("--task-seed", type=_nonneg_int, default=0)
    p.add_argument("--pretrain-epochs", type=_nonneg_int, default=300)
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
