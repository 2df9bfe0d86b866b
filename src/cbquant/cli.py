"""Command-line pipeline: quantize/reconstruct bundles, report stats, run sweeps.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 internal error.
``CBQUANT_THREADS`` caps the worker processes that share a command's jobs;
results are bit-identical for any count because every (tensor, group) pair
owns a derived RNG stream.  All numeric work happens through the library
calls; the CLI only arranges inputs and formats reports.
"""

import argparse
import csv
import math
import os
import pickle
import re
import signal
import sys
from pathlib import Path

import numpy as np

from . import core, grouping, tensorio
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


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(raw: str, cpus: int, jobs: int) -> int:
    """Workers for ``jobs`` jobs: ``CBQUANT_THREADS`` (``raw``; 4 when it is
    not an integer), at most ``cpus`` and ``jobs``, and at least 1."""
    try:
        wanted = int(raw)
    except ValueError:
        wanted = 4
    return max(1, min(wanted, cpus, jobs))


def _run_jobs(fn, items):
    """``fn`` over ``items`` in order, up to the first that raises: the
    results before it and that exception, or all results and None."""
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _parallel_map(fn, items):
    """``[fn(item) for item in items]``, shared with forked worker processes.

    With W workers the parent runs jobs 0, W, 2W, ... and child w runs jobs
    w, w + W, ...; each child pickles its results, or the exception that
    stopped it, into a pipe and leaves with ``os._exit``, so nothing it
    inherited (stdio buffers, atexit hooks) runs twice.  A failure raises
    the exception of the first failing job, as a run in one process would;
    a child that ends without sending a result raises ``RuntimeError``
    (exit 4).  Every child is reaped before this returns or raises.  A
    child whose parent has died, say by SIGKILL, leaves before its next job.

    Forked, not spawned: a spawned worker would start a new interpreter,
    import numpy and re-read its inputs, about 0.2 s, longer than an 8-bit
    k-means of a 768x768 tensor.  The children share the parent's arrays
    copy-on-write and make no BLAS call, so the BLAS threads that numpy
    starts are never used in them.
    """
    workers = _worker_count(os.environ.get("CBQUANT_THREADS", ""), _available_cpus(), len(items))
    if not hasattr(os, "fork"):
        workers = 1
    children = {}  # worker -> (pid, read end of its pipe), until reaped
    parent = os.getpid()

    def orphan_checked(item):
        if os.getppid() != parent:  # the parent has died (SIGKILL): stop before the next job
            os._exit(1)
        return fn(item)

    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    done, error = _run_jobs(orphan_checked, items[w::workers])
                    with os.fdopen(write_end, "wb") as pipe:
                        pickle.dump((done, error), pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children[w] = (pid, os.fdopen(read_end, "rb"))
        outcomes = [_run_jobs(fn, items[::workers])]  # the parent's share, while the children run theirs
        for w in range(1, workers):
            pid, pipe = children[w]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[w]
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            outcomes.append(pickle.loads(data))
        results = [None] * len(items)
        failures = {}  # job index -> the exception that stopped its worker
        for w, (done, error) in enumerate(outcomes):
            if error is None:
                results[w::workers] = done
            else:
                failures[w + len(done) * workers] = error
        if failures:
            raise failures[min(failures)]
        return results
    finally:
        for pid, pipe in children.values():  # left only when this raised before reaping them
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    # One job per (scheme, tensor, seed) returns the tensor's SSE at every bit width.  k-means
    # draws its k-means++ picks once per job for all of them; linear reads no seed, so one job
    # per tensor serves every seed's row.
    jobs = [(s, name, seed) for s in schemes for name in tensors for seed in (seeds if s == "kmeans" else seeds[:1])]

    def work(job):
        scheme, name, seed = job
        cfgs = [core.QuantConfig(scheme=core.Scheme[scheme.upper()], bits=bits, max_iterations=args.iters,
                                 seed=seed, group_count=args.groups) for bits in bit_widths]
        if scheme == "kmeans":
            results = grouping._kmeans_widths(inputs[name], cfgs, name)
        else:
            results = (grouping.quantize_grouped(inputs[name], cfg, tensor_name=name) for cfg in cfgs)
        return [_grouped_sse(tensors[name], g) for g in results]

    sse = dict(zip(jobs, _parallel_map(work, jobs)))
    # Each output row, in sorted order, and its MSE: the tensors' SSEs at its bit width, added in name order.
    mse = {}
    for s in schemes:
        for w, bits in enumerate(bit_widths):
            for seed in seeds:
                total = 0.0
                for name in tensors:
                    total += sse[s, name, seed if s == "kmeans" else seeds[0]][w]
                mse[s, bits, seed] = total / count
    if args.format == "csv":
        _emit(["scheme", "bits", "seed", "mse"], [[*row, f"{m:.9g}"] for row, m in mse.items()], "csv")
    else:
        _emit(["bits"] + [f"{s}_mse" for s in schemes],
              [[b] + [f"{np.mean([mse[s, b, seed] for seed in seeds]):.9g}" for s in schemes]
               for b in bit_widths], "table")
    return 0


def cmd_train_toy(args) -> int:
    from . import training  # only train-toy trains; other commands skip its import

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
