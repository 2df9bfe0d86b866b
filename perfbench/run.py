"""Closed-loop benchmark of the cbquant command line.

Usage (from the root of a checkout; the program is taken from ./src):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

One process drives the program, one child at a time: each command starts when
the previous one has exited.  Inputs are made from --seed.  Every output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1, as BENCHMARK.json lists
them).  --seconds defaults to BENCHMARK.json's run_seconds.  The line before
it is a JSON report with the machine record, the output digests and every
metric named in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SHIM = BENCH_DIR / "trace_shim.py"
ORACLE = BENCH_DIR / "oracle_step.py"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
SETUP_RUNS = 21  # at least this many no-op invocations per run; setup_s is their median
COMMAND_TIMEOUT_S = 60
MAX_THREADS = 2  # CBQUANT_THREADS, capped by nproc; BLAS gets one thread

# paper-eval: the paper's sweep, oracle and fine-tuning settings.
SWEEP_BITS = (1, 2, 3, 4, 5)
SWEEP_SCHEMES = ("linear", "kmeans")
SWEEP_SEEDS = (0, 1, 2)
ORACLE_BITS = 4
FINETUNE_BITS = 2

# Command tag -> the name the report gives its metrics, in pass order.  The
# first two are a workload's step1_s and step2_s.  train-toy comes last on
# paper-eval: about half of its 0.5 s is interpreter start, whose speed drifts
# most on a shared machine, so it is left to pass_s and the report.
STEPS = {"cli": {"quantize": "quantize", "reconstruct": "reconstruct"},
         "paper": {"sweep": "sweep", "oracle": "oracle", "train-toy": "finetune"}}

@dataclass(frozen=True)
class Workload:
    name: str
    tensors: tuple  # ((tensor name, shape), ...)
    kind: str  # "cli": quantize -> reconstruct; "paper": sweep -> oracle -> train-toy
    scheme: str = ""
    bits: int = 0
    groups: int = 1
    oracle_sample: int = 0


def make_workloads(tiny=False):
    """The benchmark's workloads; ``tiny`` shrinks every shape for the self-test."""
    d, ff = (48, 192) if tiny else (768, 3072)
    attn = tuple((f"layer0.attention.{p}.weight", (d, d))
                 for p in ("query", "key", "value", "output"))
    block = attn + (("layer0.intermediate.weight", (ff, d)), ("layer0.output.weight", (d, ff)))
    workloads = (
        Workload("attn-kmeans8", attn, "cli", "kmeans", 8, 1),
        Workload("block-linear-g4096", block, "cli", "linear", 4, 64 if tiny else 4096),
        Workload("paper-eval", attn[:1], "paper", oracle_sample=200 if tiny else 4000),
    )
    return {wl.name: wl for wl in workloads}


# --- bundle and CBQ formats, read and written here independently of the program ---

def write_bundle(manifest_path, tensors):
    payload_path = manifest_path.with_suffix(".bin")
    entries = []
    offset = 0
    with open(payload_path, "wb") as fh:
        for name, tensor in tensors.items():
            blob = np.ascontiguousarray(tensor, dtype="<f4").tobytes()
            fh.write(blob)
            entries.append({"name": name, "shape": list(tensor.shape), "dtype": "f4",
                            "offset": offset, "length": len(blob)})
            offset += len(blob)
    manifest = {"format": "tensor-bundle", "version": 1, "payload": payload_path.name,
                "tensors": entries}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


def read_bundle(manifest_path):
    """Returns ({name: float32 array}, sha256 of manifest + payload bytes)."""
    manifest_bytes = manifest_path.read_bytes()
    manifest = json.loads(manifest_bytes)
    payload = (manifest_path.parent / manifest["payload"]).read_bytes()
    tensors = {}
    for entry in manifest["tensors"]:
        start, length = int(entry["offset"]), int(entry["length"])
        tensors[entry["name"]] = np.frombuffer(
            payload[start:start + length], dtype="<f4").reshape(entry["shape"])
    return tensors, hashlib.sha256(manifest_bytes + payload).hexdigest()


CBQ_FIXED = struct.Struct("<4sHBBIB")  # magic, version, scheme, bits, groups, rank
CBQ_TAIL = struct.Struct("<QI")  # seed, max_iterations
SCHEME_IDS = {"linear": 0, "kmeans": 1}


def cbq_layout(data):
    """Header fields and the offset of the first group of a CBQ blob."""
    magic, version, scheme, bits, groups, rank = CBQ_FIXED.unpack_from(data, 0)
    shape = struct.unpack_from(f"<{rank}Q", data, CBQ_FIXED.size)
    return {"magic": magic, "version": version, "scheme": scheme, "bits": bits,
            "groups": groups, "shape": shape,
            "body": CBQ_FIXED.size + 8 * rank + CBQ_TAIL.size}


def cbq_size(n, rank, bits, groups):
    base, rem = divmod(n, groups)
    indices = rem * (((base + 1) * bits + 7) // 8) + (groups - rem) * ((base * bits + 7) // 8)
    return CBQ_FIXED.size + 8 * rank + CBQ_TAIL.size + groups * (1 << bits) * 8 + indices


def group_blocks(flat, groups):
    """The balanced contiguous groups of ``flat`` as at most two 2-D arrays."""
    base, rem = divmod(flat.size, groups)
    cut = rem * (base + 1)
    blocks = []
    if rem:
        blocks.append(flat[:cut].reshape(rem, base + 1))
    if groups > rem:
        blocks.append(flat[cut:].reshape(groups - rem, base))
    return blocks


def check_reconstruction(name, source, rebuilt, wl):
    """Problems found comparing one reconstructed tensor with its source."""
    if rebuilt.shape != source.shape:
        return [f"{name}: shape {rebuilt.shape} != {source.shape}"]
    x = source.astype(np.float64).reshape(-1)
    y = rebuilt.astype(np.float64).reshape(-1)
    if not np.isfinite(y).all():
        return [f"{name}: non-finite values"]
    problems = []
    levels = 1 << wl.bits
    for xb, yb in zip(group_blocks(x, wl.groups), group_blocks(y, wl.groups)):
        lo = xb.min(axis=1, keepdims=True)
        hi = xb.max(axis=1, keepdims=True)
        slack = 1e-6 * (hi - lo)
        if ((yb < lo - slack) | (yb > hi + slack)).any():
            problems.append(f"{name}: value outside its group's source range")
        distinct = 1 + np.count_nonzero(np.diff(np.sort(yb, axis=1), axis=1), axis=1)
        if (distinct > levels).any():
            problems.append(f"{name}: a group has more than {levels} distinct values")
        if wl.scheme == "linear" and (np.abs(xb - yb) > (hi - lo) / levels * (1 + 1e-4)).any():
            problems.append(f"{name}: linear error exceeds one bin width")
    return problems


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- measurement helpers ---

def summary(values):
    """Median, the highest percentile with at least ten samples beyond it, n and the samples."""
    values = sorted(values)
    out = {"median": statistics.median(values) if values else None, "n": len(values),
           "p": None, "p_value": None, "values": values}
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - p / 100) >= 10:
            out["p"], out["p_value"] = p, float(np.percentile(values, p))
            break
    return out


def interval_union(intervals):
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def machine_record(threads, seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {"CBQUANT_THREADS": threads, "BLAS": 1}, "seed": seed}


@dataclass
class Command:
    tag: str
    wall_s: float
    rss_mb: float
    stdout: bytes
    spans: dict = None
    window_s: float = 0.0  # spawn to the end of the traced work, excluding the span dump


@dataclass
class Pass:
    traced: bool
    steps: list = field(default_factory=list)
    ok: bool = True

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.steps)


class Bench:
    """One run of one workload: inputs, commands, checks and tallies."""

    def __init__(self, wl, seed, workdir, stored_digests=None, corrupt=None):
        self.wl = wl
        self.seed = seed
        self.dir = workdir
        self.stored = stored_digests
        self.corrupt = corrupt
        self.threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), CBQUANT_THREADS=str(self.threads),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.quality = {}
        self.last_tag = None
        self.setup = []  # wall times of no-op invocations
        self.sample_setup = False  # precede every command with a no-op invocation
        rng = np.random.default_rng(seed)
        self.source = {name: rng.normal(0.0, 0.02, size=shape).astype(np.float32)
                       for name, shape in wl.tensors}
        write_bundle(workdir / "source.json", self.source)
        self.run("setup", ["--help"])  # warms the file and bytecode caches before any timing

    # -- commands --

    def run(self, tag, args, traced=False, script=None):
        """Run one child to completion; returns a Command, or None if it failed."""
        if self.sample_setup and tag != "setup":
            self.setup_sample()
        self.attempted += 1
        self.last_tag = tag
        spans_path = self.dir / f"{tag}.spans.json"
        if script is None:
            argv = ([sys.executable, str(SHIM), str(spans_path), "cli", *args] if traced
                    else [sys.executable, "-m", "cbquant.cli", *args])
        else:
            argv = ([sys.executable, str(SHIM), str(spans_path), "script", str(script), *args]
                    if traced else [sys.executable, str(script), *args])
        out_path, err_path = self.dir / f"{tag}.out", self.dir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.dir)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter_ns()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(tag, f"exit code {code} {tail}")
            return None
        cmd = Command(tag, (end - spawn) / 1e9, usage.ru_maxrss / 1024.0, out_path.read_bytes())
        if traced:
            cmd.spans = json.loads(spans_path.read_text())
            cmd.window_s = (min(cmd.spans["main_end_ns"], end) - spawn) / 1e9
        return cmd

    def fail(self, tag, message):
        self.failed += 1
        self.errors.append(f"{tag}: {message}")
        print(f"FAILED {tag}: {message}", file=sys.stderr)

    def verify(self, tag, digests, check):
        """Digest the outputs of one operation; run its full check on outputs not seen before."""
        problems = check() if not digests.keys() <= self.digests.keys() else []
        for key, value in digests.items():
            first = self.digests.setdefault(key, value)
            if value != first:
                problems.append(f"{key} differs from the first pass")
            if self.stored is not None and self.stored.get(key) != value:
                problems.append(f"{key} does not match the stored default-seed digest")
        if problems:
            self.fail(tag, "; ".join(problems[:4]))
        return not problems

    def setup_sample(self):
        """Time one no-op invocation: interpreter start, `import cbquant`, the parser."""
        cmd = self.run("setup", ["--help"])
        if cmd is not None and not cmd.stdout.startswith(b"usage: cbquant"):
            self.fail("setup", "no usage text")
        elif cmd is not None:
            self.setup.append(cmd.wall_s)

    # -- the closed loop --

    def run_pass(self, traced):
        p = Pass(traced)
        steps = self.cli_pass if self.wl.kind == "cli" else self.paper_pass
        try:
            for cmd in steps(traced):
                if cmd is None:
                    p.ok = False
                    break
                p.steps.append(cmd)
        except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
            self.fail(self.last_tag, f"unreadable output: {exc!r}")
            p.ok = False
        return p

    def cli_pass(self, traced):
        wl = self.wl
        shutil.rmtree(self.dir / "q", ignore_errors=True)
        q = self.run("quantize", ["quantize", "source.json", "-o", "q", "--scheme", wl.scheme,
                                  "--bits", str(wl.bits), "--groups", str(wl.groups),
                                  "--format", "csv"], traced)
        if q is None:
            yield None
            return
        manifest = json.loads((self.dir / "q" / "manifest.json").read_text())
        files = {e["name"]: self.dir / "q" / e["file"] for e in manifest["tensors"]}
        blobs = {name: path.read_bytes() for name, path in files.items()}
        ok = self.verify("quantize", {f"cbq:{n}": sha256(b) for n, b in blobs.items()},
                         lambda: self.check_cbq(manifest, blobs))
        yield q if ok else None
        if self.corrupt is not None:
            self.corrupt(files)
        for stale in ("rebuilt.json", "rebuilt.bin"):
            (self.dir / stale).unlink(missing_ok=True)
        r = self.run("reconstruct", ["reconstruct", "q", "-o", "rebuilt.json"], traced)
        if r is None:
            yield None
            return
        rebuilt, digest = read_bundle(self.dir / "rebuilt.json")
        ok = self.verify("reconstruct", {"bundle": digest},
                         lambda: self.check_rebuilt(rebuilt, blobs))
        yield r if ok else None

    def check_cbq(self, manifest, blobs):
        wl = self.wl
        problems = []
        if sorted(blobs) != sorted(self.source) or any(e["kind"] != "cbq" for e in manifest["tensors"]):
            return ["quantized manifest does not list every tensor as cbq"]
        for name, blob in blobs.items():
            head = cbq_layout(blob)
            shape = self.source[name].shape
            want = {"magic": b"CBQ1", "version": 1, "scheme": SCHEME_IDS[wl.scheme],
                    "bits": wl.bits, "groups": wl.groups, "shape": shape}
            if any(head[k] != v for k, v in want.items()):
                problems.append(f"{name}: unexpected CBQ header")
            elif len(blob) != cbq_size(int(np.prod(shape)), len(shape), wl.bits, wl.groups):
                problems.append(f"{name}: CBQ size {len(blob)} differs from the format's size")
        return problems

    def check_rebuilt(self, rebuilt, blobs):
        if sorted(rebuilt) != sorted(self.source):
            return ["reconstructed bundle lists other tensors"]
        problems = []
        sse = ssd = 0.0
        n = 0
        for name, x in self.source.items():
            problems += check_reconstruction(name, x, rebuilt[name], self.wl)
            x64 = x.astype(np.float64)
            sse += float(np.sum(np.square(x64 - rebuilt[name].astype(np.float64))))
            ssd += float(np.sum(np.square(x64 - x64.mean())))
            n += x.size
        self.quality["mse"] = sse / n
        self.quality["rel_mse"] = sse / ssd
        self.quality["compression_ratio"] = 4.0 * n / sum(len(b) for b in blobs.values())
        if not self.quality["rel_mse"] < 16.0 / 4 ** self.wl.bits:
            problems.append(f"relative MSE {self.quality['rel_mse']:.3g} is implausibly large")
        return problems

    def paper_pass(self, traced):
        seed = str(self.seed)
        sweep = self.run("sweep", ["sweep", "source.json",
                                   "--bits", *map(str, SWEEP_BITS), "--schemes", *SWEEP_SCHEMES,
                                   "--seeds", *map(str, SWEEP_SEEDS), "--format", "csv"], traced)
        ok = sweep is not None and self.verify("sweep", {"sweep.csv": sha256(sweep.stdout)},
                                               lambda: self.check_sweep(sweep.stdout))
        yield sweep if ok else None
        (self.dir / "oracle.json").unlink(missing_ok=True)
        orc = self.run("oracle", ["source.json", "oracle.json", "--sample",
                                  str(self.wl.oracle_sample), "--bits", str(ORACLE_BITS),
                                  "--seed", seed], traced, script=ORACLE)
        if orc is None:
            yield None
            return
        data = (self.dir / "oracle.json").read_bytes()
        ok = self.verify("oracle", {"oracle.json": sha256(data)}, lambda: self.check_oracle(data))
        yield orc if ok else None
        toy = self.run("train-toy", ["train-toy", "--bits", str(FINETUNE_BITS), "--seed", seed,
                                     "--data-seed", seed, "--task-seed", seed,
                                     "--format", "csv"], traced)
        ok = toy is not None and self.verify("train-toy", {"train-toy.csv": sha256(toy.stdout)},
                                             lambda: self.check_toy(toy.stdout))
        yield toy if ok else None

    def check_sweep(self, stdout):
        lines = stdout.decode().split()
        if not lines or lines[0] != "scheme,bits,seed,mse":
            return ["sweep: unexpected header"]
        mse = defaultdict(list)
        for line in lines[1:]:
            scheme, bits, _, value = line.split(",")
            mse[scheme, int(bits)].append(float(value))
        want = {(s, b) for s in SWEEP_SCHEMES for b in SWEEP_BITS}
        if set(mse) != want or any(len(v) != len(SWEEP_SEEDS) for v in mse.values()):
            return ["sweep: rows do not cover every (scheme, bits, seed)"]
        values = [x for v in mse.values() for x in v]
        if not all(np.isfinite(x) and x > 0 for x in values):
            return ["sweep: MSE not finite and positive"]
        problems = []
        mean = {k: float(np.mean(v)) for k, v in mse.items()}
        for bits in SWEEP_BITS[1:]:
            if not all(mean[s, bits] < mean[s, bits - 1] for s in SWEEP_SCHEMES):
                problems.append(f"sweep: MSE does not fall from {bits - 1} to {bits} bits")
        source = next(iter(self.source.values())).astype(np.float64)
        self.quality["rel_mse"] = float(np.mean(values)) / float(np.var(source))
        return problems

    def check_toy(self, stdout):
        lines = stdout.decode().split()
        if not lines or lines[0] != "scheme,bits,pretrain_loss,post_quant_loss,final_loss,recovery":
            return ["train-toy: unexpected header"]
        rows = {line.split(",")[0]: [float(x) for x in line.split(",")[2:]] for line in lines[1:]}
        if sorted(rows) != sorted(SWEEP_SCHEMES):
            return ["train-toy: expected one row per scheme"]
        if not all(np.isfinite(v).all() for v in rows.values()):
            return ["train-toy: non-finite losses"]
        _, post_quant, final, _ = rows["kmeans"]
        self.quality["finetune_final_loss"] = final
        if not final < post_quant:
            return ["train-toy: fine-tuning did not lower the k-means loss"]
        return []

    def check_oracle(self, data):
        result = json.loads(data)
        opt = result["optimal_sse"]
        if not (0 < opt <= result["linear_sse"] and opt <= result["kmeans_sse"]):
            return ["oracle: optimum does not bound both schemes"]
        self.quality["oracle_gap"] = result["kmeans_sse"] / opt
        return []


def layer_metrics(p, threads, wanted):
    """The per-layer metrics ``wanted`` of one traced pass, from its commands' spans."""
    total = defaultdict(int)
    own = defaultdict(int)
    calls = Counter()
    counts = Counter()
    first_step_calls = Counter()
    cli_self = 0.0
    busy_ratio = 0.0
    for i, cmd in enumerate(p.steps):
        names = cmd.spans["names"]
        rows = cmd.spans["spans"]
        covered = [0] * len(rows)
        for _, start, end, parent, _, _ in rows:
            if parent >= 0:
                covered[parent] += end - start
        roots = []
        for k, (name_id, start, end, parent, _, extra) in enumerate(rows):
            name = names[name_id]
            total[name] += end - start
            own[name] += end - start - covered[k]
            calls[name] += 1
            if i == 0:
                first_step_calls[name] += 1
            for key, value in (extra or {}).items():
                counts[name, key] += value
            if parent < 0:
                roots.append((start, end))
        cli_self += cmd.window_s - interval_union(roots) / 1e9
        if i == 0:
            busy_ratio = sum(end - start for start, end in roots) / 1e9 / (threads * cmd.window_s)
    writes = first_step_calls["tensorio.write_cbq"]
    lloyd_calls = calls["core.lloyd_step"]
    levels = counts["core.linear_quantize", "levels"] + counts["core.kmeans_quantize", "levels"]
    empty = counts["core.linear_quantize", "empty"] + counts["core.kmeans_quantize", "empty"]
    derived = {
        "core.lloyd_step.changed_ratio":
            counts["core.lloyd_step", "changed"] / lloyd_calls if lloyd_calls else 0.0,
        "core.empty_cluster_ratio": empty / levels if levels else 0.0,
        "grouping.groups": counts["grouping.quantize_grouped", "groups"],
        "tensorio.read_cbq.calls_per_tensor":
            first_step_calls["tensorio.read_cbq"] / writes if writes else 0.0,
        "tensorio.bundle_bytes":
            counts["tensorio.read_bundle", "bytes"] + counts["tensorio.write_bundle", "bytes"],
        "tensorio.cbq_bytes": counts["tensorio.write_cbq", "bytes"],
        "cli.self_s": cli_self,
        "cli.busy_ratio": busy_ratio,
    }
    out = {}
    for metric in wanted:
        if metric in derived:
            out[metric] = derived[metric]
        else:
            fn, kind = metric.rsplit(".", 1)
            out[metric] = {"s": total[fn] / 1e9, "self_s": own[fn] / 1e9, "calls": calls[fn]}[kind]
    return out


def measure(spec, wl, seed, seconds, trace, stored_digests=None, corrupt=None):
    """Run one workload for ``seconds``; returns (result line, report).

    ``spec`` is BENCHMARK.json, which names the metrics and their units.
    """
    workdir = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(wl, seed, workdir, stored_digests, corrupt)
        # Setup samples are spread over the whole run, so that setup_s sees the
        # same machine state as the commands it is compared with.
        bench.sample_setup = not trace
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(bench.run_pass(traced=trace and len(passes) % 2 == 1))
            if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
                break
        bench.sample_setup = False
        for _ in range(SETUP_RUNS - len(bench.setup) if not trace else 0):
            bench.setup_sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    good = [p for p in passes if p.ok]
    plain = [p for p in good if not p.traced]
    steps = STEPS[wl.kind]
    step_times = {tag: [c.wall_s for p in plain for c in p.steps if c.tag == tag] for tag in steps}
    step_rss = {tag: [c.rss_mb for p in plain for c in p.steps if c.tag == tag] for tag in steps}
    step1, step2 = list(steps)[:2]

    def median(values):
        return statistics.median(values) if values else None

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        names = [m for m in units if m != "trace.overhead_s"]
        traced = [p for p in good if p.traced]
        per_pass = [layer_metrics(p, bench.threads, names) for p in traced]
        metrics = {m: median([x[m] for x in per_pass]) for m in names}
        overhead = None
        if traced and plain:
            overhead = median([p.wall_s for p in traced]) - median([p.wall_s for p in plain])
        metrics["trace.overhead_s"] = overhead
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            "setup_s": median(bench.setup),
            "pass_s": median([p.wall_s for p in plain]),
            "step1_s": median(step_times[step1]),
            "step2_s": median(step_times[step2]),
            "peak_rss_mb": median([max(c.rss_mb for c in p.steps) for p in plain]),
            "rel_mse": bench.quality.get("rel_mse"),
        }
    correct = bench.failed == 0 and bool(plain) and all(
        metrics.get(name) is not None for name in units)
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}

    named = {"setup_s": summary(bench.setup)}
    for tag, name in steps.items():
        named[f"{name}_s"] = summary(step_times[tag])
    if wl.kind == "cli":
        for tag, name in steps.items():
            named[f"{name}_rss_mb"] = summary(step_rss[tag])
    named.update(bench.quality)
    report = {"workload": wl.name, "machine": machine_record(bench.threads, seed),
              "trace": trace, "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
              "metrics": named, "digests": bench.digests, "errors": bench.errors[:20]}
    return result, report


# --- self-test ---

def flip_index_bit(files):
    path = next(iter(files.values()))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def move_busiest_centroid(files):
    path = next(iter(files.values()))
    data = bytearray(path.read_bytes())
    head = cbq_layout(data)
    levels = 1 << head["bits"]
    occupancy = np.frombuffer(bytes(data), "<u4", levels, head["body"] + 4 * levels)
    struct.pack_into("<f", data, head["body"] + 4 * int(np.argmax(occupancy)), 1.0)
    path.write_bytes(bytes(data))


def self_test(spec):
    """Tiny-size run of every workload: every metric gets a value, and the output check fires."""
    problems = []
    for name, wl in make_workloads(tiny=True).items():
        if name not in {w["name"] for w in spec["workloads"]}:
            problems.append(f"{name} is not in BENCHMARK.json")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, report = measure(spec, wl, DEFAULT_SEED, 0, trace)
            missing = [m["name"] for m in spec[key]
                       if not isinstance(result["metrics"][m["name"]]["value"], (int, float))]
            if missing:
                problems.append(f"{name} trace={trace}: no value for {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: failed {report['errors']}")
            print(f"self-test {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)
    attn = make_workloads(tiny=True)["attn-kmeans8"]
    for corrupt in (flip_index_bit, move_busiest_centroid):
        result, _ = measure(spec, attn, DEFAULT_SEED, 0, 0, corrupt=corrupt)
        if result["correct"] or not result["failed"]:
            problems.append(f"{corrupt.__name__}: the output check did not fire")
        print(f"self-test {corrupt.__name__}: {result['failed']} failed operations", flush=True)
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the cbquant CLI.")
    parser.add_argument("--workload", choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the benchmark itself")
    args = parser.parse_args()
    if not (SRC / "cbquant" / "__init__.py").is_file():
        print(f"perfbench: no cbquant sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**32 or args.seconds < 0:
        parser.error("--seed must be in [0, 2**32) and --seconds >= 0")
    stored = None
    if args.seed == DEFAULT_SEED:
        stored = json.loads(DIGESTS.read_text()).get(args.workload, {})
    result, report = measure(spec, make_workloads()[args.workload], args.seed, args.seconds,
                             args.trace, stored)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
