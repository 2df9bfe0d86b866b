"""Run one cbquant command, or a script, with spans around cbquant's public functions.

Usage:
    python3 trace_shim.py SPANS.json cli ARGS...           # like `cbquant ARGS...`
    python3 trace_shim.py SPANS.json script PATH ARGS...   # like `python3 PATH ARGS...`

Every function named in the ``__all__`` of ``core``, ``grouping``, ``tensorio``,
``oracle`` and ``training`` is replaced, in every cbquant module that holds a
reference to it, by a wrapper that records a span: name, start and end
(``perf_counter_ns``, CLOCK_MONOTONIC on Linux), parent span and thread.
A few spans also carry counts taken from arguments or results.  Spans stay in
memory and are written to SPANS.json when the command ends, together with the
clock reading at that moment, so the caller can exclude the write from the
command's own time.  Private helpers (for example ``core._assign``) are not
visible from here.
"""

import functools
import inspect
import json
import runpy
import sys
import threading
import time

import numpy as np

import cbquant
from cbquant import cli, core, grouping, oracle, tensorio, training

LAYERS = {"core": core, "grouping": grouping, "tensorio": tensorio,
          "oracle": oracle, "training": training}


def _empty_slots(args, result):
    occupancy = result.codebook.occupancy
    return {"empty": int(np.count_nonzero(occupancy == 0)), "levels": len(occupancy)}


# Counts recorded at the layer boundary: name -> f(args, result) -> dict.
COUNTS = {
    "core.lloyd_step": lambda args, result: {"changed": int(result[1])},
    "core.linear_quantize": _empty_slots,
    "core.kmeans_quantize": _empty_slots,
    "grouping.quantize_grouped": lambda args, result: {"groups": len(result.groups)},
    "tensorio.write_cbq": lambda args, result: {"bytes": len(result)},
    "tensorio.read_bundle": lambda args, result: {
        "bytes": sum(t.nbytes for t in result.values())},
    "tensorio.write_bundle": lambda args, result: {
        "bytes": 4 * sum(int(np.size(t)) for t in args[1].values())},
}


class Tracer:
    """Collects spans from wrapped functions, one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn):
        spans = self.spans
        local = self._local
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, 0, 0, stack[-1] if stack else None, threading.get_ident(), None]
            spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for short, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        # Rebind every reference, including names imported with `from x import y`.
        for module in (cbquant, cli, *LAYERS.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path, main_end_ns):
        index = {id(record): i for i, record in enumerate(self.spans)}
        names = sorted({record[0] for record in self.spans})
        name_id = {name: i for i, name in enumerate(names)}
        threads = {}
        rows = []
        for name, start, end, parent, thread, counts in self.spans:
            tid = threads.setdefault(thread, len(threads))
            rows.append([name_id[name], start, end,
                         -1 if parent is None else index[id(parent)], tid, counts])
        with open(path, "w") as fh:
            json.dump({"main_end_ns": main_end_ns, "names": names, "spans": rows}, fh)


def main(argv):
    if len(argv) < 2 or argv[1] not in ("cli", "script") or (argv[1] == "script" and len(argv) < 3):
        print(__doc__, file=sys.stderr)
        return 2
    out, mode = argv[0], argv[1]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if mode == "cli":
            code = cli.main(argv[2:])
        else:
            sys.argv = argv[2:]
            runpy.run_path(argv[2], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(out, time.perf_counter_ns())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
