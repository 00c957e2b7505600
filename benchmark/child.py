"""One `fracfield` CLI invocation in a fresh process, timed and optionally traced.

    python3 benchmark/child.py RECORD.json CONFIG --output DIR [--threads K]
                               [--trace] [--setup-only]

The checkout's `src/` must be on PYTHONPATH.  The record holds CLOCK_MONOTONIC
timestamps (system-wide on Linux, so the parent can subtract its own spawn
time), the exit code, peak RSS, thread counts and the numerical environment.
With --trace the public functions and methods of every fracfield module are
wrapped at run time; spans (name, start, end, parent) stay in memory and are
written to RECORD.spans.json at exit, and per-layer totals go into the record.
With --setup-only the process stops after import and config parse.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import threading
import time
import traceback
import weakref
from pathlib import Path

MODULES = ("config", "grid", "potential", "fracop", "spectral", "dynamics",
           "stationary", "limits", "cli")
PRIVATE_SPANS = {"cli": ("_manifest",)}  # serialization helpers without a public name
PROPERTY_SPANS = {("fracop", "FracOperator"): ("dual_kernel",)}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()
        self.assemble_keys: list[tuple] = []
        self.step_stats: dict[int, list] = {}  # Trajectory.stats by list id
        self.fields_created = 0
        self.operator_bytes_peak = 0
        self._operators: dict[int, weakref.ref] = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            span = [name, now(), 0.0, parent]
            tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = now()
            tracer.observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def observe(self, name: str, args: tuple, result) -> None:
        if name == "fracop.assemble":
            dom, r = args[0], args[1]
            self.assemble_keys.append((dom.a, dom.b, dom.M, float(r)))
            self._operators[id(result)] = weakref.ref(result)
            self._track_operator_bytes()
        elif name == "fracop.FracOperator.dual_kernel":
            self._track_operator_bytes()
        elif (isinstance(result, tuple) and result
              and type(result[0]).__name__ == "Trajectory"):
            self.step_stats[id(result[0].stats)] = result[0].stats

    def _track_operator_bytes(self) -> None:
        # arrays held by the operators still alive; shared arrays count once
        live = [ref() for ref in self._operators.values()]
        arrays = {}
        for op in live:
            if op is None:
                continue
            held = [op.A, op.M_c, op.M_L, op._chol[0], op._dual_kernel_cache[0]]
            for arr in held:
                if arr is not None:
                    arrays[id(arr)] = arr.nbytes
        self.operator_bytes_peak = max(self.operator_bytes_peak, sum(arrays.values()))

    def install(self) -> None:
        import importlib

        import fracfield

        mods = {m: importlib.import_module(f"fracfield.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(mname, obj)
                elif callable(obj) and (not attr.startswith("_")
                                        or attr in PRIVATE_SPANS.get(mname, ())):
                    wrapper = self.wrap(f"{mname}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
        # rebind every module-level reference (`from .fracop import assemble`)
        for mod in list(mods.values()) + [fracfield]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._count_fields(mods["grid"].Field)
        self._trace_file_writes()

    def _wrap_class(self, mname: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, property):
                if attr in PROPERTY_SPANS.get((mname, cls.__name__), ()):
                    name = f"{mname}.{cls.__name__}.{attr}"
                    setattr(cls, attr, property(self.wrap(name, obj.fget)))
            elif callable(obj) and not isinstance(obj, (staticmethod, classmethod, type)):
                setattr(cls, attr, self.wrap(f"{mname}.{cls.__name__}.{attr}", obj))

    def _count_fields(self, field_cls: type) -> None:
        original = field_cls.__post_init__
        tracer = self

        def counted(self_) -> None:
            tracer.fields_created += 1
            original(self_)

        field_cls.__post_init__ = counted

    def _trace_file_writes(self) -> None:
        Path.write_text = self.wrap("cli.write_text", Path.write_text)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Self time per span name, call counts, and the layer counters."""
        selfs = self.self_times()
        by_name: dict[str, dict] = {}
        solves_in_eigen = 0
        potential_entries = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = by_name.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += selfs[i]
            entry["calls"] += 1
            if name == "fracop.FracOperator.solve_vector" and self._has_ancestor(
                    i, "spectral.first_eigenpair"):
                solves_in_eigen += 1
            if name.startswith("potential.") and (
                    parent < 0 or not self.spans[parent][0].startswith("potential.")):
                potential_entries += 1
        return {
            "spans": by_name,
            "assemble_calls": len(self.assemble_keys),
            "assemble_distinct": len(set(self.assemble_keys)),
            "inverse_iterations": solves_in_eigen,
            "potential_calls": potential_entries,
            "steps": sum(len(stats) for stats in self.step_stats.values()),
            "newton_iterations": sum(st.iterations for stats in self.step_stats.values()
                                     for st in stats),
            "fields_created": self.fields_created,
            "operator_bytes": self.operator_bytes_peak,
        }

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _blas_info() -> list[dict]:
    """Vendor and live thread count of every BLAS library mapped in."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if any(v in os.path.basename(path).lower() for v in ("openblas", "mkl", "blis")):
                libs.add(path)
    out = []
    for path in sorted(libs):
        entry = {"library": os.path.basename(path), "threads": None}
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _proc_status(*keys: str) -> list[int]:
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return [int(fields[k].split()[0]) for k in keys]


def main(argv: list[str]) -> int:
    record_path, config = Path(argv[0]), argv[1]
    rest = argv[2:]
    trace = "--trace" in rest
    setup_only = "--setup-only" in rest
    cli_args = [config] + [a for a in rest if a not in ("--trace", "--setup-only")]

    # Python threads alive at once, so pools started by --threads are seen
    py_threads = [threading.active_count()]
    start_thread = threading.Thread.start

    def counting_start(self_) -> None:
        start_thread(self_)
        py_threads[0] = max(py_threads[0], threading.active_count())

    threading.Thread.start = counting_start

    rec: dict = {"t_import0": now()}
    import fracfield
    import fracfield.cli as cli
    import fracfield.config as config_mod
    rec["t_import1"] = now()
    rec["package"] = fracfield.__file__

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    parse = config_mod.parse_config

    def parse_and_stamp(text: str):
        cfg = parse(text)
        rec["t_parsed"] = now()
        return cfg

    config_mod.parse_config = parse_and_stamp
    cli.parse_config = parse_and_stamp

    if setup_only:
        parse_and_stamp(Path(config).read_text())
        rc = 0
    else:
        try:
            rc = cli.main(cli_args)
        except Exception:  # an escaping traceback is a failed operation, exit 1 as python does
            traceback.print_exc()
            rc = 1
    rec["t_end"] = now()
    rec["rc"] = rc
    # VmHWM belongs to this process image alone; ru_maxrss would carry over
    # the parent's peak across fork and exec
    rec["maxrss_kb"], rec["native_threads"] = _proc_status("VmHWM", "Threads")
    rec["python_threads_peak"] = py_threads[0]
    rec["env"] = environment()
    if tracer is not None:
        rec["trace"] = tracer.summary()
        record_path.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    record_path.write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
