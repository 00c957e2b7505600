"""fracfield benchmark: CLI experiments as users run them, one fresh process
per config, with independent correctness checks on every artifact.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--cli-threads K]

A run repeats whole rounds (every config of the workload once, in order) and
starts another round only while the mean round so far still fits in S
seconds.  The seed reaches the program only as FRACFIELD_SEED.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones; each is the sum
over the workload's configs of the per-config median over rounds (peak memory
and operator bytes take the largest config instead of the sum).  The last
line of stdout is one JSON object.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the benchmark's own BLAS work (reference eigensolves) stays on one thread,
# so it never competes with a child process for the cores
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

WORKLOADS = {
    "coarse-flows": ["ch_reference", "ch_modified", "allen_cahn", "porous_medium",
                     "limit_sigma_pm"],
    "fine-ch": ["fine_ch"],
    "eigen-refine": ["eigen_refine"],
    "stationary-wide": ["stationary_wide"],
    # reference figure for the README, not a benchmark workload
    "limit-sigma": ["limit_sigma_pm"],
}
MIN_SETUP_SAMPLES = 9
INVOCATION_TIMEOUT_S = 150
SERIALIZERS = ("cli._manifest", "cli.write_text", "cli.config_hash",
               "config.RunConfig.manifest_items")
PEAK_METRICS = ("peak_rss_mb", "fracop.operator_bytes")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(seed: int) -> dict:
    # one BLAS thread per process: a single-threaded baseline, and with
    # --cli-threads K <= nproc no process runs more threads than nproc
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACFIELD_")}
    env["PYTHONPATH"] = str(SRC)
    env["FRACFIELD_SEED"] = str(seed)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


class InvocationFailed(RuntimeError):
    """The child was killed, timed out or exited without a full record."""


class Invocation:
    """One child process on one config; raises InvocationFailed if it cannot
    run, and RuntimeError if it imported fracfield from outside the checkout."""

    def __init__(self, config: Path, workdir: Path, env: dict, cli_threads: int,
                 trace: bool, setup_only: bool = False):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.out = workdir / "out"
        record = workdir / "record.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(record), str(config),
               "--output", str(self.out)]
        if cli_threads > 1:
            cmd += ["--threads", str(cli_threads)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = now()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, self.stderr = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise InvocationFailed(f"{config.name}: no exit within {INVOCATION_TIMEOUT_S} s")
        if proc.returncode != 0 or not record.exists():
            raise InvocationFailed(f"{config.name}: benchmark child exited "
                                   f"{proc.returncode}: {self.stderr.strip()[-400:]}")
        self.rec = json.loads(record.read_text())
        if not Path(self.rec["package"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"fracfield imported from {self.rec['package']}, not {SRC}")
        self.rc = self.rec["rc"]
        if self.rc == 0 and "t_parsed" not in self.rec:
            raise InvocationFailed(f"{config.name}: config parse was never reached")
        t_parsed = self.rec.get("t_parsed", self.rec["t_end"])
        self.setup_s = t_parsed - t_spawn
        self.run_s = self.rec["t_end"] - t_parsed

    def oversubscribed(self) -> str | None:
        env = self.rec["env"]
        blas = max(lib["threads"] or 1 for lib in env["blas_libraries"])
        workers = max(1, self.rec["python_threads_peak"] - 1)
        if blas * workers > env["nproc"]:
            return (f"{blas} BLAS threads x {workers} Python workers exceed "
                    f"nproc = {env['nproc']}")
        return None

    def artifact_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.out.iterdir())


def layer_metrics(inv: Invocation) -> dict:
    tr = inv.rec["trace"]
    spans = tr["spans"]

    def self_s(pred) -> float:
        return sum(v["self_s"] for k, v in spans.items() if pred(k))

    def serializer(k: str) -> bool:
        return k.endswith("to_csv") or k in SERIALIZERS

    def layer(prefix: str):
        return lambda k: k.startswith(prefix + ".") and not serializer(k)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    return {
        "config.parse_s": self_s(layer("config")),
        "cli.import_s": inv.rec["t_import1"] - inv.rec["t_import0"],
        "cli.serialize_s": self_s(serializer),
        "cli.artifact_bytes": inv.artifact_bytes(),
        "fracop.assemble_calls": tr["assemble_calls"],
        "fracop.assemble_distinct": tr["assemble_distinct"],
        "fracop.assemble_s": self_s(lambda k: k in ("fracop.assemble",
                                                     "fracop.kernel_constant")),
        "fracop.dual_kernel_s": self_s(lambda k: k == "fracop.FracOperator.dual_kernel"),
        "fracop.solve_vector_calls": calls("fracop.FracOperator.solve_vector"),
        "fracop.solve_vector_s": self_s(lambda k: k == "fracop.FracOperator.solve_vector"),
        "fracop.operator_bytes": tr["operator_bytes"],
        "spectral.first_eigenpair_s": self_s(lambda k: k == "spectral.first_eigenpair"),
        "spectral.inverse_iterations": tr["inverse_iterations"],
        "dynamics.evolve_s": self_s(layer("dynamics")),
        "dynamics.steps": tr["steps"],
        "dynamics.newton_iterations": tr["newton_iterations"],
        "potential.calls": tr["potential_calls"],
        "potential.eval_s": self_s(layer("potential")),
        "grid.fields_created": tr["fields_created"],
        "stationary.minimize_s": self_s(layer("stationary")),
        "stationary.minimize_calls": calls("stationary.minimize_energy"),
        "limits.self_s": self_s(layer("limits")),
        # README self-time table only
        "fracop.other_s": self_s(lambda k: k.startswith("fracop.FracOperator.") and k not in (
            "fracop.FracOperator.dual_kernel", "fracop.FracOperator.solve_vector")),
        "spectral.other_s": self_s(lambda k: layer("spectral")(k)
                                   and k != "spectral.first_eigenpair"),
        "grid.self_s": self_s(layer("grid")),
        "cli.self_s": self_s(layer("cli")),
        "traced.run_s": inv.run_s,
    }


def combine(per_config: list[dict], names: list[str]) -> dict:
    """Median over rounds per config, then summed (or maxed) over configs."""
    out = {}
    for name in names:
        medians = [statistics.median(samples[name]) for samples in per_config]
        total = max(medians) if name in PEAK_METRICS else sum(medians)
        out[name] = int(total) if float(total).is_integer() else total
    return out


def attempt(inv: Invocation, cfg: dict, checks) -> tuple[str | None, bool]:
    """(reason the operation failed or None, whether an output check failed)."""
    if inv.rc != 0:
        return f"exit code {inv.rc}: {inv.stderr.strip()[-300:]}", False
    problem = inv.oversubscribed()
    if problem is not None:
        return problem, False
    try:
        checks.check(cfg, inv.out)
    except checks.CheckFailed as exc:
        return f"check failed: {exc}", True
    return None, False


def report(samples: list[dict], trace: bool) -> dict:
    if not trace:
        summary = combine(samples, list(END_TO_END_UNITS))
        for name, val in summary.items():
            print(f"  {name:32s} {val:.6g}")
        return {n: {"value": summary[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    names = [n for n in samples[0] if n not in END_TO_END_UNITS]
    layers = combine(samples, names)
    steps = layers.pop("dynamics.steps")
    layers["dynamics.step_s"] = layers["dynamics.evolve_s"] / steps if steps else 0.0
    for name, val in sorted(layers.items()):
        print(f"  {name:32s} {val:.6g}")
    return {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cli-threads", type=int, default=1,
                    help="pass --threads K to the CLI (README reference figure)")
    args = ap.parse_args(argv)

    if not (SRC / "fracfield" / "cli.py").is_file():
        print(f"error: no fracfield sources under {SRC}", file=sys.stderr)
        return 2
    import checks

    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.cli_threads <= nproc:
        print(f"error: --cli-threads must lie in [1, {nproc}]", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    names = WORKLOADS[args.workload]
    configs = [BENCH / "configs" / f"{n}.cfg" for n in names]
    parsed = [checks.parse_config(c) for c in configs]
    work = WORK / args.workload
    trace = bool(args.trace)

    def invoke(k: int, setup_only: bool = False) -> Invocation:
        workdir = work / ("probe" if setup_only else names[k])
        return Invocation(configs[k], workdir, env, args.cli_threads,
                          trace and not setup_only, setup_only)

    for cfg in parsed:
        checks.prepare(cfg)
    # warm-up: byte-compiles the package and fills the page cache; a failure
    # here shows again, and is counted, in the first round
    try:
        invoke(0, setup_only=True)
    except InvocationFailed:
        pass

    samples: list[dict] = [{} for _ in names]
    attempted = failed = rounds = 0
    correct = True
    t_start = now()
    while True:
        for k, cfg in enumerate(parsed):
            attempted += 1
            try:
                inv = invoke(k)
                problem, wrong = attempt(inv, cfg, checks)
            except InvocationFailed as exc:
                problem, wrong = str(exc), False
            if problem is not None:
                failed += 1
                correct &= not wrong
                print(f"FAILED {names[k]}: {problem}", file=sys.stderr)
                continue
            values = {"setup_s": inv.setup_s, "run_s": inv.run_s,
                      "peak_rss_mb": inv.rec["maxrss_kb"] / 1024.0}
            if trace:
                values.update(layer_metrics(inv))
            for key, val in values.items():
                samples[k].setdefault(key, []).append(val)
        rounds += 1
        elapsed = now() - t_start
        if elapsed + elapsed / rounds > args.seconds:
            break

    if not any(samples):
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    # top up set-up samples with set-up-only processes (import + parse, no run),
    # to MIN_SETUP_SAMPLES across the workload's configs
    per_config = 0 if trace else -(-MIN_SETUP_SAMPLES // len(names))
    for k, s in enumerate(samples):
        missing = per_config - len(s["setup_s"]) if s else 0
        for _ in range(missing):
            try:
                s["setup_s"].append(invoke(k, setup_only=True).setup_s)
            except InvocationFailed as exc:
                print(f"set-up sample skipped: {exc}", file=sys.stderr)

    env_record = inv.rec["env"]
    (work / "env.json").write_text(json.dumps(env_record, indent=1))
    (work / "samples.json").write_text(json.dumps(dict(zip(names, samples)), indent=1))
    print(f"env {json.dumps(env_record)}")
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} "
          f"attempted {attempted} failed {failed}")
    # a config that failed every time is left out of the sums
    metrics = report([s for s in samples if s], trace)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:  # fracfield imported from outside the checkout
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
