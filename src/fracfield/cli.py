"""Command-line front end: `fracfield <config> [--threads K] [--output DIR]`.

Artifacts are assembled in memory and written only after the run and all
runtime checks succeed, so a failing run leaves no partial files.  Reruns of
the same config produce bit-identical CSVs; FRACFIELD_SEED (default 0) fixes
the RNG used for random starts and random initial data.

Exit codes: 0 success, 1 configuration error, 2 solver failure, 3 violation
of one of the built-in inequality checks.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics, limits, spectral, stationary
from .config import ConfigError, RunConfig, parse_config
from .dynamics import NewtonDivergenceError, SolverSettings
from .fracop import SolverDivergenceError, assemble
from .grid import Domain1D, Field, bump_field, sample
from .potential import PotentialParams


class CheckViolationError(RuntimeError):
    """A paper-derived inequality failed beyond its stated slack."""


def _initial_field(cfg: RunConfig, domain: Domain1D, rng: np.random.Generator) -> Field:
    if cfg.initial == "bump":
        return bump_field(domain, cfg.amplitude)
    if cfg.initial == "sine":
        L = domain.length
        return cfg.amplitude * sample(
            domain, lambda x: np.sin(np.pi * (x - domain.a) / L)
        )
    if cfg.initial == "zero":
        return Field(domain, np.zeros(domain.M))
    return Field(domain, cfg.amplitude * rng.standard_normal(domain.M))


def _params(cfg: RunConfig) -> PotentialParams:
    return PotentialParams(p=cfg.p, lam=cfg.lam, delta=cfg.delta)


def _settings(cfg: RunConfig) -> SolverSettings:
    return SolverSettings(tau=cfg.tau, T=cfg.T, newton_tol=cfg.newton_tol)


def _check_trace_monotone(trace, column: str, tol: float) -> None:
    vals = getattr(trace, column)
    rises = np.diff(vals)
    if rises.size and float(rises.max()) > tol:
        raise CheckViolationError(
            f"{column} increased by {rises.max():.3e} (> {tol:.1e}) along the run"
        )
    if float(trace.step_slack.min()) < -tol:
        raise CheckViolationError(
            f"energy-inequality slack {trace.step_slack.min():.3e} below -{tol:.1e}"
        )


def run(
    cfg: RunConfig,
    output_dir: str | None = None,
    threads: int = 1,
    config_text: str = "",
) -> dict[str, str]:
    """Execute one experiment; returns {filename: contents} after writing."""
    seed = int(os.environ.get("FRACFIELD_SEED", "0"))
    rng = np.random.default_rng(seed)
    domain = Domain1D(cfg.a, cfg.b, cfg.M)
    artifacts: dict[str, str] = {}
    slack_tol = 10.0 * cfg.newton_tol

    exp = cfg.experiment
    if exp.startswith("evolve-"):
        params = _params(cfg)
        u0 = _initial_field(cfg, domain, rng)
        op_s = None
        if exp != "evolve-ac":
            op_s = assemble(domain, cfg.s, cfg.quad_tol, cfg.lin_tol)
        if exp == "evolve-pm":
            # no interface energy and no concave term in the porous-medium flow
            op_sigma, params = None, dc_replace(params, lam=0.0)
        elif op_s is not None and cfg.sigma == cfg.s:
            op_sigma = op_s  # operators are immutable, so one serves both orders
        else:
            op_sigma = assemble(domain, cfg.sigma, cfg.quad_tol, cfg.lin_tol)
        lam = params.lam
        if exp == "evolve-ch-modified":
            lam = spectral.first_eigenpair(op_sigma, cfg.eig_tol).lambda1
        traj, trace = dynamics.evolve(
            dynamics.Flow(op_s, op_sigma, lam), params, u0, _settings(cfg)
        )
        # E_tilde is E_sigma except in the modified scheme, where it is the
        # energy the scheme dissipates
        _check_trace_monotone(trace, "E_tilde", slack_tol)
        artifacts["trajectory.csv"] = dynamics.trajectory_to_csv(traj)
        artifacts["energy.csv"] = trace.to_csv()

    elif exp == "eigen-sweep":
        refinements = cfg.refinements or [cfg.M]
        rows = spectral.lambda1_sweep(domain, cfg.sequence, refinements, max_workers=threads)
        for row in rows:
            if row["lambda1"] < row["lower"] - 1e-9:
                raise CheckViolationError(
                    f"lambda1({row['r']}) = {row['lambda1']:.6g} below the "
                    f"analytic lower bound {row['lower']:.6g}"
                )
            if row["r"] <= 0.2 and row["M"] >= 256:
                if row["lambda1"] > row["upper"] + 0.05:
                    raise CheckViolationError(
                        f"lambda1({row['r']}) = {row['lambda1']:.6g} above the "
                        f"Dirichlet upper bound {row['upper']:.6g} + 0.05"
                    )
        artifacts["eigen.csv"] = spectral.sweep_to_csv(rows)

    elif exp in ("limit-sigma", "limit-s"):
        params = _params(cfg)
        settings = _settings(cfg)
        u0 = _initial_field(cfg, domain, rng)
        if exp == "limit-sigma":
            if cfg.p > 2:
                report = limits.limit_sigma_to_pm(
                    domain, cfg.s, cfg.p, u0, cfg.sequence, settings,
                    max_workers=threads,
                )
            else:
                report = limits.limit_sigma_to_fd(
                    domain, cfg.s, cfg.p, u0, cfg.sequence, settings,
                    max_workers=threads,
                )
        else:
            report = limits.limit_s_to_ac(
                domain, cfg.sigma, cfg.p, u0, cfg.sequence, settings,
                max_workers=threads,
            )
        artifacts["report.csv"] = report.to_csv()
        artifacts["report.txt"] = (
            f"reference={report.reference}\n"
            f"monotone={report.monotone}\n"
            f"reduction_factor={report.reduction_factor:.17g}\n"
        )

    elif exp == "stationary":
        params = _params(cfg)
        op_sigma = assemble(domain, cfg.sigma, cfg.quad_tol, cfg.lin_tol)
        result = stationary.minimize_energy(
            op_sigma, params, stat_tol=cfg.stat_tol, rng=rng
        )
        h = domain.h
        lp_p = h * float(np.sum(np.abs(result.u_star.values) ** cfg.p))
        identity_gap = abs(result.energy + (0.5 - 1.0 / cfg.p) * lp_p)
        if identity_gap > 1e-6 * max(1.0, abs(result.energy)):
            raise CheckViolationError(
                f"stationary energy identity off by {identity_gap:.3e}"
            )
        lines = [
            "sigma,lambda1,norm_u,energy,residual,classification",
            f"{cfg.sigma:.17g},{result.lambda1_sigma:.17g},"
            f"{np.sqrt(h * np.sum(result.u_star.values**2)):.17g},"
            f"{result.energy:.17g},{result.residual:.17g},{result.classification}",
        ]
        artifacts["stationary.csv"] = "\n".join(lines) + "\n"
        if cfg.sequence:
            rows = stationary.stationary_sigma_sweep(
                domain, params, cfg.sequence, cfg.stat_tol
            )
            artifacts["sweep.csv"] = stationary.sweep_to_csv(rows)

    elif exp == "operator-limit":
        u0 = _initial_field(cfg, domain, rng)
        rows = limits.operator_identity_limit(domain, u0, cfg.sequence)
        lines = ["r,relative_gap"]
        for row in rows:
            lines.append(f"{row['r']:.17g},{row['relative_gap']:.17g}")
        artifacts["operator_limit.csv"] = "\n".join(lines) + "\n"

    else:  # pragma: no cover - validate() rejects unknown experiments
        raise ConfigError(f"unhandled experiment {exp!r}")

    out = Path(output_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts["manifest.txt"] = _manifest(cfg, seed, threads, config_text)
    for name, text in sorted(artifacts.items()):
        (out / name).write_text(text)
    return artifacts


def _manifest(cfg: RunConfig, seed: int, threads: int, config_text: str) -> str:
    lines = [f"{k}={v}" for k, v in cfg.manifest_items()]
    lines.append(f"input_sha256={config_hash(config_text)}")
    lines.append(f"seed={seed}")
    lines.append(f"threads={threads}")
    lines.append(f"version={__version__}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracfield",
        description="Fractional Cahn-Hilliard experiments from a key=value config.",
    )
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--threads", type=int, default=1, help="worker cap for sweeps")
    parser.add_argument("--output", default=None, help="artifact directory")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        run(cfg, output_dir=args.output, threads=args.threads, config_text=text)
    except (NewtonDivergenceError, SolverDivergenceError,
            stationary.NoConvergenceError, spectral.NoConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except CheckViolationError as exc:
        print(f"check violation: {exc}", file=sys.stderr)
        return 3
    return 0


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
