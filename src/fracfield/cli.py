"""Command-line front end: `fracfield <config> [--output DIR]`, DIR being
the artifact directory (default: the working directory).

The numerical modules return records, arrays and row dicts; every CSV
table is formatted here, by table_to_csv.  Artifacts are assembled in
memory and written only after the run and all runtime checks succeed, each
to a temporary file that os.replace then moves into place, so a failing run
or a failing write leaves no partial files.  Reruns of the same config
produce bit-identical CSVs; FRACFIELD_SEED (default 0) fixes the RNG used
for random starts and random initial data.

Exit codes: 0 success; 1 usage or configuration error (bad command line,
unreadable file, unknown key, value out of range, empty list, a key the
experiment does not use, or a FRACFIELD_SEED that is not a nonnegative
integer) or unwritable output directory; 2 solver failure, any
fracop.SolverError (Newton, eigen or stationary iteration stalled, stiffness
failed its sign or positivity gate, lowest stationary state not
one-signed); 3 violation of one
of the built-in inequality checks.  Each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # NumPy loads it on first use; every run seeds a generator

from . import __version__
from . import dynamics, limits, spectral, stationary
from .config import ConfigError, RunConfig, parse_config
from .dynamics import SolverSettings
from .fracop import SolverError, assemble
from .grid import Domain1D, Field, bump_field, lp_norm, sample
from .potential import PotentialParams


class CheckViolationError(RuntimeError):
    """A paper-derived inequality failed beyond its stated slack."""


class OutputError(RuntimeError):
    """The artifact directory could not be created or written."""


def _initial_field(cfg: RunConfig, domain: Domain1D, rng: np.random.Generator) -> Field:
    if cfg.initial == "bump":
        return bump_field(domain, cfg.amplitude)
    if cfg.initial == "sine":
        L = domain.length
        return cfg.amplitude * sample(
            domain, lambda x: np.sin(np.pi * (x - domain.a) / L)
        )
    return Field(domain, cfg.amplitude * rng.standard_normal(domain.M))


def _params(cfg: RunConfig) -> PotentialParams:
    return PotentialParams(p=cfg.p, lam=cfg.lam, delta=cfg.delta)


def _settings(cfg: RunConfig) -> SolverSettings:
    return SolverSettings(tau=cfg.tau, T=cfg.T, newton_tol=cfg.newton_tol)


# the columns of energy.csv, in order: the EnergyTrace arrays of those names
_TRACE_COLUMNS = ("t", "E_sigma", "E_tilde", "gagliardo_s_of_w", "dual_norm_u",
                 "l2_u", "lp_u", "step_slack")


def table_to_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """The one table writer: the header line, then one line per row, each a
    tuple with one value per header field; a str is written as it is and
    any other value as f"{v:.17g}" would write it.  The column formats are
    read off the first row and joined into one %-format string applied to
    every row.  The name keeps its to_csv suffix: benchmark/run.py counts
    the time of spans so named as cli.serialize_s."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return ",".join(header) + "\n"
    if len(first) != len(header):
        raise ValueError(f"{len(first)} values for {len(header)} columns")
    fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first)
    return "\n".join([",".join(header), fmt % first] + [fmt % row for row in rows]) + "\n"


def _dicts_to_csv(header: Sequence[str], rows: Iterable[dict]) -> str:
    return table_to_csv(header, (tuple(row[k] for k in header) for row in rows))


def _seed() -> int:
    text = os.environ.get("FRACFIELD_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"FRACFIELD_SEED must be a nonnegative integer, got {text!r}")
    return seed


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
    output_dir: str = ".",
    config_text: str = "",
) -> dict[str, str]:
    """Execute one experiment; returns {filename: contents} after writing."""
    seed = _seed()
    rng = np.random.default_rng(seed)
    domain = Domain1D(cfg.a, cfg.b, cfg.M)
    artifacts: dict[str, str] = {}
    slack_tol = 10.0 * cfg.newton_tol

    exp = cfg.experiment
    if exp.startswith("evolve-"):
        params = _params(cfg)
        u0 = _initial_field(cfg, domain, rng)
        # the config sets exactly the flow's orders (Allen-Cahn has no s,
        # porous medium no sigma); operators are immutable, so one serves both
        orders = dict.fromkeys(r for r in (cfg.s, cfg.sigma) if r is not None)
        ops = {r: assemble(domain, r) for r in orders}
        op_s, op_sigma = ops.get(cfg.s), ops.get(cfg.sigma)
        lam = 0.0 if op_sigma is None else params.lam
        if exp == "evolve-ch-modified":
            lam = spectral.first_eigenpair(op_sigma, cfg.eig_tol).lambda1
        traj, trace = dynamics.evolve(
            dynamics.Flow(op_s, op_sigma, lam), params, u0, _settings(cfg)
        )
        # E_tilde is E_sigma except in the modified scheme, where it is the
        # energy the scheme dissipates
        _check_trace_monotone(trace, "E_tilde", slack_tol)
        header = ["t"] + [f"u_{i}" for i in range(1, domain.M + 1)]
        # row by row: the whole table as Python floats would raise peak memory
        rows = ((t, *u) for t, u in zip(traj.times.tolist(), map(np.ndarray.tolist, traj.U)))
        artifacts["trajectory.csv"] = table_to_csv(header, rows)
        artifacts["energy.csv"] = table_to_csv(
            _TRACE_COLUMNS, zip(*(getattr(trace, c).tolist() for c in _TRACE_COLUMNS))
        )

    elif exp == "eigen-sweep":
        rows = spectral.lambda1_sweep(
            domain, cfg.sequence, cfg.refinements, eig_tol=cfg.eig_tol
        )
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
        artifacts["eigen.csv"] = _dicts_to_csv(
            ("r", "M", "lambda1", "lower", "upper", "residual"), rows
        )

    elif exp in ("limit-sigma", "limit-s"):
        params = _params(cfg)
        settings = _settings(cfg)
        u0 = _initial_field(cfg, domain, rng)
        if exp == "limit-sigma":
            report = limits.limit_sigma(domain, cfg.s, params, u0, cfg.sequence, settings,
                                        eig_tol=cfg.eig_tol)
        else:
            report = limits.limit_s_to_ac(
                domain, cfg.sigma, params, u0, cfg.sequence, settings
            )
        columns = [report.parameter_sequence, report.distances]
        if report.lambda1s:
            columns.append(report.lambda1s)
        artifacts["report.csv"] = table_to_csv(
            ["param", "distance", "lambda1"][:len(columns)], zip(*columns)
        )
        artifacts["report.txt"] = (
            f"reference={report.reference}\n"
            f"monotone={report.monotone}\n"
            f"reduction_factor={report.reduction_factor:.17g}\n"
        )

    elif exp == "stationary":
        params = _params(cfg)
        result = stationary.minimize_energy(
            assemble(domain, cfg.sigma), params, stat_tol=cfg.stat_tol, rng=rng,
            eig_tol=cfg.eig_tol,
        )
        u = result.u_star.values
        norm_u = lp_norm(result.u_star, 2)
        virial = (0.5 - 1.0 / cfg.p) * domain.h * float(np.sum(np.abs(u) ** cfg.p))
        identity_gap = abs(result.energy + virial)
        # J(u) + (1/2 - 1/p)||u||_p^p = (1/2) u . grad J(u) exactly, so by
        # Cauchy-Schwarz in the lumped norms the gap is at most
        # (1/2) residual ||u||_2.  The second term covers rounding in the
        # M-term sums that form J and ||u||_p^p.  The rounding of the
        # quadratic parts of J, which can cancel, is below the first term,
        # as the computed gradient cannot resolve them finer.
        bound = 0.5 * result.residual * norm_u + stationary.SUM_ROUNDING * (
            abs(result.energy) + virial
        )
        if identity_gap > bound:
            raise CheckViolationError(
                f"stationary energy identity off by {identity_gap:.3e} "
                f"(> {bound:.1e} from stat_tol)"
            )
        artifacts["stationary.csv"] = table_to_csv(
            ("sigma", "lambda1", "norm_u", "energy", "residual", "classification"),
            [(cfg.sigma, result.lambda1_sigma, norm_u, result.energy,
              result.residual, result.classification)],
        )
        if cfg.sequence:
            rows = stationary.stationary_sigma_sweep(
                domain, params, cfg.sequence, cfg.stat_tol, known=result,
                eig_tol=cfg.eig_tol,
            )
            artifacts["sweep.csv"] = _dicts_to_csv(
                ("sigma", "lambda1", "norm_u", "bound", "energy", "classification"), rows
            )

    elif exp == "operator-limit":
        u0 = _initial_field(cfg, domain, rng)
        rows = limits.operator_identity_limit(domain, u0, cfg.sequence)
        artifacts["operator_limit.csv"] = _dicts_to_csv(("r", "relative_gap"), rows)

    else:  # pragma: no cover - validate() rejects unknown experiments
        raise ConfigError(f"unhandled experiment {exp!r}")

    artifacts["manifest.txt"] = _manifest(cfg, seed, config_text)
    _write_atomic(Path(output_dir), artifacts)
    return artifacts


def _write_atomic(out: Path, artifacts: dict[str, str]) -> None:
    """Write every artifact to NAME.tmp in out, then os.replace each into
    place, so no artifact is ever partially written.  On OSError the
    temporary files are removed and OutputError is raised."""
    temps = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(artifacts.items()):
            temps.append(out / f"{name}.tmp")
            temps[-1].write_text(text)
        for tmp in temps:
            os.replace(tmp, tmp.with_suffix(""))
    except OSError as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        raise OutputError(f"cannot write artifacts: {exc}") from exc


def _manifest(cfg: RunConfig, seed: int, config_text: str) -> str:
    lines = [f"{k}={v}" for k, v in cfg.manifest_items()]
    lines.append(f"input_sha256={config_hash(config_text)}")
    lines.append(f"seed={seed}")
    lines.append(f"version={__version__}")
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line and exit 1 like a bad config, not argparse's usage text
        # and exit 2, which here means solver failure
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="fracfield",
        description="Fractional Cahn-Hilliard experiments from a key=value config.",
    )
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--output", default=".", help="artifact directory (default: .)")
    try:
        args = parser.parse_args(argv)
        text = Path(args.config).read_text()
        cfg = parse_config(text)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        run(cfg, output_dir=args.output, config_text=text)
    except (ConfigError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
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
