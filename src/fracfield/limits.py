"""Singular-limit experiments: sigma -> 0 (Cahn-Hilliard to porous medium /
fast diffusion) and s -> 0 (Cahn-Hilliard to Allen-Cahn).

Each experiment reruns the Cahn-Hilliard solver along a decreasing sequence
of fractional orders against a fixed reference trajectory and reports
trajectory distances: space-time L2 for the sigma-limits, max-in-time L2 for
the s-limit.  All runs in a report share grid, time step, horizon and
initial datum so that only the operator order varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Flow, SolverSettings, Trajectory, evolve
from .fracop import assemble
from .grid import Domain1D, Field, lp_norm
from .potential import PotentialParams
from .spectral import EIG_TOL, first_eigenpair


class CompatibilityError(ValueError):
    """p violates the fast-diffusion compatibility condition p > 2N/(N+2s)."""


@dataclass(frozen=True)
class LimitReport:
    parameter_sequence: list[float]
    distances: list[float]
    reference: str  # porous-medium | fast-diffusion | allen-cahn
    monotone: bool
    reduction_factor: float
    lambda1s: list[float] | None = None

    def __post_init__(self) -> None:
        seq = self.parameter_sequence
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ValueError("parameter sequence must be strictly decreasing")
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be nonnegative")

    def to_csv(self) -> str:
        cols = "param,distance" + (",lambda1" if self.lambda1s else "")
        lines = [cols]
        for k, (p, d) in enumerate(zip(self.parameter_sequence, self.distances)):
            row = f"{p:.17g},{d:.17g}"
            if self.lambda1s:
                row += f",{self.lambda1s[k]:.17g}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def _report(seq, dists, reference, lambda1s=None) -> LimitReport:
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    reduction = dists[-1] / dists[0] if dists and dists[0] > 0 else 0.0
    return LimitReport(
        parameter_sequence=list(seq),
        distances=[float(d) for d in dists],
        reference=reference,
        monotone=monotone,
        reduction_factor=float(reduction),
        lambda1s=lambda1s,
    )


def spacetime_l2_distance(a: Trajectory, b: Trajectory, tau: float) -> float:
    """(sum_n tau sum_i h (a_n,i - b_n,i)^2)^(1/2) over steps n >= 1."""
    h = a.domain.h
    acc = 0.0
    for ua, ub in zip(a.u[1:], b.u[1:]):
        acc += tau * h * float(np.sum((ua.values - ub.values) ** 2))
    return float(np.sqrt(acc))


def max_l2_distance(a: Trajectory, b: Trajectory) -> float:
    """max_n ||a_n - b_n||_L2 including the initial level."""
    return max(lp_norm(ua - ub, 2) for ua, ub in zip(a.u, b.u))


def limit_sigma_to_pm(
    domain: Domain1D,
    s: float,
    params: PotentialParams,
    u0: Field,
    sigmas: Sequence[float],
    settings: SolverSettings,
) -> LimitReport:
    """Coercive case p > 2: Cahn-Hilliard trajectories approach the
    porous-medium flow as sigma decreases to 0."""
    if params.p <= 2:
        raise ValueError(f"porous-medium limit needs p > 2, got {params.p}")
    op_s = assemble(domain, s)
    ref, _ = evolve(Flow(op_s, None, 0.0), params, u0, settings)

    def one(sigma: float) -> float:
        op_sigma = assemble(domain, sigma)
        traj, _ = evolve(Flow(op_s, op_sigma, params.lam), params, u0, settings)
        return spacetime_l2_distance(traj, ref, settings.tau)

    return _report(sigmas, [one(sigma) for sigma in sigmas], "porous-medium")


def limit_sigma_to_fd(
    domain: Domain1D,
    s: float,
    params: PotentialParams,
    u0: Field,
    sigmas: Sequence[float],
    settings: SolverSettings,
    eig_tol: float = EIG_TOL,
) -> LimitReport:
    """Fast-diffusion case p in (2_*, 2) with 2_* = 2N/(N+2s): the modified
    scheme (concave weight lambda1(sigma_k)) approaches the same limit.

    params.lam plays no part: the modified scheme uses lambda1(sigma_k) and
    the porous-medium reference has no concave term."""
    two_star = 2.0 / (1.0 + 2.0 * s)  # N = 1
    if not two_star < params.p < 2.0:
        raise CompatibilityError(
            f"need 2N/(N+2s) = {two_star:.6g} < p < 2, got p={params.p}"
        )
    op_s = assemble(domain, s)
    ref, _ = evolve(Flow(op_s, None, 0.0), params, u0, settings)

    def one(sigma: float) -> tuple[float, float]:
        op_sigma = assemble(domain, sigma)
        lam1 = float(first_eigenpair(op_sigma, eig_tol).lambda1)
        traj, _ = evolve(Flow(op_s, op_sigma, lam1), params, u0, settings)
        return spacetime_l2_distance(traj, ref, settings.tau), lam1

    pairs = [one(sigma) for sigma in sigmas]
    dists = [d for d, _ in pairs]
    lambda1s = [lam for _, lam in pairs]
    return _report(sigmas, dists, "fast-diffusion", lambda1s)


def limit_s_to_ac(
    domain: Domain1D,
    sigma: float,
    params: PotentialParams,
    u0: Field,
    ss: Sequence[float],
    settings: SolverSettings,
) -> LimitReport:
    """s -> 0 at fixed sigma: trajectories approach the Allen-Cahn flow in
    the max-in-time L2 metric."""
    op_sigma = assemble(domain, sigma)
    ref, _ = evolve(Flow(None, op_sigma, params.lam), params, u0, settings)

    def one(s: float) -> float:
        op_s = assemble(domain, s)
        traj, _ = evolve(Flow(op_s, op_sigma, params.lam), params, u0, settings)
        return max_l2_distance(traj, ref)

    return _report(ss, [one(s) for s in ss], "allen-cahn")


def operator_identity_limit(
    domain: Domain1D, v: Field, rs: Sequence[float]
) -> list[dict]:
    """Rows (r, ||M_c^(-1) A_r v - v|| / ||v||): the weak operator tends to
    the identity as r -> 0 (relative lumped-L2 gap on a fixed mesh)."""
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("rs must be strictly decreasing")
    rows = []
    nrm = lp_norm(v, 2)
    for r in rs:
        op = assemble(domain, r)
        w = op.mass_solve_vector(op.stiffness_vector(v.values))
        gap = lp_norm(Field(domain, w - v.values), 2) / nrm
        rows.append({"r": r, "relative_gap": float(gap)})
    return rows
