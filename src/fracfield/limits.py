"""Singular-limit experiments: sigma -> 0 (Cahn-Hilliard to porous medium /
fast diffusion) and s -> 0 (Cahn-Hilliard to Allen-Cahn).

Each experiment marches the Cahn-Hilliard flow along a decreasing sequence
of fractional orders against a fixed reference flow and reports distances
between the levels u_n: space-time L2 for the sigma-limits, max-in-time L2
for the s-limit.  They need u alone, so no run recovers w or an energy
trace.  All runs in a report share grid, time step, horizon and initial
datum so that only the operator order varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Flow, SolverSettings, _csv, march
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
        columns = [self.parameter_sequence, self.distances]
        if self.lambda1s:
            columns.append(self.lambda1s)
        return _csv("param,distance" + (",lambda1" if self.lambda1s else ""), zip(*columns))


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


def spacetime_l2_distance(a: np.ndarray, b: np.ndarray, tau: float, h: float) -> float:
    """(sum_n tau sum_i h (a_n,i - b_n,i)^2)^(1/2) over the levels n >= 1 of
    two marches (rows of a and b); the levels are summed in order."""
    levels = tau * h * np.sum((a[1:] - b[1:]) ** 2, axis=1)
    return float(np.sqrt(np.cumsum(levels)[-1]))


def max_l2_distance(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """max_n ||a_n - b_n||_L2 (lumped) over all levels of two marches."""
    return float((h * np.max(np.sum((a - b) ** 2, axis=1))) ** 0.5)


def _sigma_limit(domain, s, params, u0, sigmas, settings, concave):
    """Space-time L2 distances of the Cahn-Hilliard marches along sigmas to
    the porous-medium march, and their concave weights concave(A_sigma)."""
    op_s = assemble(domain, s)
    ref, _ = march(Flow(op_s, None, 0.0), params, u0, settings)
    lams = []

    def one(sigma: float) -> float:  # frees its operator and march before the next
        op_sigma = assemble(domain, sigma)
        lams.append(concave(op_sigma))
        U, _ = march(Flow(op_s, op_sigma, lams[-1]), params, u0, settings)
        return spacetime_l2_distance(U, ref, settings.tau, domain.h)

    return [one(sigma) for sigma in sigmas], lams


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
    dists, _ = _sigma_limit(domain, s, params, u0, sigmas, settings, lambda op: params.lam)
    return _report(sigmas, dists, "porous-medium")


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
    dists, lambda1s = _sigma_limit(domain, s, params, u0, sigmas, settings,
                                   lambda op: float(first_eigenpair(op, eig_tol).lambda1))
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
    ref, _ = march(Flow(None, op_sigma, params.lam), params, u0, settings)

    def one(s: float) -> float:
        op_s = assemble(domain, s)
        U, _ = march(Flow(op_s, op_sigma, params.lam), params, u0, settings)
        return max_l2_distance(U, ref, domain.h)

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
