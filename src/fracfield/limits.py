"""Singular-limit experiments: sigma -> 0, Cahn-Hilliard to porous medium
(p > 2) or to fast diffusion (2N/(N+2s) < p < 2), one theorem and one
driver, limit_sigma, that reads the regime off p; and s -> 0, Cahn-Hilliard
to Allen-Cahn.

Each experiment marches the Cahn-Hilliard flow along a decreasing sequence
of fractional orders against a fixed reference flow and reports distances
between the levels u_n: space-time L2 for the sigma-limits, max-in-time L2
for the s-limit.  They need u alone, so no run recovers w or an energy
trace.  All runs in a report share grid, time step, horizon and initial
datum so that only the operator order varies.  A LimitReport stores the
sequence and its distances; its verdicts, monotone and reduction_factor,
are computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Flow, SolverSettings, march
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
    lambda1s: list[float] | None = None

    def __post_init__(self) -> None:
        seq = self.parameter_sequence
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ValueError("parameter sequence must be strictly decreasing")
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be nonnegative")

    @property
    def monotone(self) -> bool:
        """Each distance strictly below the one before."""
        d = self.distances
        return all(b < a for a, b in zip(d, d[1:]))

    @property
    def reduction_factor(self) -> float:
        """The last distance over the first; 0 when the first is 0."""
        d = self.distances
        return float(d[-1] / d[0]) if d and d[0] > 0 else 0.0


def spacetime_l2_distance(a: np.ndarray, b: np.ndarray, tau: float, h: float) -> float:
    """(sum_n tau sum_i h (a_n,i - b_n,i)^2)^(1/2) over the levels n >= 1 of
    two marches (rows of a and b); the levels are summed in order."""
    levels = tau * h * np.sum((a[1:] - b[1:]) ** 2, axis=1)
    return float(np.sqrt(np.cumsum(levels)[-1]))


def max_l2_distance(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """max_n ||a_n - b_n||_L2 (lumped) over all levels of two marches."""
    return float((h * np.max(np.sum((a - b) ** 2, axis=1))) ** 0.5)


def limit_sigma(
    domain: Domain1D,
    s: float,
    params: PotentialParams,
    u0: Field,
    sigmas: Sequence[float],
    settings: SolverSettings,
    eig_tol: float = EIG_TOL,
) -> LimitReport:
    """sigma -> 0: space-time L2 distances of the Cahn-Hilliard marches
    along sigmas to the porous-medium march of order s; p picks the regime.

    p > 2 (coercive): the concave weight is params.lam, and the reference
    is porous-medium.  2_* < p < 2 with 2_* = 2N/(N+2s): the modified
    scheme takes the weight lambda1(sigma_k), recorded in lambda1s, so
    params.lam plays no part, and the reference is fast-diffusion.
    CompatibilityError for p <= 2_*, before any operator is assembled."""
    fast = params.p < 2.0
    two_star = 2.0 / (1.0 + 2.0 * s)  # N = 1
    if fast and params.p <= two_star:
        raise CompatibilityError(
            f"need 2N/(N+2s) = {two_star:.6g} < p < 2, got p={params.p}"
        )
    op_s = assemble(domain, s)
    ref, _ = march(Flow(op_s, None, 0.0), params, u0, settings)
    lambda1s = [] if fast else None

    def one(sigma: float) -> float:  # frees its operator and march before the next
        op_sigma = assemble(domain, sigma)
        if fast:
            lambda1s.append(float(first_eigenpair(op_sigma, eig_tol).lambda1))
        lam = lambda1s[-1] if fast else params.lam
        U, _ = march(Flow(op_s, op_sigma, lam), params, u0, settings)
        return spacetime_l2_distance(U, ref, settings.tau, domain.h)

    dists = [one(sigma) for sigma in sigmas]
    return LimitReport(list(sigmas), dists,
                       "fast-diffusion" if fast else "porous-medium", lambda1s)


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

    return LimitReport(list(ss), [one(s) for s in ss], "allen-cahn")


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
