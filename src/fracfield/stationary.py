"""Stationary states: global minimization of the free energy, the smallness
bound on nontrivial states and their sweep over sigma.

A stationary state solves A_sigma u + M_L beta(u) - lam M_c u = 0 (the
discrete weak form with the chemical potential identically zero).  That is
exactly the gradient of the discrete objective

    J(u) = (1/2) u^T A_sigma u + h sum_i beta_hat(u_i) - (lam/2) u^T M_c u,

so converged minimizers satisfy the virial identity
J(u*) = -(1/2 - 1/p) sum_i h |u*_i|^p to machine precision, and stationary
states are exact fixed points of the Allen-Cahn stepper.  Nontrivial
minimizers exist iff lambda1(sigma) < lam (lam = 1 in the original system);
each is one-signed and obeys the smallness bound derived from the
coercivity radius.  The criterion is read off the results: a
StationaryResult classifies its state, and the sweep's bound column is
defined only where lambda1(sigma) < lam.  J and its gradient come from one
call, _energy_and_gradient, which takes one stiffness and one mass product
and forms the gradient only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import potential as pot
from .dynamics import NewtonDivergenceError, _newton_minimize, _newton_operator, _scaled_res
from .fracop import FracOperator, NoConvergenceError, OutOfRangeError, SolverError, assemble
from .grid import Domain1D, DomainMismatchError, Field, lp_norm
from .potential import PotentialParams
from .spectral import EIG_TOL, first_eigenpair

STAT_TOL = 1e-9
# relative rounding of an M-term float sum, such as J or ||u||_p^p: a few
# log2(M) eps under pairwise summation, and 64 covers log2(M) <= 32 twice over
SUM_ROUNDING = 64 * np.finfo(float).eps
_TRIVIAL_NORM = 1e-7
_MAX_ITER = 5000


class NotOneSignedError(SolverError):
    """The lowest-energy stationary point found changes sign."""


@dataclass(frozen=True)
class StationaryResult:
    sigma: float
    u_star: Field
    energy: float
    residual: float
    lambda1_sigma: float
    # trivial | nontrivial-positive | nontrivial-negative; of a mirror pair
    # +-u*, the default starts report the positive state
    classification: str


def smallness_bound(
    params: PotentialParams, lambda1_sigma: float, vol_omega: float
) -> float:
    """Radius ((p/2) |Omega|^((p-2)/2) (lam - lambda1))^(1/(p-2)) with
    lam = params.lam; every nontrivial minimizer of J has L2 norm strictly
    below it.

    A nontrivial minimizer u has J(u) < J(0) = 0.  With u^T A_sigma u >=
    lambda1 u^T M_c u, the lumped potential h sum |u_i|^p / p and
    u^T M_c u <= ||u||_2^2 (lumped norms throughout), J(u) < 0 gives
    ||u||_p^p < (p/2)(lam - lambda1) ||u||_2^2, and the lumped Hoelder
    inequality ||u||_2^p <= |Omega|^((p-2)/2) ||u||_p^p turns this into
    ||u||_2^(p-2) < (p/2) |Omega|^((p-2)/2) (lam - lambda1).  Defined only
    when lambda1 < lam.
    """
    if params.p <= 2:
        raise OutOfRangeError("smallness bound requires the coercive case p > 2")
    if lambda1_sigma >= params.lam:
        raise OutOfRangeError(
            f"bound defined only for lambda1 < lam = {params.lam}, got {lambda1_sigma}"
        )
    p = params.p
    return float(
        ((p / 2.0) * vol_omega ** ((p - 2.0) / 2.0) * (params.lam - lambda1_sigma))
        ** (1.0 / (p - 2.0))
    )


def _energy_and_gradient(
    op: FracOperator, params: PotentialParams, u: np.ndarray
) -> tuple[float, Callable[[], np.ndarray]]:
    """J(u), from one stiffness_vector and one mass_vector, and a function
    that forms its gradient A_sigma u + h beta(u) - lam M_c u from the same
    two products, so a caller that rejects u never pays for it."""
    h = op.domain.h
    Au, Mu = op.stiffness_vector(u), op.mass_vector(u)
    J = 0.5 * (u @ Au) + h * np.sum(pot.beta_hat(params, u)) - 0.5 * params.lam * (u @ Mu)
    return float(J), lambda: Au + h * pot.beta(params, u) - params.lam * Mu


def _descend(
    op: FracOperator,
    params: PotentialParams,
    u0: np.ndarray,
    stat_tol: float,
    direction: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, float] | None:
    """Barzilai-Borwein descent with backtracking, then the shared damped
    Newton on J with the given direction; None where that diverges."""
    h = op.domain.h
    u = u0.copy()
    f, gradient = _energy_and_gradient(op, params, u)
    g = gradient()
    res = _scaled_res(g, h)
    if res <= stat_tol:
        return u, res
    step = 1.0 / max(1.0, op.stiffness_norm_inf())
    u_old, g_old = None, None
    for _ in range(_MAX_ITER):
        if u_old is not None:
            s = u - u_old
            y = g - g_old
            sy = float(s @ y)
            step = float(s @ s) / sy if sy > 0 else step
            step = min(max(step, 1e-12), 1e3)
        t = step
        for _ls in range(60):
            un = u - t * g
            fn, gradient = _energy_and_gradient(op, params, un)
            if fn <= f - 1e-4 * t * float(g @ g):
                break
            t *= 0.5
        else:
            break
        u_old, g_old = u, g
        u, f, g = un, fn, gradient()
        res = _scaled_res(g, h)
        if res <= 1e-4 or res <= stat_tol:
            break

    try:
        u, _, res = _newton_minimize(
            lambda v: _energy_and_gradient(op, params, v)[1](), direction, u, stat_tol, h
        )
    except NewtonDivergenceError:
        return None
    return u, res


def _classify(u: np.ndarray, h: float) -> str:
    if np.sqrt(h * np.sum(u**2)) <= _TRIVIAL_NORM:
        return "trivial"
    if np.min(u) > 0:
        return "nontrivial-positive"
    if np.max(u) < 0:
        return "nontrivial-negative"
    # excited states reachable from random starts; never the global minimizer
    return "nontrivial-mixed"


def minimize_energy(
    op_sigma: FracOperator,
    params: PotentialParams,
    starts: Sequence[Field] | None = None,
    stat_tol: float = STAT_TOL,
    rng: np.random.Generator | None = None,
    eig_tol: float = EIG_TOL,
) -> StationaryResult:
    """Multi-start descent on the discrete free energy (coercive case p > 2).

    Default starts, in order: 0, +eps e1 and a random field from rng
    (default seed 0), eps making the energy of the eigen-direction negative
    whenever lambda1(sigma) < lam.  J is even, so -eps e1 would only reach
    the mirror of the +eps e1 state; the random start can find a lower or
    mixed state where no discrete maximum principle holds (sigma below
    about 0.235).  The winner is the first start whose energy lies within
    SUM_ROUNDING |J_min| of the lowest, J_min, so a rounding-level tie goes
    to the earlier start, whatever the random field.

    Newton directions use the exact potential (delta = 0) whatever
    params.delta; one dynamics._newton_operator on K = A_sigma - lam M_c
    serves every start.  K is applied by FFT and mass products at every M,
    and nothing is factored.
    """
    if params.p <= 2:
        raise OutOfRangeError("stationary minimization requires p > 2")
    dom = op_sigma.domain
    h = dom.h
    pair = first_eigenpair(op_sigma, eig_tol)
    lam1 = pair.lambda1

    if starts is None:
        if params.lam > 0 and lam1 < params.lam:
            lp_p = h * float(np.sum(np.abs(pair.e1.values) ** params.p))
            eps = 0.5 * (
                params.p * (params.lam - lam1) / (2.0 * lp_p)
            ) ** (1.0 / (params.p - 2.0))
        else:
            eps = 1e-3
        if rng is None:
            rng = np.random.default_rng(0)
        starts = [
            Field(dom, np.zeros(dom.M)),
            eps * pair.e1,
            Field(dom, 0.1 * rng.standard_normal(dom.M)),
        ]

    _, direction = _newton_operator(None, op_sigma, None, replace(params, delta=0.0), [0, 0])
    candidates = []  # (energy, u, residual) in start order
    for s in starts:
        out = _descend(op_sigma, params, s.values, stat_tol, direction)
        if out is not None:
            u, res = out
            candidates.append((_energy_and_gradient(op_sigma, params, u)[0], u, res))
    if not candidates:
        raise NoConvergenceError("no start converged to a stationary point")
    lowest = min(c[0] for c in candidates)
    en, u, res = next(c for c in candidates if c[0] <= lowest + SUM_ROUNDING * abs(lowest))
    cls = _classify(u, h)
    if cls == "nontrivial-mixed":
        raise NotOneSignedError("lowest-energy stationary point is not one-signed")
    return StationaryResult(
        sigma=op_sigma.r,
        u_star=Field(dom, u),
        energy=en,
        residual=res,
        lambda1_sigma=lam1,
        classification=cls,
    )


def stationary_sigma_sweep(
    domain: Domain1D,
    params: PotentialParams,
    sigmas: Sequence[float],
    stat_tol: float = STAT_TOL,
    known: StationaryResult | None = None,
    eig_tol: float = EIG_TOL,
) -> list[dict]:
    """Rows (sigma, lambda1, norm_u, bound, energy, classification); states
    shrink to zero as sigma decreases toward 0 (lambda1 -> 1).

    A known result on the same domain, computed with the same params and
    tolerances, serves as the row of its own order; every other order is
    assembled and minimized here from the default starts.
    """
    if known is not None and known.u_star.domain != domain:
        raise DomainMismatchError(f"{known.u_star.domain} != {domain}")
    rows = []
    for sigma in sigmas:
        if known is not None and known.sigma == sigma:
            result = known
        else:
            result = minimize_energy(
                assemble(domain, sigma), params, stat_tol=stat_tol, eig_tol=eig_tol
            )
        lam1 = result.lambda1_sigma
        bound = (
            smallness_bound(params, lam1, domain.length)
            if lam1 < params.lam else np.nan
        )
        rows.append(
            {
                "sigma": sigma,
                "lambda1": lam1,
                "norm_u": lp_norm(result.u_star, 2),
                "bound": bound,
                "energy": result.energy,
                "classification": result.classification,
            }
        )
    return rows
