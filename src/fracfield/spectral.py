"""First eigenpair of the fractional stiffness and analytic eigenvalue bounds.

The generalized problem A x = lambda M_c x is solved by inverse power
iteration with Cholesky-backed solves; only the extremal pair is ever
needed.  One sweep costs one solve with the cached dense factor and one dense
product A y, O(M^2) each, plus O(M) tridiagonal mass products: A y gives
both the Rayleigh quotient and the residual A y - lambda M_c y, and M_c y is
carried into the next sweep's right-hand side.  The analytic bounds are the
interpolation-based lower bound and the classical upper bound lambda1^r with
lambda1 = pi^2/L^2 for an interval of length L.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .fracop import FracOperator, OutOfRangeError, assemble
from .grid import Domain1D, Field

EIG_TOL = 1e-10
EIG_MAXIT = 10000

_UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi}


_T = TypeVar("_T")
_S = TypeVar("_S")


def _ordered_map(fn: Callable[[_T], _S], items: Sequence[_T], max_workers: int) -> list[_S]:
    # runs are independent; results come back in parameter order either way,
    # so sweeps and reports are deterministic regardless of scheduling
    if max_workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))


class NoConvergenceError(RuntimeError):
    """Eigeniteration hit the iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class EigenPair:
    """First eigenvalue and its positive, M_c-normalized eigenfunction."""

    r: float
    lambda1: float
    e1: Field
    residual: float


@dataclass(frozen=True)
class EigenBounds:
    r: float
    lower: float
    upper: float
    kappa: float


def dirichlet_lambda1(domain: Domain1D) -> float:
    """First eigenvalue of the standard Dirichlet Laplacian on the interval."""
    return (np.pi / domain.length) ** 2


def kappa(N: int, alpha: float) -> float:
    """Interpolation constant alpha^(-a/(a+N)) (a+N) N^(-N/(N+a)) d^(a/(N+a)).

    d = d(N) is the volume of the unit ball (2 for N = 1, pi for N = 2).
    kappa(N, alpha) -> 1 as alpha -> 0.
    """
    if alpha <= 0:
        raise OutOfRangeError(f"need alpha > 0, got {alpha}")
    if N not in _UNIT_BALL_VOLUME:
        raise OutOfRangeError(f"unit-ball volume tabulated for N in (1, 2), got {N}")
    d = _UNIT_BALL_VOLUME[N]
    # alpha^(-a/(a+N)) d^(a/(N+a)) combined as (d/alpha)^(a/(N+a)) for accuracy
    return float(
        (d / alpha) ** (alpha / (alpha + N))
        * (alpha + N)
        * N ** (-N / (N + alpha))
    )


def lambda1_lower_bound(r: float, N: int, vol_omega: float) -> float:
    """kappa(N, 2r)^(-(N+2r)/N) ((2 pi)^N / |Omega|)^(2r/N); tends to 1 as r -> 0."""
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    if vol_omega <= 0:
        raise OutOfRangeError(f"need |Omega| > 0, got {vol_omega}")
    k = kappa(N, 2.0 * r)
    return float(
        k ** (-(N + 2.0 * r) / N) * ((2.0 * np.pi) ** N / vol_omega) ** (2.0 * r / N)
    )


def first_eigenpair(
    op: FracOperator, eig_tol: float = EIG_TOL, maxit: int = EIG_MAXIT
) -> EigenPair:
    """Smallest eigenpair of A x = lambda M_c x by inverse power iteration;
    the residual is ||A x - lambda M_c x|| / (lambda ||M_c x||) of the last
    sweep."""
    x = np.ones(op.domain.M)
    Mx = op.mass_vector(x)
    norm = np.sqrt(x @ Mx)
    x, Mx = x / norm, Mx / norm
    for _ in range(maxit):
        y = op.solve_vector(Mx)
        My = op.mass_vector(y)
        norm = np.sqrt(y @ My)
        x, Mx = y / norm, My / norm
        Ax = op.stiffness_vector(x)
        lam = float(x @ Ax)
        res = float(np.linalg.norm(Ax - lam * Mx) / (lam * np.linalg.norm(Mx)))
        if res <= eig_tol:
            break
    else:
        raise NoConvergenceError(f"inverse iteration stalled at r={op.r}")
    if np.sum(x) < 0:
        x = -x
    return EigenPair(op.r, lam, Field(op.domain, x), res)


def eigen_bounds(domain: Domain1D, r: float) -> EigenBounds:
    lam_d = dirichlet_lambda1(domain)
    return EigenBounds(
        r=r,
        lower=lambda1_lower_bound(r, 1, domain.length),
        upper=lam_d**r,
        kappa=kappa(1, 2.0 * r),
    )


def lambda1_sweep(
    domain: Domain1D,
    rs: Sequence[float],
    refinements: Sequence[int] | None = None,
    max_workers: int = 1,
    eig_tol: float = EIG_TOL,
) -> list[dict]:
    """Rows (r, M, lambda1, lower, upper, residual) over orders and meshes.

    Rows are independent eigensolves and may run on a thread pool; the
    result order is fixed by the (M, r) task list either way.
    """
    if refinements is None:
        refinements = [domain.M]
    tasks = [(int(M), float(r)) for M in refinements for r in rs]

    def one(task: tuple[int, float]) -> dict:
        M, r = task
        dom = Domain1D(domain.a, domain.b, M)
        pair = first_eigenpair(assemble(dom, r), eig_tol)
        return {
            "r": r,
            "M": M,
            "lambda1": pair.lambda1,
            "lower": lambda1_lower_bound(r, 1, dom.length),
            "upper": dirichlet_lambda1(dom) ** r,
            "residual": pair.residual,
        }

    return _ordered_map(one, tasks, max_workers)


def sweep_to_csv(rows: Sequence[dict]) -> str:
    lines = ["r,M,lambda1,lower,upper,residual"]
    for row in rows:
        lines.append(
            f"{row['r']:.17g},{row['M']},{row['lambda1']:.17g},"
            f"{row['lower']:.17g},{row['upper']:.17g},{row['residual']:.17g}"
        )
    return "\n".join(lines) + "\n"
