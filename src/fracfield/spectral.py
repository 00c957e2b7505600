"""First eigenpair of the fractional stiffness and analytic eigenvalue bounds.

The generalized problem A x = lambda M_c x is solved by inverse power
iteration with Cholesky-backed solves; only the extremal pair (and, for the
gap diagnostic, a deflated second value) is ever needed.  The analytic
bounds are the interpolation-based lower bound and the classical upper
bound lambda1^r with lambda1 = pi^2/L^2 for an interval of length L.
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


def _rel_residual(op: FracOperator, x: np.ndarray, lam: float) -> float:
    res = op.A @ x - lam * (op.M_c @ x)
    return float(np.linalg.norm(res) / (lam * np.linalg.norm(op.M_c @ x)))


def first_eigenpair(
    op: FracOperator, eig_tol: float = EIG_TOL, maxit: int = EIG_MAXIT
) -> EigenPair:
    """Smallest eigenpair of A x = lambda M_c x by inverse power iteration."""
    M = op.domain.M
    x = np.ones(M)
    x /= np.sqrt(x @ (op.M_c @ x))
    lam = float(x @ (op.A @ x))
    for _ in range(maxit):
        y = op.solve_vector(op.M_c @ x)
        y /= np.sqrt(y @ (op.M_c @ y))
        lam = float(y @ (op.A @ y))
        x = y
        if _rel_residual(op, x, lam) <= eig_tol:
            break
    else:
        raise NoConvergenceError(f"inverse iteration stalled at r={op.r}")
    if np.sum(x) < 0:
        x = -x
    return EigenPair(op.r, lam, Field(op.domain, x), _rel_residual(op, x, lam))


def second_eigenvalue(
    op: FracOperator, pair: EigenPair, eig_tol: float = EIG_TOL, maxit: int = EIG_MAXIT
) -> float:
    """Second-smallest eigenvalue via inverse iteration deflated against e1."""
    e1 = pair.e1.values
    M = op.domain.M
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(M)

    def project_out(v: np.ndarray) -> np.ndarray:
        return v - (v @ (op.M_c @ e1)) * e1

    x = project_out(x)
    x /= np.sqrt(x @ (op.M_c @ x))
    lam = float(x @ (op.A @ x))
    for _ in range(maxit):
        y = op.solve_vector(op.M_c @ x)
        y = project_out(y)
        y /= np.sqrt(y @ (op.M_c @ y))
        lam = float(y @ (op.A @ y))
        x = y
        if _rel_residual(op, x, lam) <= max(eig_tol, 1e-12):
            break
    else:
        raise NoConvergenceError("deflated iteration stalled")
    return lam


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
        pair = first_eigenpair(assemble(dom, r))
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
