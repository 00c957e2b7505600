"""First eigenpair of the fractional stiffness and analytic eigenvalue bounds.

The generalized problem A x = lambda M_c x is solved by LOBPCG with block
size one (Knyazev, SIAM J. Sci. Comput. 23, 2001), preconditioned by the
inverse of the natural tau approximation of A (Bini & Di Benedetto, SPAA
1990), which fits a symbol with a zero at the origin better than a circulant
(Serra-Capizzano, Math. Comp. 68, 1999).  It starts from sin(pi j/(M+1)),
an eigenvector of tau(A) and of M_c, and reads the operator through its
vector methods only; no dense matrix is formed.  The analytic bounds are the
interpolation-based lower bound and the classical upper bound lambda1^r
with lambda1 = pi^2/L^2 for an interval of length L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fracop import FracOperator, NoConvergenceError, OutOfRangeError, assemble
from .grid import Domain1D, Field

EIG_TOL = 1e-10
EIG_MAXIT = 10000

_UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi}


@dataclass(frozen=True)
class EigenPair:
    """First eigenvalue and its positive, M_c-normalized eigenfunction."""

    r: float
    lambda1: float
    e1: Field
    residual: float


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


def _append_orthonormal(
    op: FracOperator, S: list[np.ndarray], BS: list[np.ndarray], v: np.ndarray
) -> None:
    """Append v to the M_c-orthonormal vectors S (BS their M_c products)
    after two classical Gram-Schmidt passes; a v that S spans to rounding is
    dropped."""
    n0 = np.sqrt(v @ op.mass_vector(v))
    for _ in range(2):
        v = v - sum((b @ v) * s for s, b in zip(S, BS))
    Bv = op.mass_vector(v)
    n = np.sqrt(v @ Bv)
    if n > 1e-10 * n0:
        S.append(v / n)
        BS.append(Bv / n)


def first_eigenpair(
    op: FracOperator, eig_tol: float = EIG_TOL, maxit: int = EIG_MAXIT
) -> EigenPair:
    """Smallest eigenpair of A x = lambda M_c x by preconditioned LOBPCG.

    Each iteration projects the pencil onto span{x, w, p} (the M_c-normalized
    iterate, its preconditioned residual w = tau(A)^(-1) (A x - lambda M_c x)
    and the previous step p, made M_c-orthonormal) and keeps the lowest Ritz
    pair.  The residual is the normwise backward error

        ||A x - lambda M_c x||_inf / ((||A||_inf + lambda ||M_c||_inf) ||x||_inf),

    with ||M_c||_inf = h; the iteration stops once it is at most eig_tol.
    Unlike the residual relative to lambda ||M_c x||, it has a roundoff floor
    near machine precision at every mesh size.
    """
    h = op.domain.h
    norm_A = op.stiffness_norm_inf()
    x = np.sin(np.pi * np.arange(1, op.domain.M + 1) / (op.domain.M + 1))
    x /= np.sqrt(x @ op.mass_vector(x))
    p = None
    for _ in range(maxit):
        Ax, Bx = op.stiffness_vector(x), op.mass_vector(x)
        lam = float(x @ Ax)
        R = Ax - lam * Bx
        res = float(np.abs(R).max() / ((norm_A + lam * h) * np.abs(x).max()))
        if res <= eig_tol:
            break
        S, BS = [x], [Bx]
        _append_orthonormal(op, S, BS, op.tau_solve_vector(R))
        if p is not None:
            _append_orthonormal(op, S, BS, p)
        AS = np.column_stack([Ax] + [op.stiffness_vector(v) for v in S[1:]])
        S = np.column_stack(S)
        H = S.T @ AS
        z = np.linalg.eigh(0.5 * (H + H.T))[1][:, 0]
        x, p = S @ z, S[:, 1:] @ z[1:]
        x /= np.sqrt(x @ op.mass_vector(x))
    else:
        raise NoConvergenceError(
            f"LOBPCG stalled at r={op.r}, backward error {res:.3e}"
        )
    if np.sum(x) < 0:
        x = -x
    return EigenPair(op.r, lam, Field(op.domain, x), res)


def lambda1_sweep(
    domain: Domain1D,
    rs: Sequence[float],
    refinements: Sequence[int] | None = None,
    eig_tol: float = EIG_TOL,
) -> list[dict]:
    """Rows (r, M, lambda1, lower, upper, residual) over orders and meshes,
    mesh-major."""
    if refinements is None:
        refinements = [domain.M]

    def one(M: int, r: float) -> dict:
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

    return [one(int(M), float(r)) for M in refinements for r in rs]
