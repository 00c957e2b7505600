"""Galerkin discretization of the weak fractional Laplacian with solid
Dirichlet exterior condition.

The bilinear form is

    a_r(u, v) = (C(r)/2) * iint_{R x R} (u(x)-u(y)) (v(x)-v(y))
                                        |x-y|^(-1-2r) dx dy,

evaluated on P1 hat functions that are extended by zero outside Omega.  The
double integral splits into Omega x Omega panel pairs plus the exterior tail
rho(x) = int_{Omega^c} |x-y|^(-1-2r) dy = ((x-a)^(-2r) + (b-x)^(-2r)) / (2r),
which is available in closed form in 1D.  Panel pairs are handled by

  * identical panels: the hat differences are pure slopes, so the pair
    integral reduces to iint |x-y|^(1-2r) = 2 h^(3-2r) / ((2-2r)(3-2r));
  * vertex-sharing panels: a Duffy split along the diagonal turns the
    corner singularity into the exact radial factor h^(3-2r)/(3-2r) times
    smooth weight integrals int_0^1 w^j (1+w)^(-1-2r) dw;
  * separated panels: tensor Gauss quadrature, translation invariance makes
    one 4x4 interaction block per gap suffice for the whole row of pairs.

The normalizing constant C(r, N) is computed from its defining integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gamma, roots_legendre

from .grid import Domain1D, DomainMismatchError, Field

QUAD_TOL = 1e-8
LIN_TOL = 1e-10

_GAUSS_N_PAIR = 10  # per-dimension order for separated panel pairs
_GAUSS_N_TAIL = 16  # order for nonsingular tail panels


class OutOfRangeError(ValueError):
    """Fractional order outside (0, 1)."""


class NotSPDError(RuntimeError):
    """Stiffness matrix failed the Cholesky positivity check."""


class AssemblyError(RuntimeError):
    """Assembled matrix violates its sign structure beyond quad_tol."""


class SolverDivergenceError(RuntimeError):
    """A linear solve did not reach the requested residual."""


@dataclass(frozen=True)
class KernelConstant:
    """Normalizing constant C(r, N) of the singular kernel."""

    r: float
    N: int
    value: float


def _head_series(r: float) -> float:
    # int_0^1 (1 - cos z) z^(-1-2r) dz expanded termwise; the alternating
    # series 1-cos z = sum (-1)^(k+1) z^(2k)/(2k)! integrates to the terms
    # below and converges to machine precision within ~30 terms.
    s = 0.0
    fact = 1.0
    for k in range(1, 40):
        fact *= (2 * k - 1) * (2 * k)
        s += (-1) ** (k + 1) / (fact * (2 * k - 2 * r))
    return s


def kernel_constant(r: float, N: int = 1) -> KernelConstant:
    """C(r, N) = (int (1 - cos z1)/|z|^(N+2r) dz)^(-1).

    For N = 1 the defining integral is split at |z| = 1: the head is summed
    as a Taylor series (exact to machine precision), the tail is the exact
    power-law integral 1/(2r) minus an oscillatory Fourier-cosine integral
    evaluated by adaptive quadrature.  For N >= 2 the standard closed form
    in terms of Gamma functions is used instead.
    """
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    if N == 1:
        head = _head_series(r)
        osc, _err = quad(
            lambda z: z ** (-1.0 - 2.0 * r), 1.0, np.inf, weight="cos", wvar=1.0
        )
        total = 2.0 * (head + 1.0 / (2.0 * r) - osc)
        return KernelConstant(r, 1, 1.0 / total)
    value = (
        r * (1.0 - r) * 4.0**r * gamma(N / 2.0 + r)
        / (np.pi ** (N / 2.0) * gamma(2.0 - r))
    )
    return KernelConstant(r, N, float(value))


def _consistent_mass(M: int, h: float) -> np.ndarray:
    Mc = np.zeros((M, M))
    idx = np.arange(M)
    Mc[idx, idx] = 4.0
    Mc[idx[:-1], idx[:-1] + 1] = 1.0
    Mc[idx[:-1] + 1, idx[:-1]] = 1.0
    return (h / 6.0) * Mc


@dataclass(frozen=True)
class FracOperator:
    """Dense stiffness of the weak fractional Laplacian plus mass matrices.

    A is the Galerkin matrix of a_r on interior hat functions (symmetric
    positive definite), M_c the consistent P1 mass, M_L the lumped mass
    (h on the diagonal).  The Cholesky factor of A is cached at assembly;
    everything is immutable afterwards and safe to share across threads.
    """

    domain: Domain1D
    r: float
    A: np.ndarray
    M_c: np.ndarray
    M_L: np.ndarray
    constant: KernelConstant
    lin_tol: float = LIN_TOL
    _chol: tuple = field(repr=False, default=None)
    _dual_kernel_cache: list = field(repr=False, default=None)

    def apply(self, v: Field) -> np.ndarray:
        """Dual-pairing vector (A v)_i = a_r(v, phi_i)."""
        if v.domain != self.domain:
            raise DomainMismatchError(f"{v.domain} != {self.domain}")
        return self.A @ v.values

    def solve(self, f: Field) -> Field:
        """Solve the discrete elliptic problem A u = M_c f."""
        if f.domain != self.domain:
            raise DomainMismatchError(f"{f.domain} != {self.domain}")
        rhs = self.M_c @ f.values
        u = cho_solve(self._chol, rhs)
        nrm = np.linalg.norm(rhs)
        if nrm > 0:
            res = np.linalg.norm(self.A @ u - rhs) / nrm
            if res > self.lin_tol:
                u = self._refine(u, rhs)
                res = np.linalg.norm(self.A @ u - rhs) / nrm
                if res > self.lin_tol:
                    raise SolverDivergenceError(f"relative residual {res:.3e}")
        return Field(self.domain, u)

    def _refine(self, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # one step of iterative refinement; Cholesky normally suffices
        return u + cho_solve(self._chol, rhs - self.A @ u)

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a raw coefficient vector."""
        return cho_solve(self._chol, rhs)

    def dual_norm_sq(self, v: Field) -> float:
        """Squared dual norm (M_c v)^T A^(-1) (M_c v) realizing X'_{r,0}."""
        if v.domain != self.domain:
            raise DomainMismatchError(f"{v.domain} != {self.domain}")
        rhs = self.M_c @ v.values
        return float(rhs @ cho_solve(self._chol, rhs))

    @property
    def dual_kernel(self) -> np.ndarray:
        """M_c A^(-1) M_c, the Gram matrix of the dual norm (cached)."""
        if self._dual_kernel_cache[0] is None:
            K = self.M_c @ cho_solve(self._chol, self.M_c)
            self._dual_kernel_cache[0] = 0.5 * (K + K.T)
        return self._dual_kernel_cache[0]

    def gagliardo_sq(self, v: Field) -> float:
        """v^T A v, the squared X_{r,0} norm of the interpolant."""
        if v.domain != self.domain:
            raise DomainMismatchError(f"{v.domain} != {self.domain}")
        return float(v.values @ (self.A @ v.values))


def _pair_weight_integrals(r: float) -> np.ndarray:
    # W_j = int_0^1 w^j (1+w)^(-1-2r) dw, j = 0..2; smooth integrand, so
    # fixed-order Gauss-Legendre is exact to machine precision
    xg, wg = roots_legendre(24)
    x = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    core = (1.0 + x) ** (-1.0 - 2.0 * r)
    return np.array([np.sum(w * x**j * core) for j in range(3)])


def assemble(
    domain: Domain1D,
    r: float,
    quad_tol: float = QUAD_TOL,
    lin_tol: float = LIN_TOL,
) -> FracOperator:
    """Assemble stiffness and mass matrices for order r on the given domain."""
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    M, h = domain.M, domain.h
    a, b = domain.a, domain.b
    C = kernel_constant(r, 1).value
    A = np.zeros((M, M))

    inv_h = 1.0 / h

    # --- identical panels ------------------------------------------------
    # hat differences on one panel reduce to slope * (x - y); the kernel
    # moment iint_{P^2} |x-y|^(1-2r) has the exact value below
    theta_same = 2.0 * h ** (3.0 - 2.0 * r) / ((2.0 - 2.0 * r) * (3.0 - 2.0 * r))
    # panel k hosts phi_k (slope -1/h) and phi_{k+1} (slope +1/h); summing
    # slope products over all panels gives tridiagonal contributions
    for k in range(M + 1):
        active = []
        if 1 <= k <= M:
            active.append((k - 1, -inv_h))
        if 1 <= k + 1 <= M:
            active.append((k, +inv_h))
        for i, si in active:
            for j, sj in active:
                A[i, j] += 0.5 * C * si * sj * theta_same

    # --- vertex-sharing panels -------------------------------------------
    # with u, v the distances of x, y to the shared vertex, the hat
    # difference is -(b1 u + b2 v) for panel slopes b1, b2; the Duffy split
    # u = vw / v = uw yields h^(3-2r)/(3-2r) times polynomial w-integrals
    Wj = _pair_weight_integrals(r)
    theta_adj = h ** (3.0 - 2.0 * r) / (3.0 - 2.0 * r)
    for k in range(M):
        nodes = {}
        for node in (k, k + 1, k + 2):
            if 1 <= node <= M:
                b1 = -inv_h if node == k else (+inv_h if node == k + 1 else 0.0)
                b2 = -inv_h if node == k + 1 else (+inv_h if node == k + 2 else 0.0)
                nodes[node] = (b1, b2)
        for i, (bi1, bi2) in nodes.items():
            for j, (bj1, bj2) in nodes.items():
                val = (bi1 * bj1 + bi2 * bj2) * (Wj[0] + Wj[2])
                val += (bi1 * bj2 + bi2 * bj1) * 2.0 * Wj[1]
                # factor 2: both orderings of the panel pair contribute
                A[i - 1, j - 1] += 0.5 * C * 2.0 * theta_adj * val

    # --- separated panels (gap >= 2) ---------------------------------------
    if M >= 2:
        _add_separated_pairs(A, M, h, r, C)

    # --- exterior tail -----------------------------------------------------
    _add_exterior_tail(A, domain, r, C)

    A = 0.5 * (A + A.T)

    # sign structure of the nonlocal form: row sums are nonnegative for all
    # orders (strictly positive through the exterior tail); off-diagonals
    # are nonpositive only away from the identity regime - the nearest
    # neighbor entry changes sign near r ~ 0.235, where the operator starts
    # resembling the (positive) mass matrix
    row_min = float(A.sum(axis=1).min())
    if row_min < -quad_tol:
        raise AssemblyError(
            f"r={r}, M={M}: row-sum min {row_min:.3e} below -quad_tol"
        )
    if r >= 0.25:
        off_max = float((A - np.diag(np.diag(A))).max(initial=0.0))
        if off_max > quad_tol:
            raise AssemblyError(
                f"r={r}, M={M}: off-diagonal max {off_max:.3e} above quad_tol"
            )

    Mc = _consistent_mass(M, h)
    ML = h * np.eye(M)
    try:
        chol = cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"stiffness not SPD for r={r}, M={M}") from exc
    op = FracOperator(
        domain=domain,
        r=r,
        A=A,
        M_c=Mc,
        M_L=ML,
        constant=KernelConstant(r, 1, C),
        lin_tol=lin_tol,
        _chol=chol,
        _dual_kernel_cache=[None],
    )
    op.A.flags.writeable = False
    op.M_c.flags.writeable = False
    op.M_L.flags.writeable = False
    return op


def _add_separated_pairs(A: np.ndarray, M: int, h: float, r: float, C: float) -> None:
    # reference pair P_0 = [0, h], P_g = [gh, (g+1)h]: all pairs with the
    # same gap share one 4x4 interaction block by translation invariance
    n = _GAUSS_N_PAIR
    xg, wg = roots_legendre(n)
    xq = 0.5 * (xg + 1.0) * h
    wq = 0.5 * wg * h
    ramp_up = xq / h
    ramp_dn = 1.0 - xq / h

    gaps = np.arange(2, M + 2)
    # y - x for x in P_0, y in P_g: strictly positive, kernel smooth
    diff = gaps[:, None, None] * h + xq[None, None, :] - xq[None, :, None]
    K = diff ** (-1.0 - 2.0 * r)
    Wmat = wq[:, None] * wq[None, :]

    ones = np.ones((n, n))
    F = np.empty((4, n, n))
    F[0] = ramp_dn[:, None] * ones   # phi_k on the left panel
    F[1] = ramp_up[:, None] * ones   # phi_{k+1}
    F[2] = -ramp_dn[None, :] * ones  # -phi_{k+g}(y)
    F[3] = -ramp_up[None, :] * ones  # -phi_{k+g+1}(y)
    E = np.einsum("tij,uij,ij,gij->gtu", F, F, Wmat, K, optimize=True)

    scale = 0.5 * C * 2.0  # both orderings of each separated pair
    for gi, g in enumerate(gaps):
        node_off = np.array([0, 1, g, g + 1])
        ks = np.arange(0, M + 1 - g)
        if ks.size == 0:
            continue
        for t in range(4):
            rows = ks + node_off[t]
            rmask = (rows >= 1) & (rows <= M)
            if not rmask.any():
                continue
            for u in range(4):
                cols = ks + node_off[u]
                mask = rmask & (cols >= 1) & (cols <= M)
                if not mask.any():
                    continue
                np.add.at(
                    A,
                    (rows[mask] - 1, cols[mask] - 1),
                    scale * E[gi, t, u],
                )


def _add_exterior_tail(A: np.ndarray, domain: Domain1D, r: float, C: float) -> None:
    # 2 * (C/2) * int_Omega phi_i phi_j rho with rho the closed-form tail;
    # panels touching an endpoint are integrated exactly (the only active
    # product there is the boundary ramp squared), the rest by Gauss
    M, h = domain.M, domain.h
    a, b = domain.a, domain.b
    n = _GAUSS_N_TAIL
    xg, wg = roots_legendre(n)
    t = 0.5 * (xg + 1.0) * h
    wt = 0.5 * wg * h
    up = t / h
    dn = 1.0 - t / h
    # exact ramp-squared moment on the singular panel:
    #   int_0^h (t/h)^2 t^(-2r) dt / (2r) = h^(1-2r) / ((3-2r) 2r)
    corner = h ** (1.0 - 2.0 * r) / ((3.0 - 2.0 * r) * 2.0 * r)

    for k in range(M + 1):
        x0 = a + k * h
        active = []
        if 1 <= k <= M:
            active.append((k - 1, dn))
        if 1 <= k + 1 <= M:
            active.append((k, up))
        for i, fi in active:
            for j, fj in active:
                if k == 0:
                    A[i, j] += C * corner  # only the up-ramp product survives
                else:
                    rho_a = (x0 + t - a) ** (-2.0 * r) / (2.0 * r)
                    A[i, j] += C * np.sum(wt * fi * fj * rho_a)
                if k == M:
                    A[i, j] += C * corner
                else:
                    rho_b = (b - x0 - t) ** (-2.0 * r) / (2.0 * r)
                    A[i, j] += C * np.sum(wt * fi * fj * rho_b)
