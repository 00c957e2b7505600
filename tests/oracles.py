"""Independent reference computations used to validate the library.

These deliberately avoid the library's assembly code path: the seminorm
oracle works on the Fourier side via padded FFTs, the closed form evaluates
the hat-function bilinear form as a plain fourth difference, the mpmath
column evaluates the same difference in 50 digits, and the Riemann-sum
oracle is a plain truncated double sum.  The Cahn-Hilliard step functional
is rebuilt from the closed-form stiffness, a hand-written consistent mass and
the library's dual norm, not from its dual kernel.

The panel-quadrature stiffness works in physical space.  The double integral
splits into Omega x Omega panel pairs plus the exterior tail
rho(x) = int_{Omega^c} |x-y|^(-1-2r) dy = ((x-a)^(-2r) + (b-x)^(-2r)) / (2r),
which is available in closed form in 1D.  Panel pairs are handled by

  * identical panels: the hat differences are pure slopes, so the pair
    integral reduces to iint |x-y|^(1-2r) = 2 h^(3-2r) / ((2-2r)(3-2r));
  * vertex-sharing panels: a Duffy split along the diagonal turns the
    corner singularity into the exact radial factor h^(3-2r)/(3-2r) times
    smooth weight integrals int_0^1 w^j (1+w)^(-1-2r) dw;
  * separated panels: tensor Gauss quadrature, translation invariance makes
    one 4x4 interaction block per gap suffice for the whole row of pairs.

The normalizing constant is the library's kernel_constant, computed from its
defining integral, so this oracle never uses the Fourier symbol or the
Toeplitz structure.

The dense solver oracles keep the library's earlier loops: inverse iteration
with dense M_c products and a freshly computed residual, its deflated
second-eigenvalue variant, the Newton step that assembles the Hessian
from full-matrix sums and solves it with scipy.linalg.solve, and the
stationary solver's earlier path, which Cholesky-factors a fresh dense
Hessian of the free energy at every Newton iteration.  The Cholesky solve
with A, the dual kernels by a Cholesky solve with M right-hand sides and by
dpotri on the Cholesky factor, and the PCG with a full K @ p and fresh
temporaries are the library's earlier kernels; the Newton step oracle
builds its metric with the first dual kernel.  Both earlier dual kernels
and the library's are checked against a 30-digit mpmath reference.
T. Chan's circulant solve (the eigensolver's earlier preconditioner) and
the banded LAPACK mass solve are the library's earlier structured solvers,
against which the tau preconditioner's iteration counts and the sine
transform's mass solve are checked.

The per-level trace is evolve's earlier recovery: w_n, the potential-equation
residual and the energy trace computed one level at a time, against which the
stacked recovery of the library is checked.  The per-level trajectory
distances and pointwise bound are the earlier loops over the levels, against
which their array expressions are checked bit for bit.

The f-string table formatters are the package's earlier CSV writers, one
per table, against which the artifacts of the CLI's single table writer are
checked byte for byte.

The proof devices of the existence theory live here too, since the library
never computes them: the Yosida approximation and the truncation of beta, and
the discrete a-priori monitors along a Cahn-Hilliard trajectory.
"""

from __future__ import annotations

import mpmath
import numpy as np
from dataclasses import replace
from math import cos, gamma, isqrt, log, pi
from scipy.linalg import cho_factor, cho_solve, solve as lin_solve, solve_banded
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotri
from scipy.special import roots_legendre

from fracfield import potential as pot
from fracfield.dynamics import energy
from fracfield.fracop import OutOfRangeError, _mass_rows, kernel_constant
from fracfield.grid import Domain1D, Field, lp_norm


def fft_seminorm_sq(field: Field, r: float, pad: int = 16, refine: int = 32) -> float:
    """|| |xi|^r vhat ||_L2^2 of the zero-extended interpolant.

    Samples the interpolant on a fine grid over a pad-times-wider interval,
    takes the DFT as a Fourier-integral approximation and sums the weighted
    spectrum (continuous FT convention fhat(xi) = int f exp(-i xi x) dx, so
    Plancherel carries a 1/(2 pi)).
    """
    dom = field.domain
    hf = dom.h / refine
    L = dom.length * pad
    n = int(round(L / hf))
    x = dom.a - (L - dom.length) / 2 + hf * np.arange(n)
    v = field(x)
    vhat = hf * np.fft.fft(v)
    xi = 2 * np.pi * np.fft.fftfreq(n, d=hf)
    dxi = 2 * np.pi / (n * hf)
    return float(np.sum(np.abs(xi) ** (2 * r) * np.abs(vhat) ** 2) * dxi / (2 * np.pi))


def _hat_form_coefficient(k: int, r: float) -> float:
    # analytic value of the full-space bilinear form of two unit-spaced hat
    # functions at node offset k (normalization constant included), obtained
    # by evaluating (1/2pi) int |xi|^{2r} |hathat|^2 cos(k xi) d xi in closed
    # form; the r = 1/2 branch is the log-limit of the power expression
    def powsum(f) -> float:
        return (
            1.5 * f(k) - f(k + 1) - f(k - 1) + 0.25 * f(k + 2) + 0.25 * f(k - 2)
        )

    if abs(r - 0.5) > 1e-9:
        q = 3.0 - 2.0 * r
        val = powsum(lambda m: abs(m) ** q if m != 0 else 0.0)
        return 2.0 * val / (cos(pi * r) * gamma(4.0 - 2.0 * r))
    val = powsum(lambda m: m * m * log(abs(m)) if m != 0 else 0.0)
    return 2.0 * val / pi


def stiffness_closed_form(M: int, h: float, r: float) -> np.ndarray:
    """Exact stiffness of the zero-extended P1 basis on a uniform grid."""
    coeffs = [h ** (1.0 - 2.0 * r) * _hat_form_coefficient(k, r) for k in range(M)]
    A = np.empty((M, M))
    for i in range(M):
        for j in range(M):
            A[i, j] = coeffs[abs(i - j)]
    return A


def hat_form_coefficient_mpmath(k: int, r: float) -> float:
    """The unit-spacing column entry c(k) in 50-digit arithmetic:
    2 / (cos(pi r) Gamma(4-2r)) * (1/4) delta^4 [|m|^(3-2r)](k), or its limit
    (2/pi) * (1/4) delta^4 [m^2 log|m|](k) at r = 1/2."""
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)
        if r == 0.5:
            pref = 2 / mpmath.pi

            def f(m):
                return mpmath.mpf(m) ** 2 * mpmath.log(abs(m)) if m else mpmath.mpf(0)
        else:
            pref = 2 / (mpmath.cos(mpmath.pi * rr) * mpmath.gamma(4 - 2 * rr))

            def f(m):
                return abs(mpmath.mpf(m)) ** (3 - 2 * rr)

        diff = (f(k - 2) + f(k + 2)) / 4 - f(k - 1) - f(k + 1) + 3 * f(k) / 2
        return float(pref * diff)


_GAUSS_N_PAIR = 10  # per-dimension order for separated panel pairs
_GAUSS_N_TAIL = 16  # order for nonsingular tail panels


def _pair_weight_integrals(r: float) -> np.ndarray:
    # W_j = int_0^1 w^j (1+w)^(-1-2r) dw, j = 0..2; smooth integrand, so
    # fixed-order Gauss-Legendre is exact to machine precision
    xg, wg = roots_legendre(24)
    x = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    core = (1.0 + x) ** (-1.0 - 2.0 * r)
    return np.array([np.sum(w * x**j * core) for j in range(3)])


def stiffness_panel_quadrature(domain: Domain1D, r: float) -> np.ndarray:
    """Stiffness from Omega x Omega panel pairs plus the closed-form exterior
    tail, with the kernel constant from its defining integral (module
    docstring)."""
    M, h = domain.M, domain.h
    C = kernel_constant(r)
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

    return 0.5 * (A + A.T)


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


def gagliardo_sq_riemann(field: Field, r: float, n: int = 2400) -> float:
    """Plain truncated double Riemann sum of the Gagliardo form (diagonal
    band dropped, closed-form exterior tail), accurate to a percent or so."""
    dom = field.domain
    a, b = dom.a, dom.b
    C = kernel_constant(r)
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    dx = (b - a) / n
    v = field(x)
    diff = v[:, None] - v[None, :]
    dist = np.abs(x[:, None] - x[None, :])
    K = np.zeros_like(dist)
    off = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    K[off] = dist[off] ** (-1.0 - 2.0 * r)
    interior = float(np.sum(diff**2 * K) * dx * dx)
    rho = ((x - a) ** (-2.0 * r) + (b - x) ** (-2.0 * r)) / (2.0 * r)
    tail = float(np.sum(v**2 * rho) * dx)
    return 0.5 * C * (interior + 2.0 * tail)


def kernel_integral_trapezoid(r: float) -> float:
    """High-resolution trapezoid value of int_R (1-cos z)/|z|^(1+2r) dz with
    an integration-by-parts remainder for the oscillatory tail."""
    z1 = np.linspace(0.0, 1.0, 2_000_001)
    f1 = np.empty_like(z1)
    f1[1:] = (1.0 - np.cos(z1[1:])) * z1[1:] ** (-1.0 - 2.0 * r)
    # limit value at 0: 0 for r < 1/2, 1/2 at r = 1/2 (r > 1/2 is singular
    # there and not supported by this plain-trapezoid oracle)
    f1[0] = 0.5 if r == 0.5 else 0.0
    head = np.trapezoid(f1, z1)
    Z = 400.0
    z2 = np.linspace(1.0, Z, 4_000_001)
    osc = np.trapezoid(np.cos(z2) * z2 ** (-1.0 - 2.0 * r), z2)
    # int_Z^inf cos(z) z^(-1-2r) dz by repeated integration by parts
    s = 1.0 + 2.0 * r
    rem = (
        -np.sin(Z) * Z**(-s)
        + s * np.cos(Z) * Z ** (-s - 1)
        + s * (s + 1) * np.sin(Z) * Z ** (-s - 2)
    )
    power_tail = 1.0 / (2.0 * r)  # int_1^inf z^(-1-2r) dz
    return 2.0 * (head + power_tail - (osc + rem))


def poincare_lower_bound(domain: Domain1D, r: float) -> float:
    """Analytic lower bound on the first Rayleigh quotient of the form.

    With R the smallest radius such that Omega fits in the ball B_R around
    the interval midpoint, the Gagliardo seminorm dominates
    |B_{R+1} \\ Omega| / (2R+2)^(N+2r) times the squared L2 norm; the bound
    below carries the C(r)/2 normalization of the X_{r,0} norm.
    """
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    C = kernel_constant(r)
    R = 0.5 * domain.length
    excess = 2.0 * (R + 1.0) - domain.length  # |B_{R+1} \ Omega| in 1D
    return 0.5 * C * excess / (2.0 * R + 2.0) ** (1.0 + 2.0 * r)


def ch_step_functional_value(op_s, sigma: float, p: float, lam: float,
                             u_prev: Field, tau: float, u: np.ndarray) -> float:
    """F_n(u) = ||u - u_prev||_*^2 / (2 tau) + (1/2) u^T A_sigma u
    + h sum |u_i|^p / p - lam u^T M_c u_prev, with A_sigma in closed form
    and the exact power law (the solver's own form for p > 2)."""
    dom = u_prev.domain
    h = dom.h
    A_sigma = stiffness_closed_form(dom.M, h, sigma)
    Mc = (h / 6.0) * (4.0 * np.eye(dom.M) + np.eye(dom.M, k=1) + np.eye(dom.M, k=-1))
    up = u_prev.values
    return float(
        op_s.dual_norm_sq(Field(dom, u - up)) / (2.0 * tau)
        + 0.5 * u @ (A_sigma @ u)
        + h * np.sum(np.abs(u) ** p / p)
        - lam * u @ (Mc @ up)
    )


def _rel_residual(op, x: np.ndarray, lam: float) -> float:
    res = op.A @ x - lam * (op.M_c @ x)
    return float(np.linalg.norm(res) / (lam * np.linalg.norm(op.M_c @ x)))


def rayleigh_quotient_extended(op, x: np.ndarray) -> float:
    """x^T A x / x^T M_c x from the dense matrices in extended precision
    (np.longdouble), free of the eps * cond(A) rounding of a double
    evaluation."""
    xl = x.astype(np.longdouble)
    A = op.A.astype(np.longdouble)
    Mc = op.M_c.astype(np.longdouble)
    return float((xl @ (A @ xl)) / (xl @ (Mc @ xl)))


def first_eigenpair_dense(op, eig_tol: float, maxit: int = 10000):
    """Inverse power iteration with dense M_c products and a residual
    recomputed from scratch each sweep; returns (lambda1, e1, residual,
    sweeps) with e1 positive and M_c-normalized."""
    chol = cho_factor(op.A, lower=True)
    x = np.ones(op.domain.M)
    x /= np.sqrt(x @ (op.M_c @ x))
    for sweeps in range(1, maxit + 1):
        y = cho_solve(chol, op.M_c @ x)
        y /= np.sqrt(y @ (op.M_c @ y))
        lam = float(y @ (op.A @ y))
        x = y
        if _rel_residual(op, x, lam) <= eig_tol:
            break
    else:
        raise RuntimeError(f"dense inverse iteration stalled at r={op.r}")
    if np.sum(x) < 0:
        x = -x
    return lam, x, _rel_residual(op, x, lam), sweeps


def second_eigenvalue(op, e1: np.ndarray, eig_tol: float = 1e-10,
                      maxit: int = 10000) -> float:
    """Second-smallest eigenvalue via inverse iteration deflated against e1."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(op.domain.M)

    def project_out(v: np.ndarray) -> np.ndarray:
        return v - (v @ (op.M_c @ e1)) * e1

    chol = cho_factor(op.A, lower=True)
    x = project_out(x)
    x /= np.sqrt(x @ (op.M_c @ x))
    for _ in range(maxit):
        y = cho_solve(chol, op.M_c @ x)
        y = project_out(y)
        y /= np.sqrt(y @ (op.M_c @ y))
        lam = float(y @ (op.A @ y))
        x = y
        if _rel_residual(op, x, lam) <= max(eig_tol, 1e-12):
            return lam
    raise RuntimeError("deflated iteration stalled")


def solve_cholesky(op, rhs: np.ndarray) -> np.ndarray:
    """A^(-1) rhs the library's earlier way: a Cholesky factor of the dense
    A, then two triangular solves (one or many right-hand sides)."""
    return cho_solve(cho_factor(op.A, lower=True), rhs)


def chan_circulant_solve(op, b: np.ndarray) -> np.ndarray:
    """C^(-1) b, the library's earlier eigen preconditioner: C is T. Chan's
    optimal circulant (SIAM J. Sci. Stat. Comput. 9, 1988), the circulant
    nearest A in the Frobenius norm, with first column ((M-k) c(k) +
    k c(M-k)) / M, solved by one real FFT pair of length M."""
    M, c = op.column.size, op.column
    k = np.arange(M)
    chan = ((M - k) * c + k * c[-k]) / M
    return np.fft.irfft(np.fft.rfft(b) / np.fft.rfft(chan).real, M)


def mass_solve_banded(op, b: np.ndarray) -> np.ndarray:
    """M_c^(-1) b the library's earlier way: LAPACK's banded solve on the
    tridiagonal band (h/6)(1, 4, 1)."""
    M, h = op.domain.M, op.domain.h
    band = np.empty((3, M))
    band[0] = band[2] = h / 6.0
    band[1] = 4.0 * h / 6.0
    return solve_banded((1, 1), band, b)


def dual_kernel_dpotri(op) -> np.ndarray:
    """M_c A^(-1) M_c the library's earlier way: dpotri forms the lower
    triangle of A^(-1) from the Cholesky factor; each block of about
    sqrt(M) columns, right to left, mirrors its upper part from the rows of
    that triangle and takes the mass stencil down its columns, then blocks
    of rows take it along their rows.  Symmetric up to rounding."""
    M, h = op.domain.M, op.domain.h
    X, _ = dpotri(cho_factor(op.A, lower=True)[0], lower=1)
    b = isqrt(M)
    for j in reversed(range(0, M, b)):
        X[:j, j : j + b] = X[j : j + b, :j].T
        block = X[j : j + b, j : j + b]
        block[...] = np.tril(block) + np.tril(block, -1).T
        X[:, j : j + b] = _mass_rows(X[:, j : j + b], h)
    for i in range(0, M, b):
        X[i : i + b] = _mass_rows(X[i : i + b].T, h).T
    return X


def dual_kernel_cho_solve(op) -> np.ndarray:
    """M_c A^(-1) M_c the library's earlier way: A^(-1) M_c by a Cholesky
    solve with M right-hand sides, then M_c on the left, symmetrized."""
    K = op.M_c @ cho_solve(cho_factor(op.A, lower=True), op.M_c)
    return 0.5 * (K + K.T)


def dual_kernel_mpmath(op, dps: int = 30) -> np.ndarray:
    """M_c A^(-1) M_c of the float64 column in dps digits, rounded to
    float64.  x = A^(-1) e_1 comes from Gaussian elimination on the dense
    A, without pivoting since A is symmetric positive definite, and on its
    upper triangle only since every trailing block stays symmetric; the
    inverse of the symmetric Toeplitz A then follows row by row from the
    Gohberg-Semencul recurrence B[i, j] = B[i-1, j-1] + (x_i x_j -
    x_(M-i) x_(M-j)) / x_0, with x_M = 0, and the mass stencil is applied
    on both sides in the same precision."""
    M = op.domain.M
    with mpmath.workdps(dps):
        c = [mpmath.mpf(float(v)) for v in op.column]
        A = [[c[abs(i - j)] for j in range(M)] + [int(i == 0)] for i in range(M)]
        for k, pivot_row in enumerate(A):  # elimination on the rows [A | e_1]
            for i in range(k + 1, M):
                f = pivot_row[i] / pivot_row[k]  # A[i][k] / A[k][k] by symmetry
                row = A[i]
                for j in range(i, M + 1):
                    row[j] -= f * pivot_row[j]
        x = [0] * (M + 1)
        for i in reversed(range(M)):
            x[i] = (A[i][M] - sum(A[i][j] * x[j] for j in range(i + 1, M))) / A[i][i]
        B = [x[:M]]
        for i in range(1, M):
            B.append([(B[i - 1][j - 1] if j else 0) + (x[i] * x[j] - x[M - i] * x[M - j]) / x[0]
                      for j in range(M)])
        h6 = mpmath.mpf(op.domain.h) / 6

        def mass(X):  # M_c X, then transposed, so two calls give M_c X M_c
            pad = [[0] * M] + X + [[0] * M]
            return [list(col) for col in zip(*(
                [h6 * (4 * pad[i + 1][j] + pad[i][j] + pad[i + 2][j]) for j in range(M)]
                for i in range(M)))]

        return np.array([[float(v) for v in row] for row in mass(mass(B))])


def pcg_allocating(K, D, inverse, g, counts):
    """The library's earlier PCG: the same iteration as dynamics._pcg with
    the full product K @ p and fresh temporaries in every iteration."""
    d = np.zeros_like(g)
    r = -g
    stop = 1e-10 * np.sqrt(g @ g)
    z = dsymv(1.0, inverse, r)
    p = z
    rz = r @ z
    for _ in range(6):
        q = K @ p + D * p
        pq = p @ q
        if not pq > 0.0:
            return None
        alpha = rz / pq
        d += alpha * p
        r -= alpha * q
        counts[0] += 1
        if np.sqrt(r @ r) <= stop:
            return d
        z = dsymv(1.0, inverse, r)
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    return None


def newton_step_dense(flow, params, tau: float, settings, u_prev: Field, start=None):
    """One convex-splitting step u_prev -> (u_n, w_n, iterations, residual)
    with the Hessian summed from full matrices and solved by
    scipy.linalg.solve(assume_a="pos"); same damped Newton and residual
    line search as the library, started from start (default u_prev), and
    the dual kernel from dual_kernel_cho_solve."""
    h = u_prev.domain.h
    Mc = (flow.interface or flow.metric).M_c
    A = None if flow.interface is None else flow.interface.A
    G = Mc if flow.metric is None else dual_kernel_cho_solve(flow.metric)
    up = u_prev.values
    explicit = flow.lam * (Mc @ up)

    def grad(u):
        g = G @ (u - up) / tau
        if A is not None:
            g = g + A @ u
        return g + h * pot.beta_reg(params, u) - explicit

    def hess(u):
        H = G / tau
        if A is not None:
            H = H + A
        return H + h * np.diag(pot.beta_prime_reg(params, u))

    scale = 1.0 / np.sqrt(h)
    u = (up if start is None else start).copy()
    g = grad(u)
    res = float(np.linalg.norm(g)) * scale
    it = 0
    while res > settings.newton_tol:
        d = lin_solve(hess(u), -g, assume_a="pos")
        t = 1.0
        while True:
            un = u + t * d
            gn = grad(un)
            resn = float(np.linalg.norm(gn)) * scale
            if resn <= (1.0 - 1e-4 * t) * res or resn <= settings.newton_tol:
                break
            t *= 0.5
            assert t >= 1e-14, "line search exhausted"
        u, g, res = un, gn, resn
        it += 1
        assert it <= 100, "Newton cap reached"
    if flow.metric is None:
        w = -(u - up) / tau
    else:
        w = -cho_solve(cho_factor(flow.metric.A, lower=True), Mc @ (u - up)) / tau
    return u, w, it, res


def stationary_state_cholesky(op, params, u0: np.ndarray, stat_tol: float):
    """The stationary solver's earlier path from one start, with dense
    products throughout: Barzilai-Borwein descent with backtracking down to
    the scaled residual 1e-4, then damped Newton on J with the residual line
    search, the Hessian A + h diag(beta'(u)) - lam M_c built and
    Cholesky-factored afresh at every iteration, and the gradient step
    u - min(1e-2, res) g where it is not positive definite.  Returns
    (u, residual)."""
    h, lam = op.domain.h, params.lam
    A, Mc = op.A, op.M_c

    def J(u):
        return (0.5 * u @ (A @ u) + h * np.sum(pot.beta_hat(params, u))
                - 0.5 * lam * u @ (Mc @ u))

    def grad(u):
        return A @ u + h * pot.beta(params, u) - lam * (Mc @ u)

    scale = 1.0 / np.sqrt(h)
    u = u0.copy()
    g = grad(u)
    res = float(np.linalg.norm(g)) * scale
    step = 1.0 / max(1.0, float(np.abs(A).sum(axis=1).max()))
    u_old = None
    for _ in range(5000):
        if res <= 1e-4 or res <= stat_tol:
            break
        if u_old is not None:
            sy = (u - u_old) @ (g - g_old)
            step = (u - u_old) @ (u - u_old) / sy if sy > 0 else step
            step = min(max(step, 1e-12), 1e3)
        t, f = step, J(u)
        while J(u - t * g) > f - 1e-4 * t * (g @ g):
            t *= 0.5
            assert t > 1e-30, "descent line search exhausted"
        u_old, g_old = u, g
        u = u - t * g
        g = grad(u)
        res = float(np.linalg.norm(g)) * scale
    for _ in range(100):
        if res <= stat_tol:
            return u, res
        H = A + h * np.diag(pot.beta_prime_reg(params, u)) - lam * Mc
        try:
            d = cho_solve(cho_factor(H), -g)
        except np.linalg.LinAlgError:
            u = u - min(1e-2, res) * g
            g = grad(u)
            res = float(np.linalg.norm(g)) * scale
            continue
        t = 1.0
        while True:
            un = u + t * d
            gn = grad(un)
            resn = float(np.linalg.norm(gn)) * scale
            if resn <= (1.0 - 1e-4 * t) * res or resn <= stat_tol:
                break
            t *= 0.5
            assert t >= 1e-14, "line search exhausted"
        u, g, res = un, gn, resn
    assert res <= stat_tol, "Newton cap reached"
    return u, res


def energy_trace_per_level(flow, params, traj, tau: float):
    """The recovery evolve made one level at a time before it stacked the
    levels: w_n and the potential-equation residual of every step from
    (u_{n-1}, u_n), A_sigma u_n by stiffness_vector of that one vector,
    then the energy trace through the single-state library functions
    (energy, gagliardo_sq, dual_norm_sq, lp_norm; the modified energy is
    energy with lam replaced).  Returns (W, td2_residual,
    columns): W with one row per step and columns the EnergyTrace arrays
    E_sigma, E_tilde, gagliardo_s_of_w, dual_norm_u, l2_u, lp_u and
    step_slack."""
    if flow.interface is None:
        params = replace(params, lam=0.0)
    h = traj.domain.h
    mass_vector = (flow.interface or flow.metric).mass_vector
    us = [Field(traj.domain, v) for v in traj.U]
    ws, td2s = [], []
    for u_prev, u_n in zip(us, us[1:]):
        up, un = u_prev.values, u_n.values
        explicit = flow.lam * mass_vector(up)
        if flow.metric is None:
            wn = -(un - up) / tau
        else:
            wn = -flow.metric.solve_vector(mass_vector(un - up)) / tau
        potential = h * pot.beta_reg(params, un)
        if flow.interface is not None:
            potential = flow.interface.stiffness_vector(un) + potential
        td2 = mass_vector(wn) - (potential - explicit)
        ws.append(Field(traj.domain, wn))
        td2s.append(float(np.linalg.norm(td2) / np.sqrt(h)))
    n = len(ws)
    mass_sq = np.array([u.values @ mass_vector(u.values) for u in us])

    def convex_part(u: Field) -> float:
        c = h * np.sum(pot.beta_hat_reg(params, u.values))
        if flow.interface is not None:
            c = 0.5 * flow.interface.gagliardo_sq(u) + c
        return float(c)

    E = np.array([energy(flow.interface, params, u) for u in us])
    if flow.lam == params.lam:
        Et = E.copy()
    else:
        Et = np.array([energy(flow.interface, replace(params, lam=flow.lam), u) for u in us])
    if flow.metric is None:
        du = mass_sq
        gw = np.array([0.0] + [w.values @ mass_vector(w.values) for w in ws])
    else:
        du = np.array([flow.metric.dual_norm_sq(u) for u in us])
        gw = np.array([0.0] + [flow.metric.gagliardo_sq(w) for w in ws])
    l2 = np.array([lp_norm(u, 2) for u in us])
    lp = np.array([lp_norm(u, params.p) for u in us])
    convex = np.array([convex_part(u) for u in us])
    slack = np.zeros(n + 1)
    slack[1:] = (
        0.5 * flow.lam * (mass_sq[1:] - mass_sq[:-1])
        - tau * gw[1:]
        - convex[1:]
        + convex[:-1]
    )
    W = np.array([w.values for w in ws])
    return W, np.array(td2s), [E, Et, gw, du, l2, lp, slack]


def spacetime_l2_distance_per_level(domain, A, B, tau: float) -> float:
    """limits.spacetime_l2_distance as a loop over the levels n >= 1 of two
    marches, one Field difference at a time, summed in a Python float."""
    a = [Field(domain, v) for v in A]
    b = [Field(domain, v) for v in B]
    h = domain.h
    acc = 0.0
    for ua, ub in zip(a[1:], b[1:]):
        acc += tau * h * float(np.sum((ua.values - ub.values) ** 2))
    return float(np.sqrt(acc))


def max_l2_distance_per_level(domain, A, B) -> float:
    """limits.max_l2_distance as the maximum of one lumped L2 norm per
    level, including the initial one."""
    a = [Field(domain, v) for v in A]
    b = [Field(domain, v) for v in B]
    return max(lp_norm(ua - ub, 2) for ua, ub in zip(a, b))


def beta_bound_per_level(traj, params, lambda_coef: float = 1.0) -> float:
    """dynamics.beta_bound_check as a loop over the levels n >= 1, one
    (u_n, w_n) pair at a time."""
    h = traj.domain.h
    worst = 0.0
    for k in range(1, len(traj.U)):
        u = traj.U[k]
        w = traj.W[k - 1]
        lhs = h * float(np.sum(pot.beta(params, u) ** 2))
        rhs = 2.0 * (
            h * float(np.sum(w**2)) + lambda_coef**2 * h * float(np.sum(u**2))
        )
        worst = max(worst, lhs - rhs)
    return worst


def a_priori_monitors(traj, op_s, op_sigma, params, tau: float) -> dict:
    """Discrete counterparts of the a-priori bounds: max dual norm of u,
    time-summed Gagliardo energy of w, max of (u^T A_sigma u + ||u||_p^p)."""
    us = [Field(traj.domain, v) for v in traj.U]
    max_dual = max(op_s.dual_norm_sq(u) for u in us)
    sum_w = tau * sum(float(w @ (op_s.A @ w)) for w in traj.W)
    max_core = max(
        op_sigma.gagliardo_sq(u) + lp_norm(u, params.p) ** params.p for u in us
    )
    return {
        "max_dual_norm_u_sq": float(max_dual),
        "sum_tau_gagliardo_w_sq": float(sum_w),
        "max_energy_core": float(max_core),
    }


def yosida_beta(params, eps: float, x: float) -> float:
    """Yosida approximation beta_eps(x) = (x - j)/eps with j + eps*beta(j) = x.

    The resolvent equation has a unique root by strict monotonicity of
    r -> r + eps*beta(r); it is found by bisection on [0, |x|] with a Newton
    polish, to absolute accuracy 1e-12.  beta_eps(x) equals beta(j).
    """
    if x == 0.0:
        return 0.0
    s = 1.0 if x > 0 else -1.0
    ax = abs(x)
    p = params.p

    def g(j: float) -> float:
        return j + eps * j ** (p - 1.0) - ax

    # g(0) = -ax < 0 and g(ax) >= 0, so [0, ax] brackets the root
    lo, hi = 0.0, ax
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    j = 0.5 * (lo + hi)
    for _ in range(20):
        gj = g(j)
        if abs(gj) <= 1e-13 * max(1.0, ax):
            break
        gp = 1.0 + (eps * (p - 1.0) * j ** (p - 2.0) if j > 0 else 0.0)
        if not np.isfinite(gp) or gp <= 0.0:
            break
        step = gj / gp
        if not (lo <= j - step <= hi):
            break
        j -= step
    return s * (ax - j) / eps


def truncate_beta(params, eps: float, x: float) -> float:
    """beta clamped at the levels beta(+-1/eps); bounded, Lipschitz, monotone."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cap = float(pot.beta(params, 1.0 / eps))
    return float(np.clip(pot.beta(params, x), -cap, cap))


def eigen_sweep_to_csv(rows) -> str:
    """eigen.csv as spectral.sweep_to_csv wrote it."""
    lines = ["r,M,lambda1,lower,upper,residual"]
    for row in rows:
        lines.append(
            f"{row['r']:.17g},{row['M']},{row['lambda1']:.17g},"
            f"{row['lower']:.17g},{row['upper']:.17g},{row['residual']:.17g}"
        )
    return "\n".join(lines) + "\n"


def stationary_sweep_to_csv(rows) -> str:
    """sweep.csv as stationary.sweep_to_csv wrote it."""
    lines = ["sigma,lambda1,norm_u,bound,energy,classification"]
    for row in rows:
        lines.append(
            f"{row['sigma']:.17g},{row['lambda1']:.17g},{row['norm_u']:.17g},"
            f"{row['bound']:.17g},{row['energy']:.17g},{row['classification']}"
        )
    return "\n".join(lines) + "\n"


def stationary_to_csv(cfg, result, norm_u: float) -> str:
    """stationary.csv as cli.run wrote it."""
    lines = [
        "sigma,lambda1,norm_u,energy,residual,classification",
        f"{cfg.sigma:.17g},{result.lambda1_sigma:.17g},"
        f"{norm_u:.17g},"
        f"{result.energy:.17g},{result.residual:.17g},{result.classification}",
    ]
    return "\n".join(lines) + "\n"


def operator_limit_to_csv(rows) -> str:
    """operator_limit.csv as cli.run wrote it."""
    lines = ["r,relative_gap"]
    for row in rows:
        lines.append(f"{row['r']:.17g},{row['relative_gap']:.17g}")
    return "\n".join(lines) + "\n"
