"""Galerkin discretization of the weak fractional Laplacian with solid
Dirichlet exterior condition.

The bilinear form is

    a_r(u, v) = (C(r)/2) * iint_{R x R} (u(x)-u(y)) (v(x)-v(y))
                                        |x-y|^(-1-2r) dx dy,

evaluated on P1 hat functions that are extended by zero outside Omega.  With
the exact constant C(r) = sin(pi r) Gamma(1+2r) / pi the form is the Fourier
multiplier |xi|^(2r):

    a_r(u, v) = (1/2pi) int |xi|^(2r) uhat(xi) conj(vhat(xi)) dxi.

The zero-extended hats are translates of one hat phi of width 2h, so
a_r(phi_i, phi_j) depends only on k = |i-j| and the stiffness is the Toeplitz
matrix of one column c(k).  With |phihat(xi)|^2 = (2 sin(h xi/2))^4 / (h^2 xi^4)
and (2 sin(xi/2))^4 cos(k xi) the fourth central difference delta^4 in k of
cos(k xi), the inverse transform of |xi|^(2r-4) gives

    c(k) = h^(1-2r) * 2 / (cos(pi r) Gamma(4-2r)) * (1/4) delta^4 [|m|^(3-2r)](k).

Evaluated as written its relative error grows like eps k^4, so the column is
computed in two cancellation-free forms:

  * k <= 2: the weights w_j of (1/4) delta^4 satisfy sum w_j m_j^2 = 0, so
        (1/4) delta^4 [|m|^(3-2r)](k) = sum_j w_j m_j^2 (|m_j|^(1-2r) - 1)
          = (1-2r) sum_j w_j m_j^2 (exp((1-2r) log|m_j|) - 1) / (1-2r),
    summed in 40-digit decimal, where 1-2r is exact and the quotient is
    log|m_j| at r = 1/2 (the m^2 log|m| kernel); the factor
    (1-2r)/cos(pi r) is evaluated as 2 / (pi sinc(1/2 - r)), so nothing
    cancels as 3-2r -> 2;
  * k >= 3: delta^4 = sum_n a_n D^(4+2n), a_n = 2 (2^(4+2n) - 4) / (4+2n)!,
    is a convergent Taylor series in the derivative D for k > 2 and gives
        c(k) = -h^(1-2r) C(r) sum_n a_n prod_{i=1}^{2n} (2r+i) k^(-1-2r-2n),
    a series of positive terms whose leading term is the far-field kernel
    -C(r) h^2 |x_i - x_j|^(-1-2r).

The stiffness therefore carries the exact Fourier-symbol normalization.
kernel_constant computes C(r) = C(r, 1) from its defining integral; it
agrees with the closed form above to about 1e-11.

Storage.  An operator holds the column and O(M) spectra: of the column's
circulant embedding C (A x by one real FFT pair) and of tau(A) (Bini &
Capovani, 1983; the DST-I diagonalizes it and M_c; its inverse preconditions
the eigensolver).  assemble gates the column in O(M log M) without forming
A, in this order: row sums from cumulative sums; the sign of the
off-diagonals; positive definiteness, certified by C's spectrum (A is C's
leading principal submatrix, so Cauchy interlacing bounds its eigenvalues
below by C's) and, where that spectrum does not clear its rounding bound,
decided by Durbin's O(M^2) recursion; then tau(A).  The first solve builds
the generator x = A^(-1) e_1 by the same recursion (Trench, J. SIAM 12,
1964) and the spectra of x and Z J x (J reverses, Z shifts down); an
eigensolve never needs them.  Solves use Gohberg-Semencul (1972),
A^(-1) = (L(x) L(x)^T - L(ZJx) L(ZJx)^T) / x_0 with L(v) lower triangular
Toeplitz, first column v; no factor of A is formed.  Products and solves
take a vector or a stack of rows, the (levels, M) layout of np.fft,
SOLVE_BLOCK rows at a time.  No M x M stiffness is held: FracOperator.A
is a read-only Toeplitz view of 2M - 1 values (FracOperator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from functools import cached_property
from typing import Callable

import numpy as np
import numpy.fft  # NumPy loads it on first use; load it with the package instead
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Domain1D, DomainMismatchError, Field

QUAD_TOL = 1e-8  # sign-gate tolerance of the assembled stiffness

_STENCIL = (0.25, -1.0, 1.5, -1.0, 0.25)  # (1/4) delta^4 at offsets -2..2
_NEAR = Context(prec=40)  # working precision of the column's entries k <= 2
_LOG_M = tuple(_NEAR.ln(m) for m in (2, 3, 4))  # ln|m| of their offsets m, where |m| > 1
SOLVE_BLOCK = 32  # rows per FFT product or solve, which bounds its FFT temporaries


class OutOfRangeError(ValueError):
    """Fractional order outside (0, 1)."""


class SolverError(RuntimeError):
    """A solver stalled or a computed object failed its gate; the base of
    every failure the CLI reports with exit code 2."""


class NotSPDError(SolverError):
    """Stiffness matrix failed the positive definiteness gate: assemble
    raises it when neither the embedding spectrum certifies A nor Durbin's
    recursion accepts it, and the first solve raises it if the recursion
    that builds the generator meets a reflection coefficient outside
    (-1, 1), which rounding can cause where the certificate held."""


class AssemblyError(SolverError):
    """Assembled matrix violates its sign structure beyond QUAD_TOL, or tau(A) is not SPD."""


class NoConvergenceError(SolverError):
    """An iteration (LOBPCG, or every start of the stationary descent) ended
    before reaching its tolerance."""


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


def kernel_constant(r: float) -> float:
    """The normalizing constant C(r) = (int_R (1 - cos z)/|z|^(1+2r) dz)^(-1)
    of the one-dimensional kernel, the N = 1 case of C(r, N).

    The defining integral is split at |z| = 1: the head is summed as a
    Taylor series (exact to machine precision), the tail is the exact
    power-law integral 1/(2r) minus an oscillatory Fourier-cosine integral
    evaluated by adaptive quadrature.
    """
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    from scipy.integrate import quad  # imported here: nothing else needs it

    head = _head_series(r)
    osc, _err = quad(
        lambda z: z ** (-1.0 - 2.0 * r), 1.0, np.inf, weight="cos", wvar=1.0
    )
    total = 2.0 * (head + 1.0 / (2.0 * r) - osc)
    return 1.0 / total


def _mass_rows(Y: np.ndarray, h: float) -> np.ndarray:
    """M_c on every row of Y (a vector or a stack of rows) in a fresh
    buffer, O(M) per row: (h/6)(4 y_i + y_(i-1) + y_(i+1)) along the last
    axis, the tridiagonal stencil of the consistent P1 mass."""
    out = 4.0 * Y
    out[..., 1:] += Y[..., :-1]
    out[..., :-1] += Y[..., 1:]
    out *= h / 6.0
    return out


def _mass_eigenvalues(M: int, h: float) -> np.ndarray:
    """Eigenvalues (h/6)(4 + 2 cos(pi j/(M+1))), j = 1..M, of M_c in DST-I order."""
    return h / 6.0 * (4.0 + 2.0 * np.cos(np.pi * np.arange(1, M + 1) / (M + 1)))


def _dst(x: np.ndarray) -> np.ndarray:
    """DST-I, -2 S x with S_jk = sin(pi j k/(M+1)), by one rfft of (0, x, 0, -Jx)."""
    return np.fft.rfft(np.concatenate(([0.0], x, [0.0], -x[::-1]))).imag[1:-1]


def _sine_solve(b: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Solve B x = b for B = (2/(M+1)) S diag(eigenvalues) S, a matrix the
    DST-I diagonalizes, by two DST-Is; S^2 = (M+1)/2 I."""
    return _dst(_dst(b) / eigenvalues) / (2 * (b.size + 1))


@dataclass(frozen=True)
class FracOperator:
    """Weak fractional Laplacian of order r: the first column of its
    symmetric positive definite Toeplitz stiffness A, plus the consistent
    P1 mass M_c (tridiagonal) and the lumped mass M_L = h I.

    Assembly stores the column, its embedding spectrum and the eigenvalues
    of tau(A), all read-only, which the vector methods use in O(M) or
    O(M log M), so flows and runs can share one operator.  The generator x
    and its spectra are built by Durbin's recursion on the first solve
    (solve_vector or _dual_kernel_buffer) and cached read-only; a NotSPDError
    from that recursion surfaces there.  A is a read-only Toeplitz view of
    2M - 1 values, never cached; the dense M_c is built on first read and
    cached read-only.  _chol and _dual_kernel_cache always read [None];
    benchmark/child.py reads them until benchmark v2 (ROADMAP item 1)
    removes them.  Outside this module only the dense Hessian build
    reads A: the dense policy of dynamics._newton_operator, which serves
    time steps only, adds A_sigma to a fresh _dual_kernel_buffer or to
    mass_vector of the identity; nothing reads the cached M_c, and every
    M_c product, a dense one included, is mass_vector.
    """

    domain: Domain1D
    r: float
    column: np.ndarray = field(repr=False)
    _embedding: np.ndarray = field(repr=False)  # DFT of the circulant embedding
    _tau: np.ndarray = field(repr=False)  # eigenvalues of tau(A), in DST-I order
    _chol: list = field(repr=False, default_factory=lambda: [None])  # see above
    _dual_kernel_cache: list = field(repr=False, default_factory=lambda: [None])

    @property
    def A(self) -> np.ndarray:
        """The stiffness toeplitz(column) as a read-only strided view of
        (c(M-1), ..., c(1), c(0), ..., c(M-1)): O(M) memory, row i the
        window starting at M-1-i."""
        c = self.column
        return sliding_window_view(np.concatenate((c[:0:-1], c)), c.size)[::-1]

    @cached_property
    def _generator(self) -> np.ndarray:
        """x = A^(-1) e_1 by Durbin's recursion, built on first use (read-only)."""
        x = _levinson_generator(self.column)
        if x is None:
            raise NotSPDError(f"stiffness not SPD for r={self.r}, M={self.column.size}")
        x.flags.writeable = False
        return x

    @cached_property
    def _generator_dft(self) -> np.ndarray:
        """DFTs of x and Z J x of the embedding's length, shape (2, 1,
        n/2 + 1), built on first use (read-only)."""
        x = self._generator
        zjx = np.concatenate(([0.0], x[:0:-1]))  # Z J x = (0, x(M-1), ..., x(1))
        S = np.fft.rfft([x, zjx], 2 * (self._embedding.size - 1))[:, None]
        S.flags.writeable = False
        return S

    @cached_property
    def M_c(self) -> np.ndarray:
        """Dense consistent mass, built on first read (read-only)."""
        Mc = _mass_rows(np.eye(self.domain.M), self.domain.h)
        Mc.flags.writeable = False
        return Mc

    @property
    def M_L(self) -> np.ndarray:
        """Lumped mass h I."""
        return self.domain.h * np.eye(self.domain.M)

    def mass_vector(self, x: np.ndarray) -> np.ndarray:
        """M_c x in a fresh buffer, O(M) per row, for a raw coefficient
        vector or each row of a stack (M_c itself from the identity)."""
        return _mass_rows(x, self.domain.h)

    def mass_solve_vector(self, b: np.ndarray) -> np.ndarray:
        """Solve M_c x = b for a raw coefficient vector in O(M log M) by two
        sine transforms (M_c's eigenvalues are _mass_eigenvalues)."""
        return _sine_solve(b, _mass_eigenvalues(self.domain.M, self.domain.h))

    def _by_rows(self, X: np.ndarray, apply: Callable) -> np.ndarray:
        """apply, which maps a stack of coefficient vectors (rows) to one of
        equal shape, on X, a vector or a stack of rows of length M,
        SOLVE_BLOCK rows at a time.  ValueError on another row length."""
        M = self.column.size
        if X.shape[-1:] != (M,):
            raise ValueError(f"need a vector or rows of length {M}, got shape {X.shape}")
        B = X.reshape(-1, M)
        out = np.empty(B.shape)
        for j in range(0, len(B), SOLVE_BLOCK):
            out[j : j + SOLVE_BLOCK] = apply(B[j : j + SOLVE_BLOCK])
        return out.reshape(X.shape)

    def stiffness_vector(self, x: np.ndarray) -> np.ndarray:
        """A x, (A x)_i = a_r(x, phi_i), for a raw coefficient vector or
        each row of a stack, by circulant embedding: one real FFT pair of
        length 2^k >= 2M - 1 per row.  ValueError on a bad shape."""
        n, M = 2 * (self._embedding.size - 1), self.column.size
        return self._by_rows(
            x, lambda B: np.fft.irfft(self._embedding * np.fft.rfft(B, n), n)[:, :M])

    def tau_solve_vector(self, b: np.ndarray) -> np.ndarray:
        """Solve tau(A) x = b for a raw coefficient vector by two DST-Is."""
        return _sine_solve(b, self._tau)

    def stiffness_norm_inf(self) -> float:
        """||A||_inf in O(M): row i sums to |c(0)| + S(i) + S(M-1-i), S the
        cumulative sums of |c(1)|, ..., |c(M-1)|."""
        c = np.abs(self.column)
        return float(c[0] + _symmetric_row_sums(c[1:]).max())

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a vector, or for each row of a stack rhs, by
        Gohberg-Semencul: six real FFTs of length n >= 2M - 1 per row,
        where L(v)^T b and L(v) t are the heads of a circular correlation
        and convolution.  ValueError on a bad or non-finite rhs."""
        if not np.isfinite(rhs).all():
            raise ValueError("need a finite right-hand side")
        M, n, S = self.column.size, 2 * (self._embedding.size - 1), self._generator_dft

        def solve(B):
            t = np.fft.irfft(S.conj() * np.fft.rfft(B, n), n)[..., :M]
            T = S * np.fft.rfft(t, n)
            return np.fft.irfft(T[0] - T[1], n)[:, :M] / self._generator[0]

        return self._by_rows(rhs, solve)

    def dual_norm_sq(self, v: Field) -> float:
        """Squared dual norm (M_c v)^T A^(-1) (M_c v) realizing X'_{r,0}."""
        if v.domain != self.domain:
            raise DomainMismatchError(f"{v.domain} != {self.domain}")
        rhs = self.mass_vector(v.values)
        return float(rhs @ self.solve_vector(rhs))

    def _dual_kernel_buffer(self) -> np.ndarray:
        """M_c A^(-1) M_c in a fresh, writable, Fortran-ordered buffer, the
        only M x M array built: A^(-1) column by column from B[:, 0] = x by
        B[i:, i] = B[i-1:-1, i-1] + (x_i x[i:] - x_(M-i) x[M-i:0:-1]) / x_0,
        each column mirrored into its row, then the mass stencil down the
        columns and along the rows, in place, on blocks of about sqrt(M)
        columns or rows.  Symmetric up to rounding."""
        M, h, x = self.domain.M, self.domain.h, self._generator
        X = np.empty((M, M), order="F")
        X[:, 0] = X[0] = x
        for i in range(1, M):
            X[i:, i] = X[i - 1 : -1, i - 1] + (x[i] * x[i:] - x[M - i] * x[M - i : 0 : -1]) / x[0]
            X[i, i + 1 :] = X[i + 1 :, i]
        b = math.isqrt(M)
        for j in range(0, M, b):
            X[:, j : j + b] = _mass_rows(X[:, j : j + b].T, h).T
        for i in range(0, M, b):
            X[i : i + b] = _mass_rows(X[i : i + b], h)
        return X

    def gagliardo_sq(self, v: Field) -> float:
        """v^T A v, the squared X_{r,0} norm of the interpolant, by
        stiffness_vector."""
        if v.domain != self.domain:
            raise DomainMismatchError(f"{v.domain} != {self.domain}")
        return float(v.values @ self.stiffness_vector(v.values))


def _symmetric_row_sums(tail: np.ndarray) -> np.ndarray:
    """S(i) + S(n-i), i = 0..n, for tail = t(1..n) and S(i) = t(1) + ... +
    t(i): the off-diagonal row sums of the symmetric Toeplitz matrix with
    first column (t(0), tail)."""
    s = np.concatenate(([0.0], np.cumsum(tail)))
    return s + s[::-1]


def _levinson_generator(c: np.ndarray) -> np.ndarray | None:
    """x = A^(-1) e_1 for A = toeplitz(c), None unless A is positive definite:
    c(0) > 0 and Durbin's reflection coefficients (Golub & Van Loan, Alg.
    4.7.1) in (-1, 1).  Then x = [1, y] / (c(0) beta), y the Yule-Walker
    solution, beta the final prediction error (Trench).  O(M^2) time."""
    if not c[0] > 0.0:
        return None
    rho = c[1:] / c[0]
    y = np.empty(rho.size)
    beta = 1.0
    for k in range(rho.size):
        alpha = -(rho[k] + rho[:k][::-1] @ y[:k]) / beta
        if not abs(alpha) < 1.0:  # also catches NaN
            return None
        y[:k] += alpha * y[:k][::-1]
        y[k] = alpha
        beta *= 1.0 - alpha * alpha
    return np.concatenate(([1.0], y)) / (c[0] * beta)


def _stiffness_column(M: int, h: float, r: float) -> np.ndarray:
    """First column c(0), ..., c(M-1) of the Toeplitz stiffness, from the
    decimal stencil for k <= 2 and the derivative series for k >= 3."""
    k = np.arange(M, dtype=float)
    c = np.empty(M)

    with localcontext(_NEAR):
        a = 1 - 2 * Decimal(r)
        # (|m|^a - 1) / a for |m| = 0..4; m = 0 and 1 add 0
        ratio = [Decimal(0)] * 2 + [log_m if a == 0 else ((a * log_m).exp() - 1) / a
                                    for log_m in _LOG_M]
        near = [float(sum(Decimal(w) * m * m * ratio[abs(m)]
                          for w, m in zip(_STENCIL, range(k - 2, k + 3))))
                for k in range(min(M, 3))]
    c[:3] = 4.0 * np.array(near) / (np.pi * np.sinc(0.5 - r) * math.gamma(4.0 - 2.0 * r))

    far = k[3:]
    if far.size:
        inv_k2 = far**-2.0
        weight = 1.0 / 24.0  # prod_{i=1}^{2n} (2r+i) / (4+2n)!
        power = np.ones_like(far)
        series = np.zeros_like(far)
        n = 0
        while True:
            term = 2.0 * (2.0 ** (4 + 2 * n) - 4.0) * weight * power
            series += term
            if term[0] <= 1e-17 * series[0]:  # k = 3 converges slowest
                break
            n += 1
            weight *= (2 * r + 2 * n - 1) * (2 * r + 2 * n) / ((2 * n + 3) * (2 * n + 4))
            power *= inv_k2
        C_exact = np.sin(np.pi * r) * math.gamma(1.0 + 2.0 * r) / np.pi
        c[3:] = -C_exact * series * far ** (-1.0 - 2.0 * r)
    return h ** (1.0 - 2.0 * r) * c


def assemble(domain: Domain1D, r: float) -> FracOperator:
    """Assemble the stiffness column for order r on the given domain, gate
    it, and transform it for the vector methods."""
    if not 0.0 < r < 1.0:
        raise OutOfRangeError(f"need r in (0, 1), got {r}")
    M, h = domain.M, domain.h
    c = _stiffness_column(M, h, r)

    # sign structure of the nonlocal form: row sums are nonnegative for all
    # orders (strictly positive through the exterior tail); off-diagonals
    # are nonpositive only away from the identity regime - the nearest
    # neighbor entry changes sign near r ~ 0.235, where the operator starts
    # resembling the (positive) mass matrix
    row_min = float(c[0] + _symmetric_row_sums(c[1:]).min())
    if row_min < -QUAD_TOL:
        raise AssemblyError(
            f"r={r}, M={M}: row-sum min {row_min:.3e} below -{QUAD_TOL:g}"
        )
    if r >= 0.25:
        off_max = float(c[1:].max(initial=0.0))  # the off-diagonals of A
        if off_max > QUAD_TOL:
            raise AssemblyError(
                f"r={r}, M={M}: off-diagonal max {off_max:.3e} above {QUAD_TOL:g}"
            )

    n = 1 << (2 * M - 2).bit_length()  # circulant embedding, 2^k >= 2M - 1
    embedding = np.zeros(n)
    embedding[:M] = c
    embedding[n - M + 1 :] = c[:0:-1]
    # the low-frequency spectrum is a small difference of the column's large
    # entries (down to 1e-6 of the largest at r = 0.9, M = 511), where smooth
    # vectors live; an extended-precision transform keeps it accurate
    spectrum = np.fft.rfft(embedding.astype(np.longdouble)).real
    # A is the leading principal submatrix of the embedding C, so A is SPD if
    # every eigenvalue of C, the exact DFT of the embedding, is positive.  A
    # radix-2 FFT of length n reaches each output from each input along one
    # path of unit-modulus twiddles per stage, so its error is at most
    # log2(n) eta ||embedding||_1 with eta = mu + gamma_4 (sqrt(2) + mu) < 4 eps
    # per stage for twiddles within mu <= eps/2 (Higham, Accuracy and
    # Stability, 2nd ed., sec. 24.1).  The real transform adds one pass, and
    # 4 eps (log2(n) + 1) <= 8 eps log2(n) for n >= 2; 16 covers that twice,
    # with eps that of longdouble, which may be just double
    bound = 16 * math.log2(n) * np.finfo(np.longdouble).eps * np.abs(embedding).sum()
    if not spectrum.min() > bound and _levinson_generator(c) is None:
        raise NotSPDError(f"stiffness not SPD for r={r}, M={M}")
    # tau(A) = A - hankel((c(2), ..., c(M-1), 0, 0), reversed) has eigenvalues
    # c(0) + 2 sum_{0<k<M} c(k) cos(k pi j/(M+1)).  For r >= 1/4 all c(k>0) <= 0
    # and c(0) + 2 sum_{k>0} c(k) = 0, so each is >= -2 sum_{k>=M} c(k) > 0
    t = c - np.concatenate((c[2:], [0.0, 0.0]))  # first column of tau(A)
    tau = _dst(t) / (-2.0 * np.sin(np.pi * np.arange(1, M + 1) / (M + 1)))
    if not tau.min() > 0.0:
        raise AssemblyError(f"r={r}, M={M}: tau preconditioner min eigenvalue {tau.min():.3e}")

    stored = (c, spectrum.astype(float), tau)
    for arr in stored:  # an operator may serve several flows
        arr.flags.writeable = False
    return FracOperator(domain, r, *stored)
