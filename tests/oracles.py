"""Independent reference computations used to validate the library.

These deliberately avoid the library's assembly/quadrature code paths:
the seminorm oracle works on the Fourier side via padded FFTs, the closed
form comes from evaluating the hat-function bilinear form analytically, and
the Riemann-sum oracle is a plain truncated double sum.  The Cahn-Hilliard
step functional is rebuilt from the closed-form stiffness, a hand-written
consistent mass and the library's dual norm, not from its dual kernel.
"""

from __future__ import annotations

import numpy as np
from math import cos, gamma, log, pi

from fracfield.fracop import OutOfRangeError, kernel_constant
from fracfield.grid import Domain1D, Field


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


def gagliardo_sq_riemann(field: Field, r: float, n: int = 2400) -> float:
    """Plain truncated double Riemann sum of the Gagliardo form (diagonal
    band dropped, closed-form exterior tail), accurate to a percent or so."""
    dom = field.domain
    a, b = dom.a, dom.b
    C = kernel_constant(r).value
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
    C = kernel_constant(r, 1).value
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
