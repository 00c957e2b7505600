import numpy as np
import pytest
from scipy.linalg import cho_factor, hankel, solve_toeplitz, toeplitz
from scipy import special
from hypothesis import given, settings, strategies as st

import fracfield as ff
from fracfield import fracop
from fracfield.fracop import AssemblyError, NotSPDError, OutOfRangeError
from fracfield.grid import DomainMismatchError

from oracles import (
    dual_kernel_cho_solve,
    dual_kernel_dpotri,
    dual_kernel_mpmath,
    fft_seminorm_sq,
    gagliardo_sq_riemann,
    hat_form_coefficient_mpmath,
    kernel_integral_trapezoid,
    mass_solve_banded,
    poincare_lower_bound,
    solve_cholesky,
    stiffness_closed_form,
    stiffness_panel_quadrature,
)


# ---------------------------------------------------------------- constant
def test_kernel_constant_small_r_asymptotics():
    c = ff.kernel_constant(1e-3)
    assert c / (1e-3 * (1 - 1e-3)) == pytest.approx(1.0, abs=0.01)


def test_kernel_constant_against_trapezoid_oracle():
    lib = ff.kernel_constant(0.5)
    oracle = 1.0 / kernel_integral_trapezoid(0.5)
    assert abs(lib - oracle) / oracle <= 1e-8


def test_kernel_constant_deterministic():
    assert ff.kernel_constant(0.5) == ff.kernel_constant(0.5)
    assert ff.kernel_constant(0.37) == ff.kernel_constant(0.37)


def test_kernel_constant_out_of_range():
    for r in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(OutOfRangeError):
            ff.kernel_constant(r)


def test_kernel_constant_matches_gamma_closed_form():
    from math import gamma, pi

    for r in (0.1, 0.25, 0.5, 0.75, 0.9):
        closed = r * (1 - r) * 4**r * gamma(0.5 + r) / (pi**0.5 * gamma(2 - r))
        assert ff.kernel_constant(r) == pytest.approx(closed, rel=1e-9)


# ---------------------------------------------------------------- assembly
def test_stiffness_exactly_symmetric(unit64):
    for op in unit64.values():
        assert np.abs(op.A - op.A.T).max() == 0.0


def test_stiffness_sign_structure(unit64):
    for r, op in unit64.items():
        off = op.A - np.diag(np.diag(op.A))
        assert off.max() <= 1e-8, f"positive off-diagonal at r={r}"
        assert op.A.sum(axis=1).min() >= -1e-8, f"negative row sum at r={r}"


def test_stiffness_depends_only_on_node_offset(unit64):
    # the hat functions are translates, so the full-space form is Toeplitz;
    # interior panels and exterior tails must recombine to that structure
    for r, op in unit64.items():
        A = stiffness_panel_quadrature(op.domain, r)
        scale = np.abs(A).max()
        for k in range(A.shape[0]):
            diag = np.diagonal(A, k)
            assert np.abs(diag - diag[0]).max() <= 1e-10 * scale


def test_stiffness_matches_closed_form():
    dom = ff.Domain1D(0, 1, 24)
    for r in (0.25, 0.5, 0.75):
        op = ff.assemble(dom, r)
        ref = stiffness_closed_form(24, dom.h, r)
        assert np.abs(op.A - ref).max() <= 1e-9 * np.abs(ref).max()


def test_stiffness_matches_panel_quadrature_oracle():
    for M in (24, 64):
        dom = ff.Domain1D(0, 1, M)
        for r in (0.1, 0.25, 0.5, 0.75, 0.9):
            A = ff.assemble(dom, r).A
            ref = stiffness_panel_quadrature(dom, r)
            assert np.abs(A - ref).max() <= 1e-10 * np.abs(A).max(), (M, r)


def test_stiffness_column_matches_mpmath():
    ks = list(range(41)) + [100, 1000, 2047, 4095]
    for r in (0.02, 0.05, 0.1, 0.25, 0.3, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.75, 0.9):
        c = fracop._stiffness_column(4096, 1.0, r)[ks]
        ref = np.array([hat_form_coefficient_mpmath(k, r) for k in ks])
        # near r = 0, c(2) is about -1.6e-2 c(0) and its stencil cancels
        # several hundredfold, so that entry is gated against c(0)
        scale = abs(c[0]) if r == 0.02 else np.abs(ref)
        assert np.all(np.abs(c - ref) <= 1e-13 * scale), r


def test_assembly_gates_fire(monkeypatch):
    dom = ff.Domain1D(0, 1, 16)
    column = fracop._stiffness_column

    def perturbed(k, value):
        def patched(M, h, r):
            c = column(M, h, r)
            c[k] = value
            return c
        monkeypatch.setattr(fracop, "_stiffness_column", patched)

    perturbed(1, 1e-6)  # positive off-diagonal
    with pytest.raises(AssemblyError, match="off-diagonal"):
        ff.assemble(dom, 0.5)
    perturbed(1, -1.0)  # rows sum below zero
    with pytest.raises(AssemblyError, match="row-sum"):
        ff.assemble(dom, 0.5)
    perturbed(1, 10.0)  # positive rows, indefinite; no sign gate below r = 1/4
    with pytest.raises(NotSPDError):
        ff.assemble(dom, 0.1)
    # SPD (eigenvalues 0.4, 1, 1.6), passes Durbin, rows sum to 1.6, 1, 1.6,
    # but tau(A) = [[0.4, 0, 0.6], [0, 1, 0], [0.6, 0, 0.4]] has eigenvalue -0.2
    bad = np.array([1.0, 0.0, 0.6])
    assert fracop._levinson_generator(bad) is not None
    monkeypatch.setattr(fracop, "_stiffness_column", lambda M, h, r: bad.copy())
    with pytest.raises(AssemblyError, match="tau"):
        ff.assemble(ff.Domain1D(0, 1, 3), 0.1)


@pytest.mark.parametrize("M", [2, 3, 64, 1023])
def test_tau_gate_passes_every_order(M):
    # the tau eigenvalues are provably positive for r >= 1/4 only; below,
    # the gate must still never fire on the library's own column
    for r in (1e-4, 0.01, 0.1, 0.2, 0.235, 0.3, 0.5, 0.9, 0.999):
        assert ff.assemble(ff.Domain1D(0, 1, M), r)._tau.min() > 0.0


def test_quadratic_form_matches_fourier_oracle(unit64, rng):
    for r, op in unit64.items():
        for _ in range(3):
            v = ff.Field(op.domain, rng.standard_normal(64))
            qa = op.gagliardo_sq(v)
            qf = fft_seminorm_sq(v, r)
            assert abs(qa - qf) / qa <= 0.02


def test_quadratic_form_matches_plain_riemann_sum():
    dom = ff.Domain1D(0, 1, 24)
    op = ff.assemble(dom, 0.25)
    v = ff.bump_field(dom)
    qa = op.gagliardo_sq(v)
    qr = gagliardo_sq_riemann(v, 0.25)
    assert abs(qa - qr) / qa <= 0.01


def test_monotone_pairing_with_beta(unit64, rng):
    params = ff.PotentialParams(p=3)
    for op in unit64.values():
        for _ in range(100):
            v = rng.standard_normal(64)
            pairing = ff.beta(params, v) @ (op.A @ v)
            assert pairing >= -1e-8


def test_identity_limit_at_fixed_resolution(get_op):
    dom = ff.Domain1D(0, 1, 64)
    v = ff.sample(dom, lambda x: np.sin(np.pi * x))
    Mc = get_op(0.0, 1.0, 64, 0.5).M_c
    ref = float(v.values @ (Mc @ v.values))
    gaps = []
    for r in (0.4, 0.2, 0.1, 0.05):
        op = get_op(0.0, 1.0, 64, r)
        gaps.append(abs(op.gagliardo_sq(v) - ref) / ref)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.10


def test_torsion_energy_error_has_order_one_half():
    # on (-1, 1), u = (1 - x^2)_+^s / Gamma(2s+1) solves (-Delta)^s u = 1
    # (Getoor, Trans. AMS 101, 1961).  With A u_h = h 1, Galerkin
    # orthogonality gives the squared energy error exactly:
    # int u - u_h^T A u_h = B(1/2, s+1) / Gamma(2s+1) - h sum(u_h).  P1
    # elements converge like h^(1/2) in energy (Acosta & Borthagaray, SIAM
    # J. Numer. Anal. 55, 2017), so the squared error halves with h.  The
    # solve is Levinson's, not the library's
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        int_u = special.beta(0.5, s + 1.0) / special.gamma(2.0 * s + 1.0)
        errs = []
        for n in (2**10, 2**11, 2**12):  # M + 1 intervals
            op = ff.assemble(ff.Domain1D(-1, 1, n - 1), s)
            h = op.domain.h
            errs.append(int_u - h * solve_toeplitz(op.column, np.full(n - 1, h)).sum())
        assert min(errs) > 0, (s, errs)
        orders = [np.log2(e1 / e2) / 2 for e1, e2 in zip(errs, errs[1:])]
        assert all(0.49 <= o <= 0.51 for o in orders), (s, orders)


def test_assemble_rejects_bad_order():
    dom = ff.Domain1D(0, 1, 8)
    with pytest.raises(OutOfRangeError):
        ff.assemble(dom, 1.2)


# ---------------------------------------------------------------- operators
def test_apply_zero_and_linearity(unit64, rng):
    op = unit64[0.5]
    dom = op.domain
    assert np.all(op.stiffness_vector(np.zeros(dom.M)) == 0.0)
    assert op.gagliardo_sq(ff.Field(dom, np.zeros(dom.M))) == 0.0
    u = rng.standard_normal(64)
    v = rng.standard_normal(64)
    assert np.allclose(op.stiffness_vector(u + v),
                       op.stiffness_vector(u) + op.stiffness_vector(v), rtol=0, atol=1e-12)


def test_apply_on_first_eigenfunction(unit64):
    # the relative 2-norm residual exceeds the backward error the solver
    # stops on by up to about ||A||_inf / (lambda1 h) = 48.8 here, so
    # eig_tol = 1e-12 is what implies the 1e-9 bound
    op = unit64[0.5]
    pair = ff.first_eigenpair(op, eig_tol=1e-12)
    lhs = op.stiffness_vector(pair.e1.values)
    rhs = pair.lambda1 * (op.M_c @ pair.e1.values)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_apply_domain_mismatch(unit64):
    # Field methods check the domain; the raw-vector product checks the shape
    op = unit64[0.5]
    other = ff.bump_field(ff.Domain1D(0, 1, 32))
    with pytest.raises(DomainMismatchError):
        op.gagliardo_sq(other)
    with pytest.raises(ValueError):
        op.stiffness_vector(other.values)


def test_stiffness_vector_matches_the_dense_product(unit64, rng):
    # the FFT product differs from the dense one by rounding only
    small = [ff.assemble(ff.Domain1D(0, 1, M), 0.7) for M in (2, 3, 257)]
    for op in list(unit64.values()) + small:
        x = rng.standard_normal(op.domain.M)
        err = np.abs(op.stiffness_vector(x) - op.A @ x).max()
        assert err <= 1e-14 * np.linalg.norm(op.A, ord=np.inf) * np.abs(x).max()


def test_stiffness_vector_is_normwise_accurate(rng):
    # the FFT product against a long-double one, for a vector and for the
    # 40 columns of a matrix (two blocks), within 5e-16 ||A||_inf |x|_inf;
    # the reference convolves each column with (c(M-1), ..., c(0), ..., c(M-1))
    cases = [(M, r, k) for M in (64, 1023) for r in (0.1, 0.5, 0.75, 0.9)
             for k in (None, 40)] + [(4095, 0.9, None)]
    for M, r, k in cases:
        op = ff.assemble(ff.Domain1D(0, 1, M), r)
        x = rng.standard_normal(M if k is None else (M, k))
        v = np.concatenate((op.column[:0:-1], op.column)).astype(np.longdouble)
        cols = x.reshape(M, -1).T.astype(np.longdouble)
        exact = np.array([np.convolve(v, col)[M - 1 : 2 * M - 1] for col in cols]).T
        err = np.abs(op.stiffness_vector(x).reshape(M, -1) - exact).max(axis=0)
        bound = 5e-16 * op.stiffness_norm_inf() * np.abs(x.reshape(M, -1)).max(axis=0)
        assert np.all(err <= bound), (M, r, k, float(np.max(err / bound)))


@pytest.mark.parametrize("M", [2, 3, 64, 257])
def test_stiffness_norm_inf_from_the_column(M):
    op = ff.assemble(ff.Domain1D(0, 1, M), 0.7)
    ref = np.linalg.norm(toeplitz(op.column), ord=np.inf)
    assert op.stiffness_norm_inf() == pytest.approx(ref, rel=1e-14)


def _tau_matrix(c: np.ndarray) -> np.ndarray:
    """The natural tau matrix toeplitz(c) - hankel(h, reversed h), h =
    (c(2), ..., c(M-1), 0, 0) (Bini & Capovani), densely."""
    h = np.concatenate((c[2:], [0.0, 0.0]))
    return toeplitz(c) - hankel(h, h[::-1])


def test_tau_solve_inverts_the_toeplitz_minus_hankel_matrix(rng):
    # the stored eigenvalues are those of the dense tau matrix, and two sine
    # transforms solve with it
    for r, M in [(0.5, 64), (0.9, 65), (0.1, 3), (0.7, 2)]:
        op = ff.assemble(ff.Domain1D(0, 1, M), r)
        T = _tau_matrix(op.column)
        ev = np.linalg.eigvalsh(T)
        assert np.abs(np.sort(op._tau) - ev).max() <= 1e-13 * ev.max(), (r, M)
        b = rng.standard_normal(M)
        x = op.tau_solve_vector(b)
        assert np.linalg.norm(T @ x - b) <= 1e-13 * np.linalg.norm(b), (r, M)


def test_dense_storage_is_built_on_first_use():
    # A is a view of 2M - 1 values, never cached; M_c is built on first read
    M = 32
    op = ff.assemble(ff.Domain1D(0, 1, M), 0.5)
    assert "A" not in vars(op) and "M_c" not in vars(op)
    assert op._chol == [None] and op._dual_kernel_cache == [None]
    op.solve_vector(np.ones(M))
    assert "A" not in vars(op) and op._chol == [None]
    A = op.A
    assert np.array_equal(A, toeplitz(op.column))
    assert "A" not in vars(op)
    lo, hi = np.lib.array_utils.byte_bounds(A)
    assert hi - lo <= (2 * M - 1) * A.itemsize
    assert not A.flags.writeable and not op.M_c.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 0.0


@pytest.mark.parametrize("seed", range(5))
def test_durbin_gate_agrees_with_cholesky(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        c = rng.standard_normal(n)
        c[0] = abs(c[0]) + n * rng.random()
        try:
            cho_factor(toeplitz(c))
            spd = True
        except np.linalg.LinAlgError:
            spd = False
        assert (fracop._levinson_generator(c) is not None) == spd


def _backward_error(op, x: np.ndarray, b: np.ndarray, norm_A: float) -> float:
    """||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), A x by FFT."""
    r = op.stiffness_vector(x) - b
    return float(np.abs(r).max() / (norm_A * np.abs(x).max() + np.abs(b).max()))


def test_solve_vector_is_backward_stable(rng):
    # Levinson-type solvers are only weakly stable (Cybenko 1980), so the
    # Gohberg-Semencul solve is gated on its normwise backward error, for
    # one right-hand side and for 40 (two column blocks; one right-hand
    # side at M = 16383, where 40 would cost 0.2 s), and against the
    # earlier Cholesky solve at M = 255
    cases = [(M, r) for M in (255, 4095) for r in (0.02, 0.1, 0.5, 0.9)] + [(16383, 0.9)]
    for M, r in cases:
        op = ff.assemble(ff.Domain1D(0, 1, M), r)
        norm_A = op.stiffness_norm_inf()
        b = rng.standard_normal(M)
        assert _backward_error(op, op.solve_vector(b), b, norm_A) <= 1e-14, (M, r)
        if M == 16383:
            continue
        B = rng.standard_normal((M, 40))
        X = op.solve_vector(B)
        for j in range(B.shape[1]):
            assert _backward_error(op, X[:, j], B[:, j], norm_A) <= 1e-14, (M, r, j)
        if M == 255:
            ref = solve_cholesky(op, B)
            assert np.abs(X - ref).max() <= 1e-14 * np.linalg.cond(op.A) * np.abs(ref).max()


@pytest.mark.parametrize("M", [2, 3, 64, 2047, 16383])
def test_mass_solve_vector_is_backward_stable(rng, M):
    # two sine transforms against the earlier banded LAPACK solve; M_c has
    # ||M_c||_inf = h and condition number at most 3
    op = ff.assemble(ff.Domain1D(0, 1, M), 0.5)
    h, b = op.domain.h, rng.standard_normal(M)
    x = op.mass_solve_vector(b)
    backward = np.abs(op.mass_vector(x) - b).max() / (h * np.abs(x).max() + np.abs(b).max())
    assert backward <= 1e-15
    ref = mass_solve_banded(op, b)
    assert np.abs(x - ref).max() <= 2e-15 * np.abs(ref).max()


def test_mass_solve_vector_matches_dense_solve(unit64, rng):
    op = unit64[0.5]
    b = rng.standard_normal(op.domain.M)
    ref = np.linalg.solve(op.M_c, b)
    assert np.linalg.norm(op.mass_solve_vector(b) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_solve_zero(unit64):
    op = unit64[0.5]
    u = op.solve_vector(op.M_c @ ff.Field(op.domain, np.zeros(op.domain.M)).values)
    assert np.all(u == 0.0)


def test_solve_apply_roundtrip(unit64, rng):
    op = unit64[0.25]
    f = ff.Field(op.domain, rng.standard_normal(64))
    rhs = op.M_c @ f.values
    u = op.solve_vector(rhs)
    assert np.linalg.norm(op.stiffness_vector(u) - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_eigen_scaling(unit64):
    op = unit64[0.75]
    pair = ff.first_eigenpair(op)
    u = op.solve_vector(op.M_c @ pair.e1.values)
    assert np.allclose(u, pair.e1.values / pair.lambda1, rtol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_vector_rejects_non_finite_rhs(unit64, bad):
    op = unit64[0.5]
    rhs = np.ones(64)
    rhs[17] = bad
    with pytest.raises(ValueError):
        op.solve_vector(rhs)


def test_mass_vector_is_the_consistent_mass_product(unit64, rng):
    op = unit64[0.5]
    pair = ff.first_eigenpair(op)
    for x in (np.ones(64), rng.random(64), rng.standard_normal(64), pair.e1.values):
        dense = op.M_c @ x
        assert np.max(np.abs(op.mass_vector(x) - dense)) <= 1e-15 * np.max(np.abs(dense))


def test_mass_rows_is_the_dense_mass_product(unit64):
    # the stencil on the rows of Y = A^-1 M_c, as the dual kernel uses it
    for op in unit64.values():
        Y = np.linalg.solve(op.A, op.M_c)
        dense = op.M_c @ Y
        rows = fracop._mass_rows(Y, op.domain.h)
        assert np.max(np.abs(rows - dense)) <= 1e-15 * np.max(np.abs(dense))
        assert np.array_equal(fracop._mass_rows(np.eye(64), op.domain.h), op.M_c)


def test_dual_kernel_matches_the_dense_form(unit64):
    for op in unit64.values():
        dense = op.M_c @ np.linalg.solve(op.A, op.M_c)
        K = op._dual_kernel_buffer()
        assert K.flags.writeable and K.flags.f_contiguous
        assert np.max(np.abs(K - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_dual_norm_zero_and_eigen_identity(unit64):
    op = unit64[0.5]
    assert op.dual_norm_sq(ff.Field(op.domain, np.zeros(op.domain.M))) == 0.0
    pair = ff.first_eigenpair(op)
    # for the M_c-normalized eigenfunction the dual norm is 1/lambda1
    assert op.dual_norm_sq(pair.e1) == pytest.approx(1.0 / pair.lambda1, rel=1e-9)


def test_dual_norm_matches_dense_form(unit64, rng):
    for op in unit64.values():
        v = ff.Field(op.domain, rng.standard_normal(op.domain.M))
        rhs = op.M_c @ v.values
        ref = float(rhs @ np.linalg.solve(op.A, rhs))
        assert abs(op.dual_norm_sq(v) - ref) <= 1e-14 * ref


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_dual_norm_quadratic_scaling(c):
    dom = ff.Domain1D(0, 1, 16)
    op = ff.assemble(dom, 0.5)
    v = ff.bump_field(dom)
    assert op.dual_norm_sq(c * v) == pytest.approx(c**2 * op.dual_norm_sq(v), rel=1e-10, abs=1e-300)


def test_discrete_poincare_inequality(unit64, rng):
    op = unit64[0.5]
    lam1 = ff.first_eigenpair(op).lambda1
    for _ in range(20):
        v = rng.standard_normal(64)
        l2 = v @ (op.M_c @ v)
        assert l2 <= (v @ (op.A @ v)) / lam1 + 1e-10


# ---------------------------------------------------------------- bounds
def test_poincare_lower_bound_unit_interval_value():
    # R = 1/2, |B_{R+1} \ Omega| = 2, (2R+2)^(1+2r) = 9 at r = 1/2
    dom = ff.Domain1D(0, 1, 16)
    expected = 0.5 * ff.kernel_constant(0.5) * 2.0 / 9.0
    assert poincare_lower_bound(dom, 0.5) == pytest.approx(expected, rel=1e-14)


def test_poincare_lower_bound_positive_sweep():
    dom = ff.Domain1D(0, 1, 16)
    for r in np.arange(0.1, 0.95, 0.1):
        assert poincare_lower_bound(dom, float(r)) > 0.0


def test_poincare_lower_bound_below_discrete_eigenvalue(get_op):
    dom = ff.Domain1D(0, 1, 128)
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        lam1 = ff.first_eigenpair(get_op(0.0, 1.0, 128, r)).lambda1
        assert poincare_lower_bound(dom, r) <= lam1


def test_dual_kernels_match_an_mpmath_reference():
    # the library's kernel (the Gohberg-Semencul recurrence, then the
    # stencil on both sides) and the two earlier ones (dpotri on the
    # Cholesky factor; an M right-hand-side Cholesky solve), against 30 digits
    for r in (0.1, 0.5, 0.9):
        op = ff.assemble(ff.Domain1D(0, 1, 48), r)
        ref = dual_kernel_mpmath(op)
        for K in (op._dual_kernel_buffer(), dual_kernel_dpotri(op), dual_kernel_cho_solve(op)):
            assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref)), r
