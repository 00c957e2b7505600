import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracfield as ff
from fracfield.fracop import OutOfRangeError
from fracfield.grid import DomainMismatchError

from oracles import (
    fft_seminorm_sq,
    gagliardo_sq_riemann,
    kernel_integral_trapezoid,
    poincare_lower_bound,
    stiffness_closed_form,
)


# ---------------------------------------------------------------- constant
def test_kernel_constant_small_r_asymptotics():
    c = ff.kernel_constant(1e-3)
    assert c.value / (1e-3 * (1 - 1e-3)) == pytest.approx(1.0, abs=0.01)


def test_kernel_constant_against_trapezoid_oracle():
    lib = ff.kernel_constant(0.5).value
    oracle = 1.0 / kernel_integral_trapezoid(0.5)
    assert abs(lib - oracle) / oracle <= 1e-8


def test_kernel_constant_deterministic():
    assert ff.kernel_constant(0.5).value == ff.kernel_constant(0.5).value
    assert ff.kernel_constant(0.37, 1) == ff.kernel_constant(0.37, 1)


def test_kernel_constant_out_of_range():
    for r in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(OutOfRangeError):
            ff.kernel_constant(r)


def test_kernel_constant_matches_gamma_closed_form():
    from math import gamma, pi

    for r in (0.1, 0.25, 0.5, 0.75, 0.9):
        closed = r * (1 - r) * 4**r * gamma(0.5 + r) / (pi**0.5 * gamma(2 - r))
        assert ff.kernel_constant(r).value == pytest.approx(closed, rel=1e-9)


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
    for op in unit64.values():
        A = op.A
        scale = np.abs(A).max()
        for k in range(A.shape[0]):
            diag = np.diagonal(A, k)
            assert np.abs(diag - diag[0]).max() <= 1e-10 * scale


def test_stiffness_matches_closed_form():
    dom = ff.make_domain(0, 1, 24)
    for r in (0.25, 0.5, 0.75):
        op = ff.assemble(dom, r)
        ref = stiffness_closed_form(24, dom.h, r)
        assert np.abs(op.A - ref).max() <= 1e-9 * np.abs(ref).max()


def test_quadratic_form_matches_fourier_oracle(unit64, rng):
    for r, op in unit64.items():
        for _ in range(3):
            v = ff.Field(op.domain, rng.standard_normal(64))
            qa = op.gagliardo_sq(v)
            qf = fft_seminorm_sq(v, r)
            assert abs(qa - qf) / qa <= 0.02


def test_quadratic_form_matches_plain_riemann_sum():
    dom = ff.make_domain(0, 1, 24)
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
    dom = ff.make_domain(0, 1, 64)
    v = ff.sample(dom, lambda x: np.sin(np.pi * x))
    Mc = get_op(0.0, 1.0, 64, 0.5).M_c
    ref = float(v.values @ (Mc @ v.values))
    gaps = []
    for r in (0.4, 0.2, 0.1, 0.05):
        op = get_op(0.0, 1.0, 64, r)
        gaps.append(abs(op.gagliardo_sq(v) - ref) / ref)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.10


def test_assemble_rejects_bad_order():
    dom = ff.make_domain(0, 1, 8)
    with pytest.raises(OutOfRangeError):
        ff.assemble(dom, 1.2)


# ---------------------------------------------------------------- operators
def test_apply_zero_and_linearity(unit64, rng):
    op = unit64[0.5]
    dom = op.domain
    assert np.all(op.apply(ff.zero_field(dom)) == 0.0)
    assert op.gagliardo_sq(ff.zero_field(dom)) == 0.0
    u = ff.Field(dom, rng.standard_normal(64))
    v = ff.Field(dom, rng.standard_normal(64))
    assert np.allclose(op.apply(u + v), op.apply(u) + op.apply(v), rtol=0, atol=1e-12)


def test_apply_on_first_eigenfunction(unit64):
    op = unit64[0.5]
    pair = ff.first_eigenpair(op)
    lhs = op.apply(pair.e1)
    rhs = pair.lambda1 * (op.M_c @ pair.e1.values)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_apply_domain_mismatch(unit64):
    with pytest.raises(DomainMismatchError):
        unit64[0.5].apply(ff.bump_field(ff.make_domain(0, 1, 32)))


def test_solve_zero(unit64):
    op = unit64[0.5]
    u = op.solve(ff.zero_field(op.domain))
    assert np.all(u.values == 0.0)


def test_solve_apply_roundtrip(unit64, rng):
    op = unit64[0.25]
    f = ff.Field(op.domain, rng.standard_normal(64))
    u = op.solve(f)
    rhs = op.M_c @ f.values
    assert np.linalg.norm(op.apply(u) - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_eigen_scaling(unit64):
    op = unit64[0.75]
    pair = ff.first_eigenpair(op)
    u = op.solve(pair.e1)
    assert np.allclose(u.values, pair.e1.values / pair.lambda1, rtol=1e-8)


def test_dual_norm_zero_and_eigen_identity(unit64):
    op = unit64[0.5]
    assert op.dual_norm_sq(ff.zero_field(op.domain)) == 0.0
    pair = ff.first_eigenpair(op)
    # for the M_c-normalized eigenfunction the dual norm is 1/lambda1
    assert op.dual_norm_sq(pair.e1) == pytest.approx(1.0 / pair.lambda1, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_dual_norm_quadratic_scaling(c):
    dom = ff.make_domain(0, 1, 16)
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
    dom = ff.make_domain(0, 1, 16)
    expected = 0.5 * ff.kernel_constant(0.5).value * 2.0 / 9.0
    assert poincare_lower_bound(dom, 0.5) == pytest.approx(expected, rel=1e-14)


def test_poincare_lower_bound_positive_sweep():
    dom = ff.make_domain(0, 1, 16)
    for r in np.arange(0.1, 0.95, 0.1):
        assert poincare_lower_bound(dom, float(r)) > 0.0


def test_poincare_lower_bound_below_discrete_eigenvalue(get_op):
    dom = ff.make_domain(0, 1, 128)
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        lam1 = ff.first_eigenpair(get_op(0.0, 1.0, 128, r)).lambda1
        assert poincare_lower_bound(dom, r) <= lam1
