import numpy as np
import pytest

import fracfield as ff
from fracfield.fracop import OutOfRangeError
from fracfield.spectral import (
    dirichlet_lambda1,
    eigen_bounds,
    second_eigenvalue,
    sweep_to_csv,
)

from oracles import poincare_lower_bound


def test_first_eigenpair_residual_and_sign(unit64):
    for op in unit64.values():
        pair = ff.first_eigenpair(op)
        assert pair.residual <= 1e-10
        assert pair.e1.values.min() > 0.0
        assert pair.e1.values @ (op.M_c @ pair.e1.values) == pytest.approx(1.0, rel=1e-12)


def test_first_eigenpair_rayleigh_consistency(unit64):
    op = unit64[0.5]
    pair = ff.first_eigenpair(op)
    rayleigh = op.gagliardo_sq(pair.e1) / (pair.e1.values @ (op.M_c @ pair.e1.values))
    assert abs(pair.lambda1 - rayleigh) <= 1e-14 * pair.lambda1


def test_half_order_eigenvalue_between_bounds(unit64):
    # the classical interval eigenvalue is pi^2, so the upper bound at
    # r = 1/2 is pi; the analytic lower bound sits well below
    dom = ff.make_domain(0, 1, 64)
    pair = ff.first_eigenpair(unit64[0.5])
    assert poincare_lower_bound(dom, 0.5) <= pair.lambda1 <= np.pi


def test_eigen_residual_defines_generalized_pair(unit64):
    op = unit64[0.25]
    pair = ff.first_eigenpair(op)
    res = op.A @ pair.e1.values - pair.lambda1 * (op.M_c @ pair.e1.values)
    assert np.linalg.norm(res) <= 1e-10 * pair.lambda1 * np.linalg.norm(op.M_c @ pair.e1.values)


def test_kappa_exact_value():
    assert ff.kappa(1, 2.0) == 3.0


def test_kappa_tends_to_one():
    assert ff.kappa(1, 1e-6) == pytest.approx(1.0, abs=1e-4)
    assert ff.kappa(1, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_kappa_positive_on_range():
    for alpha in np.linspace(0.05, 4.0, 25):
        k = ff.kappa(1, float(alpha))
        assert np.isfinite(k) and k > 0


def test_kappa_two_dimensional_ball_volume():
    # d(2) = pi enters only through the (d/alpha)^(a/(N+a)) factor
    assert ff.kappa(2, 2.0) == pytest.approx((np.pi / 2) ** 0.5 * 4 * 2 ** (-0.5), rel=1e-12)


def test_kappa_rejects_nonpositive_alpha():
    with pytest.raises(OutOfRangeError):
        ff.kappa(1, 0.0)


def test_lambda1_lower_bound_tends_to_one():
    assert ff.lambda1_lower_bound(1e-6, 1, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_lambda1_lower_bound_formula_independent_evaluation():
    # second, separate transcription of the same closed form
    r, N, vol = 0.5, 1, 1.0
    kap = (2.0 / (2 * r)) ** (2 * r / (2 * r + N)) * (2 * r + N) * N ** (-N / (N + 2 * r))
    expected = kap ** (-(N + 2 * r) / N) * ((2 * np.pi) ** N / vol) ** (2 * r / N)
    assert ff.lambda1_lower_bound(r, N, vol) == pytest.approx(expected, rel=1e-13)


def test_lambda1_lower_bound_below_discrete_eigenvalue(get_op):
    for r in (0.05, 0.1, 0.2):
        lam1 = ff.first_eigenpair(get_op(0.0, 1.0, 256, r)).lambda1
        assert ff.lambda1_lower_bound(r, 1, 1.0) - 1e-9 <= lam1


def test_small_order_eigenvalue_window(get_op):
    lam1 = ff.first_eigenpair(get_op(0.0, 1.0, 256, 0.05)).lambda1
    assert 0.8 <= lam1 <= 1.12


def test_sweep_rows_satisfy_bounds(get_op):
    dom = ff.make_domain(0, 1, 256)
    rows = ff.lambda1_sweep(dom, [0.05, 0.1, 0.2], refinements=[256])
    for row in rows:
        assert row["lower"] - 1e-9 <= row["lambda1"] <= row["upper"] + 0.05
        assert row["residual"] <= 1e-10


def test_sweep_refinement_decreases_toward_continuum():
    # conforming Galerkin approximates the minimum of the Rayleigh quotient
    # from above, so nested refinement lowers lambda1; the decrements shrink
    # at least geometrically with observed order >= 0.5
    dom = ff.make_domain(0, 1, 63)
    rows = ff.lambda1_sweep(dom, [0.3], refinements=[63, 127, 255])
    lams = [row["lambda1"] for row in rows]
    assert lams[0] >= lams[1] - 1e-3 and lams[1] >= lams[2] - 1e-3
    d1, d2 = lams[0] - lams[1], lams[1] - lams[2]
    assert d1 / d2 >= np.sqrt(2.0)


def test_spectral_gap_is_strictly_positive(unit64):
    op = unit64[0.5]
    pair = ff.first_eigenpair(op)
    lam2 = second_eigenvalue(op, pair)
    assert lam2 - pair.lambda1 > 1e-6


def test_eigen_bounds_ordering():
    dom = ff.make_domain(0, 1, 32)
    for r in (0.1, 0.4, 0.8):
        b = eigen_bounds(dom, r)
        assert 0 < b.lower <= b.upper


def test_dirichlet_reference_eigenvalue():
    assert dirichlet_lambda1(ff.make_domain(0, 1, 8)) == pytest.approx(np.pi**2)
    assert dirichlet_lambda1(ff.make_domain(0, 10, 8)) == pytest.approx(np.pi**2 / 100)


def test_sweep_csv_format():
    dom = ff.make_domain(0, 1, 32)
    rows = ff.lambda1_sweep(dom, [0.5], refinements=[32])
    text = sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "r,M,lambda1,lower,upper,residual"
    fields = lines[1].split(",")
    assert float(fields[2]) == rows[0]["lambda1"]  # 17-digit round trip
