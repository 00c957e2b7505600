import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracfield.potential import (
    PotentialParams,
    W,
    beta,
    beta_hat,
    beta_hat_reg,
    beta_prime_reg,
    beta_reg,
)

from oracles import truncate_beta, yosida_beta


def test_params_reject_p_two():
    with pytest.raises(ValueError):
        PotentialParams(p=2.0)


def test_params_reject_zero_delta_for_subquadratic_p():
    with pytest.raises(ValueError):
        PotentialParams(p=1.5, delta=0.0)
    assert PotentialParams(p=1.5).delta == 1e-8
    assert PotentialParams(p=4).delta == 0.0


def test_beta_basic_values():
    assert beta(PotentialParams(p=4), 0.0) == 0.0
    assert beta(PotentialParams(p=4), 2.0) == pytest.approx(8.0, rel=1e-15)
    assert beta(PotentialParams(p=1.5), 4.0) == pytest.approx(2.0, rel=1e-15)


def test_beta_hat_basic_values():
    assert beta_hat(PotentialParams(p=4), 0.0) == 0.0
    assert beta_hat(PotentialParams(p=4), 1.0) == pytest.approx(0.25, rel=1e-15)


def test_beta_hat_derivative_matches_beta():
    # centered finite differences, second-order in the step
    params = PotentialParams(p=3)
    v, step = 0.7, 1e-5
    fd = (beta_hat(params, v + step) - beta_hat(params, v - step)) / (2 * step)
    assert fd == pytest.approx(beta(params, v), abs=5 * step**2)


def test_double_well_shape_for_quartic():
    params = PotentialParams(p=4, lam=1.0)
    for v in (-1.5, -1.0, 0.0, 0.3, 1.0, 2.0):
        assert W(params, v) == pytest.approx(0.25 * (v**2 - 1) ** 2 - 0.25, rel=1e-12, abs=1e-14)
    assert W(params, 1.0) == pytest.approx(-0.25)


def test_potential_unbounded_below_for_subquadratic_p():
    params = PotentialParams(p=1.5, lam=1.0)
    assert W(params, 0.0) == 0.0
    assert W(params, 10.0) < W(params, 1.0)
    assert W(params, 1e4) < -1e6


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_beta_odd_and_monotone(x, y):
    params = PotentialParams(p=2.7)
    assert beta(params, -x) == pytest.approx(-beta(params, x), rel=1e-12, abs=1e-300)
    if x < y:
        assert beta(params, x) <= beta(params, y)


def test_beta_hat_convex_second_differences():
    params = PotentialParams(p=3)
    xs = np.linspace(-2, 2, 20)
    step = 1e-4
    second = beta_hat(params, xs + step) - 2 * beta_hat(params, xs) + beta_hat(params, xs - step)
    assert np.all(second >= -1e-15)


def test_regularized_beta_converges_pointwise():
    gaps_by_x = {}
    for x in (0.1, 1.0):
        gaps = []
        for delta in (1e-2, 1e-4, 1e-8):
            params = PotentialParams(p=1.5, delta=delta)
            gaps.append(abs(beta_reg(params, x) - beta(params, x)))
        gaps_by_x[x] = gaps
        assert gaps[0] > gaps[1] > gaps[2]
    assert gaps_by_x[1.0][-1] <= 1e-8


def test_regularized_primitive_and_derivative_consistency():
    params = PotentialParams(p=1.5, delta=1e-3)
    v, step = 0.4, 1e-6
    fd = (beta_hat_reg(params, v + step) - beta_hat_reg(params, v - step)) / (2 * step)
    assert fd == pytest.approx(beta_reg(params, v), rel=1e-8)
    fd2 = (beta_reg(params, v + step) - beta_reg(params, v - step)) / (2 * step)
    assert fd2 == pytest.approx(beta_prime_reg(params, v), rel=1e-7)


def test_yosida_analytic_quadratic_root():
    # p = 3, eps = 1, x = 2: the resolvent solves j + j^2 = 2, so j = 1
    assert yosida_beta(PotentialParams(p=3), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_yosida_zero_fixed_point():
    assert yosida_beta(PotentialParams(p=3), 1e-2, 0.0) == 0.0


def test_yosida_below_beta_and_converging():
    for x in (-2.0, -0.5, 0.5, 2.0):
        prev_gap = None
        for eps in (1.0, 0.1, 0.01):
            params = PotentialParams(p=3)
            y = yosida_beta(params, eps, x)
            b = beta(params, x)
            assert abs(y) <= abs(b) + 1e-12
            gap = abs(y - b)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap <= 0.2 * abs(beta(params, x))


def test_yosida_monotone_and_lipschitz():
    params, eps = PotentialParams(p=3), 0.05
    xs = np.linspace(-3, 3, 121)
    ys = np.array([yosida_beta(params, eps, x) for x in xs])
    assert np.all(np.diff(ys) >= -1e-13)
    quotients = np.diff(ys) / np.diff(xs)
    assert np.max(quotients) <= 1.0 / eps + 1e-9


def test_truncation_inside_trust_region_is_identity():
    params = PotentialParams(p=3)
    for x in (-0.9, 0.2, 0.999):
        assert truncate_beta(params, 1.0, x) == beta(params, x)


def test_truncation_clamps():
    assert truncate_beta(PotentialParams(p=3), 1.0, 5.0) == pytest.approx(1.0)
    assert truncate_beta(PotentialParams(p=3), 1.0, -5.0) == pytest.approx(-1.0)


def test_truncation_monotone_on_grid():
    params = PotentialParams(p=2.5)
    xs = np.linspace(-4, 4, 201)
    ys = [truncate_beta(params, 0.7, x) for x in xs]
    assert np.all(np.diff(ys) >= 0.0)

