import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracfield as ff
from fracfield.grid import DomainMismatchError, InvalidDomainError, NonFiniteSampleError


def test_make_domain_unit_interval():
    dom = ff.Domain1D(0, 1, 3)
    assert dom.h == 0.25
    assert np.allclose(dom.nodes, [0.25, 0.5, 0.75])


def test_make_domain_mesh_size():
    assert ff.Domain1D(0, 10, 99).h == pytest.approx(0.1, abs=0)


def test_make_domain_rejects_reversed_interval():
    with pytest.raises(InvalidDomainError):
        ff.Domain1D(1, 0, 8)


def test_make_domain_rejects_tiny_node_count():
    with pytest.raises(InvalidDomainError):
        ff.Domain1D(0, 1, 1)


def test_sample_zero_function():
    dom = ff.Domain1D(0, 1, 7)
    f = ff.sample(dom, lambda x: 0.0)
    assert np.all(f.values == 0)


def test_sample_sine_exact_nodes():
    dom = ff.Domain1D(0, 1, 3)
    f = ff.sample(dom, lambda x: np.sin(np.pi * x))
    assert np.allclose(f.values, [np.sqrt(2) / 2, 1.0, np.sqrt(2) / 2])


def test_sample_interior_nodes_avoid_endpoint_singularity():
    dom = ff.Domain1D(0, 1, 9)
    f = ff.sample(dom, lambda x: 1.0 / x)
    assert np.all(np.isfinite(f.values))


def test_sample_rejects_non_finite():
    dom = ff.Domain1D(0, 1, 3)
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteSampleError):
            ff.sample(dom, lambda x: 1.0 / (x - 0.5))
    with pytest.raises(NonFiniteSampleError):
        ff.sample(dom, lambda x: float("nan"))


def test_zero_extension_outside_interval():
    dom = ff.Domain1D(0, 1, 5)
    f = ff.bump_field(dom)
    xs = np.array([-3.0, -1e-9, 1.0 + 1e-9, 2.0, 100.0])
    assert np.all(f(xs) == 0.0)
    assert f(0.0) == 0.0 and f(1.0) == 0.0


def test_field_is_linear_interpolant_between_nodes():
    dom = ff.Domain1D(0, 1, 4)
    f = ff.Field(dom, np.array([1.0, 3.0, 2.0, 0.5]))
    x_mid = 0.5 * (dom.nodes[0] + dom.nodes[1])
    assert f(x_mid) == pytest.approx(2.0)
    assert f(dom.h / 2) == pytest.approx(0.5)  # ramp from the zero boundary


def test_lp_norm_zero_field():
    dom = ff.Domain1D(0, 1, 9)
    assert ff.lp_norm(ff.Field(dom, np.zeros(dom.M)), 2) == 0.0


def test_lp_norm_constant_lumped_rule():
    dom = ff.Domain1D(0, 1, 9)
    f = ff.Field(dom, np.ones(9))
    assert ff.lp_norm(f, 2) == pytest.approx(np.sqrt(9 * 0.1), rel=1e-14)


def test_lp_norm_sine_matches_analytic_integral():
    # oracle: int_0^1 sin(pi x)^2 dx = 1/2 exactly
    dom = ff.Domain1D(0, 1, 255)
    f = ff.sample(dom, lambda x: np.sin(np.pi * x))
    assert abs(ff.lp_norm(f, 2) - np.sqrt(0.5)) <= 1e-3


def test_lp_norm_rejects_p_below_one():
    dom = ff.Domain1D(0, 1, 4)
    with pytest.raises(ValueError):
        ff.lp_norm(ff.Field(dom, np.zeros(dom.M)), 0.5)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False).filter(
        lambda c: c == 0.0 or abs(c) > 1e-6  # keep |c|^p clear of underflow
    )
)
def test_lp_norm_absolute_homogeneity(c):
    dom = ff.Domain1D(0, 1, 8)
    rng = np.random.default_rng(7)
    v = ff.Field(dom, rng.standard_normal(8))
    for p in (1.0, 2.0, 3.5):
        assert ff.lp_norm(c * v, p) == pytest.approx(abs(c) * ff.lp_norm(v, p), rel=1e-12, abs=1e-300)


def test_lp_norm_squared_is_lumped_mass_form(unit64):
    op = unit64[0.5]
    rng = np.random.default_rng(11)
    v = ff.Field(op.domain, rng.standard_normal(64))
    quad = float(v.values @ (op.M_L @ v.values))
    assert ff.lp_norm(v, 2) ** 2 == pytest.approx(quad, rel=1e-13)


def test_field_values_immutable():
    dom = ff.Domain1D(0, 1, 4)
    f = ff.Field(dom, np.arange(4.0))
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_field_arithmetic_requires_same_domain():
    f = ff.bump_field(ff.Domain1D(0, 1, 4))
    g = ff.bump_field(ff.Domain1D(0, 1, 5))
    with pytest.raises(DomainMismatchError):
        _ = f + g
