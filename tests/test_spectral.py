import numpy as np
import pytest
from scipy.linalg import circulant, eigh

import fracfield as ff
from fracfield import cli, fracop
from fracfield.config import parse_config
from fracfield.fracop import OutOfRangeError
from fracfield.spectral import (
    EIG_TOL,
    NoConvergenceError,
    dirichlet_lambda1,
    lambda1_lower_bound,
)

from oracles import (
    chan_circulant_solve,
    first_eigenpair_dense,
    poincare_lower_bound,
    rayleigh_quotient_extended,
    second_eigenvalue,
)


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
    # the reported residual is the normwise backward error of the pair,
    # recomputed here from the dense A and M_c
    op = unit64[0.25]
    pair = ff.first_eigenpair(op)
    x = pair.e1.values
    res = op.A @ x - pair.lambda1 * (op.M_c @ x)
    scale = np.linalg.norm(op.A, ord=np.inf) + pair.lambda1 * np.linalg.norm(op.M_c, ord=np.inf)
    backward = np.abs(res).max() / (scale * np.abs(x).max())
    assert backward <= 1e-10
    assert abs(backward - pair.residual) <= 1e-14


@pytest.mark.parametrize("M", [63, 511])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_first_eigenpair_matches_dense_oracle(get_op, M, r):
    # LOBPCG lands on the pair of the dense inverse iteration.  The oracle's
    # eigenvalue is the Rayleigh quotient of its vector, evaluated in extended
    # precision: in double it carries rounding of eps times the condition of
    # A (5e-13 relative at r = 0.9, M = 511).
    op = get_op(0.0, 1.0, M, r)
    lam_d, x_d, res_d, _ = first_eigenpair_dense(op, EIG_TOL)
    pair = ff.first_eigenpair(op, EIG_TOL)
    assert pair.residual <= EIG_TOL and res_d <= EIG_TOL
    lam_x = rayleigh_quotient_extended(op, x_d)
    assert abs(pair.lambda1 - lam_x) <= 1e-14 * lam_x
    assert abs(lam_d - lam_x) <= 1e-12 * lam_x
    lams, vecs = eigh(op.A, op.M_c, subset_by_index=[0, 1])
    assert abs(pair.lambda1 - lams[0]) <= 1e-10
    # M_c-angle to eigh's vector: sin <= ||R||_(M_c^-1) / (lambda2 - lambda1),
    # and ||R||_(M_c^-1) <= sqrt(3 M / h) ||R||_inf because M_c >= (h/3) I;
    # the stop gives ||R||_inf <= eig_tol (||A||_inf + lambda h) ||x||_inf
    x, v = pair.e1.values, vecs[:, 0]
    d = x - (x @ (op.M_c @ v)) * v
    sin = np.sqrt(d @ (op.M_c @ d))
    h = op.domain.h
    R_inf = EIG_TOL * (np.linalg.norm(op.A, ord=np.inf) + lams[0] * h) * np.abs(x).max()
    assert sin <= np.sqrt(3 * M / h) * R_inf / (lams[1] - lams[0])


def test_first_eigenpair_reads_only_the_column(get_op):
    op = ff.assemble(ff.make_domain(0, 1, 255), 0.3)
    ff.first_eigenpair(op)
    assert "A" not in vars(op) and "M_c" not in vars(op)
    assert op._chol == [None] and op._dual_kernel_cache == [None]


def test_first_eigenpair_reaches_tolerance_on_fine_mesh():
    # the residual relative to lambda ||M_c x|| has a roundoff floor of
    # 1.6e-10 here, so the old stop never fired; the backward error does
    op = ff.assemble(ff.make_domain(0, 1, 2047), 0.9)
    pair = ff.first_eigenpair(op, 1e-10)
    assert pair.residual <= 1e-10
    assert pair.e1.values.min() > 0.0
    assert pair.lambda1 == pytest.approx(7.1342169917, rel=1e-10)


def test_first_eigenpair_converges_to_the_continuum_value():
    # s = 1/2 on (-1, 1): lambda1 = 1.1577738836977 (Kwasnicki, J. Funct.
    # Anal. 262, 2012); P1 Galerkin converges at first order in h here
    ref = 1.1577738836977
    lams = [ff.first_eigenpair(ff.assemble(ff.make_domain(-1, 1, n - 1), 0.5)).lambda1
            for n in (512, 1024, 2048)]
    order = np.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
    assert 0.95 <= order <= 1.05
    assert abs(2.0 * lams[2] - lams[1] - ref) <= 2e-6
    assert all(lam > ref for lam in lams)


def _preconditioner_calls(monkeypatch, op, solve=None) -> tuple[int, float]:
    """LOBPCG iterations that needed a preconditioner solve, and lambda1;
    solve(op, b) replaces tau_solve_vector when given."""
    calls = [0]
    tau_solve = fracop.FracOperator.tau_solve_vector

    def counted(self, b):
        calls[0] += 1
        return (solve or tau_solve)(self, b)

    monkeypatch.setattr(fracop.FracOperator, "tau_solve_vector", counted)
    pair = ff.first_eigenpair(op)
    monkeypatch.undo()
    return calls[0], pair.lambda1


def test_chan_oracle_inverts_the_chan_circulant(unit64, rng):
    # T. Chan's circulant has first column ((M-k) c(k) + k c(M-k)) / M
    op = unit64[0.5]
    M, c = op.domain.M, op.column
    k = np.arange(M)
    C = circulant(((M - k) * c + k * c[-k]) / M)
    b = rng.standard_normal(M)
    x = chan_circulant_solve(op, b)
    assert np.linalg.norm(C @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_tau_preconditioned_iterations_do_not_grow_with_m(monkeypatch):
    # r = 0.9, whose symbol's zero at the origin a circulant fits poorly:
    # T. Chan's circulant took 15, 21 and 35 iterations here
    for M in (511, 2047, 8191):
        op = ff.assemble(ff.make_domain(0, 1, M), 0.9)
        calls, _ = _preconditioner_calls(monkeypatch, op)
        assert calls <= 8, (M, calls)


@pytest.mark.parametrize("b, M, r", [(1, 511, 0.2), (1, 511, 0.1), (1, 2047, 0.2),
                                     (1, 2047, 0.1), (10, 511, 0.5), (10, 511, 0.3),
                                     (10, 511, 0.15), (10, 511, 0.05)])
def test_tau_needs_no_more_iterations_than_chan(monkeypatch, get_op, b, M, r):
    # the eigen problems of benchmark/configs/eigen_refine.cfg and
    # stationary_wide.cfg, from the same sine start, against the earlier
    # circulant preconditioner
    op = get_op(0.0, float(b), M, r)
    tau_calls, lam_tau = _preconditioner_calls(monkeypatch, op)
    chan_calls, lam_chan = _preconditioner_calls(monkeypatch, op, chan_circulant_solve)
    assert 0 < tau_calls <= chan_calls, (tau_calls, chan_calls)
    assert abs(lam_tau - lam_chan) <= 1e-13 * lam_chan


def test_first_eigenfunction_is_mirror_symmetric(unit64, get_op):
    # the interval's reflection commutes with A, M_c and tau(A), and the sine
    # start is symmetric, so e1 equals its mirror up to rounding
    for op in list(unit64.values()) + [get_op(0.0, 10.0, 511, 0.5)]:
        e1 = ff.first_eigenpair(op).e1.values
        assert np.abs(e1 - e1[::-1]).max() <= 1e-14 * np.abs(e1).max(), op.r


def test_first_eigenpair_stalls_with_no_convergence_error(unit64):
    with pytest.raises(NoConvergenceError, match="backward error"):
        ff.first_eigenpair(unit64[0.5], 1e-10, maxit=2)


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
    lam2 = second_eigenvalue(op, pair.e1.values)
    assert lam2 - pair.lambda1 > 1e-6


def test_eigen_bounds_ordering():
    dom = ff.make_domain(0, 1, 32)
    for r in (0.1, 0.4, 0.8):
        lower = lambda1_lower_bound(r, 1, dom.length)
        upper = dirichlet_lambda1(dom) ** r
        assert 0 < lower <= upper


def test_dirichlet_reference_eigenvalue():
    assert dirichlet_lambda1(ff.make_domain(0, 1, 8)) == pytest.approx(np.pi**2)
    assert dirichlet_lambda1(ff.make_domain(0, 10, 8)) == pytest.approx(np.pi**2 / 100)


def test_sweep_csv_format(tmp_path):
    dom = ff.make_domain(0, 1, 32)
    rows = ff.lambda1_sweep(dom, [0.5], refinements=[32])
    cfg = "M = 32\nexperiment = eigen-sweep\nsequence = 0.5\nrefinements = 32\n"
    text = cli.run(parse_config(cfg), output_dir=str(tmp_path))["eigen.csv"]
    lines = text.strip().splitlines()
    assert lines[0] == "r,M,lambda1,lower,upper,residual"
    fields = lines[1].split(",")
    assert float(fields[2]) == rows[0]["lambda1"]  # 17-digit round trip
