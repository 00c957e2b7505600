import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracfield as ff
from fracfield import cli, dynamics, stationary
from fracfield.config import parse_config
from fracfield.fracop import OutOfRangeError
from fracfield.grid import DomainMismatchError
from fracfield.stationary import NoConvergenceError

from oracles import stationary_state_cholesky


def _sweep_csv(rows) -> str:
    return cli.table_to_csv(list(rows[0]), [tuple(row.values()) for row in rows])


def test_smallness_bound_closed_form():
    params = ff.PotentialParams(p=4)
    assert ff.smallness_bound(params, 0.5, 10.0) == pytest.approx(np.sqrt(10.0), rel=1e-14)


def test_smallness_bound_shrinks_to_zero_near_threshold():
    params = ff.PotentialParams(p=4)
    assert ff.smallness_bound(params, 1 - 1e-8, 10.0) <= 1e-3
    b1 = ff.smallness_bound(params, 0.9, 10.0)
    b2 = ff.smallness_bound(params, 0.99, 10.0)
    assert b2 < b1


def test_smallness_bound_preconditions():
    with pytest.raises(OutOfRangeError):
        ff.smallness_bound(ff.PotentialParams(p=4), 1.0, 10.0)
    with pytest.raises(OutOfRangeError):
        ff.smallness_bound(ff.PotentialParams(p=1.5), 0.5, 10.0)


def test_smallness_bound_weight_lam():
    # the radius scales with lam - lambda1; at lam = 1 it is the 1 - lambda1
    # formula bit for bit, and lambda1 >= lam has no bound
    for lam1 in (0.1, 0.5, 0.9, 0.25):
        expected = ((4 / 2) * 10.0 ** ((4 - 2) / 2) * (1.0 - lam1)) ** (1 / (4 - 2))
        assert ff.smallness_bound(ff.PotentialParams(p=4), lam1, 10.0) == expected
    params = ff.PotentialParams(p=4, lam=0.3)
    assert ff.smallness_bound(params, 0.1, 10.0) == pytest.approx(np.sqrt(4.0), rel=1e-14)
    with pytest.raises(OutOfRangeError):
        ff.smallness_bound(params, 0.3, 10.0)
    with pytest.raises(OutOfRangeError):
        ff.smallness_bound(params, 0.5, 10.0)


def test_sweep_bound_is_nan_where_lambda1_reaches_lam(tmp_path):
    # on (0, 10) lambda1(0.5) < 0.3 <= lambda1(0.3), lambda1(0.15): only the
    # first row has a nontrivial state and a finite bound
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("a = 0\nb = 10\nM = 63\nsigma = 0.5\np = 4\nlam = 0.3\n"
                   "experiment = stationary\nsequence = 0.5, 0.3, 0.15\n")
    assert cli.main([str(cfg), "--output", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [float(row["lambda1"]) < 0.3 for row in rows] == [True, False, False]
    assert float(rows[0]["norm_u"]) < float(rows[0]["bound"]) < np.inf
    assert [row["bound"] for row in rows[1:]] == ["nan", "nan"]
    assert [row["classification"] for row in rows[1:]] == ["trivial", "trivial"]


def test_minimize_rejects_subquadratic_p(get_op):
    with pytest.raises(OutOfRangeError):
        ff.minimize_energy(get_op(0.0, 1.0, 32, 0.5), ff.PotentialParams(p=1.5))


def test_unit_interval_only_trivial_state(get_op):
    # lambda1(1/2) ~ 2.33 >= 1 on the unit interval, so the zero state is
    # the global minimizer
    op = get_op(0.0, 1.0, 64, 0.5)
    result = ff.minimize_energy(op, ff.PotentialParams(p=4))
    assert result.lambda1_sigma >= 1.0
    assert result.classification == "trivial"
    assert ff.lp_norm(result.u_star, 2) <= 1e-6


@pytest.fixture(scope="module")
def wide_result(get_op):
    op = get_op(0.0, 10.0, 255, 0.5)
    return op, ff.minimize_energy(op, ff.PotentialParams(p=4))


def test_wide_interval_nontrivial_state(wide_result):
    op, result = wide_result
    assert result.lambda1_sigma < 1.0
    assert result.classification in ("nontrivial-positive", "nontrivial-negative")
    vals = result.u_star.values
    assert vals.min() > 0 or vals.max() < 0
    assert result.energy < 0.0
    assert result.residual <= 1e-9


def test_stationary_virial_identity(wide_result):
    op, result = wide_result
    h = op.domain.h
    lp4 = h * float(np.sum(np.abs(result.u_star.values) ** 4))
    gap = abs(result.energy + (0.5 - 0.25) * lp4)
    assert gap <= 1e-6 * max(1.0, abs(result.energy))


def test_stationary_weak_form_residual_everywhere(wide_result):
    op, result = wide_result
    params = ff.PotentialParams(p=4)
    u = result.u_star.values
    g = op.A @ u + op.domain.h * ff.beta(params, u) - params.lam * (op.M_c @ u)
    assert np.abs(g).max() <= 1e-9


def test_norm_below_smallness_bound(wide_result):
    op, result = wide_result
    bound = ff.smallness_bound(ff.PotentialParams(p=4), result.lambda1_sigma, 10.0)
    assert ff.lp_norm(result.u_star, 2) < bound


def test_minimize_energy_factors_the_hessian_at_most_once(get_op, monkeypatch):
    # J takes matrix-free directions at every M, below MATRIX_FREE_M too; at
    # M = 511, 0.1 M x M arrays are 51 vectors of length M, room for the
    # O(M) working set of the eigensolver, the descent and PCG
    op = get_op(0.0, 10.0, 511, 0.5)
    assert op.domain.M <= dynamics.MATRIX_FREE_M
    counts = []

    def recording(*args):
        counts.append(args[-1])
        return newton_operator(*args)

    newton_operator = stationary._newton_operator
    monkeypatch.setattr(stationary, "_newton_operator", recording)
    rng = np.random.default_rng(0)  # its first use loads modules
    tracemalloc.start()
    try:
        result = ff.minimize_energy(op, ff.PotentialParams(p=4), rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.classification != "trivial"
    assert len(counts) == 1 and counts[0][0] > 0 and counts[0][1] == 0
    assert peak <= 0.1 * op.domain.M**2 * 8, peak / (op.domain.M**2 * 8)


@pytest.mark.parametrize("b, M, sigma, p", [(10.0, 255, 0.5, 4.0), (20.0, 127, 0.3, 3.0)])
def test_minimizer_matches_the_cholesky_polish_oracle(get_op, b, M, sigma, p):
    # two starts of one sign reach one state.  At the default stat_tol
    # both sides may stop at residuals near 1e-9 and differ by up to 5e-11
    # of max |u|, so both polish to 1e-12
    op = get_op(0.0, b, M, sigma)
    params = ff.PotentialParams(p=p)
    e1 = ff.first_eigenpair(op).e1
    for sign, cls in ((1.0, "nontrivial-positive"), (-1.0, "nontrivial-negative")):
        result = ff.minimize_energy(
            op, params, starts=[0.1 * sign * e1, 0.2 * sign * e1], stat_tol=1e-12
        )
        u_ref, res_ref = stationary_state_cholesky(op, params, 0.1 * sign * e1.values, 1e-12)
        assert res_ref <= 1e-12
        assert (u_ref.min() > 0 if sign > 0 else u_ref.max() < 0)
        assert result.classification == cls
        err = np.max(np.abs(result.u_star.values - u_ref))
        assert err <= 1e-10 * np.max(np.abs(u_ref)), (sign, err)


def test_matrix_free_polish_matches_the_cholesky_polish_oracle(get_op):
    # the smallest mesh above MATRIX_FREE_M: K = A_sigma - lam M_c is applied
    # by FFT and mass products, PCG is preconditioned by tau(A_sigma) +
    # h mean(beta'(u)), and no M x M array is built
    op = get_op(0.0, 10.0, dynamics.MATRIX_FREE_M + 1, 0.5)
    params = ff.PotentialParams(p=4)
    e1 = ff.first_eigenpair(op).e1
    tracemalloc.start()
    try:
        result = ff.minimize_energy(op, params, starts=[0.1 * e1], stat_tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * op.domain.M**2 * 8, peak / (op.domain.M**2 * 8)
    # the oracle's own dense descent from 0.1 e1 takes about 700 iterations
    # of M x M products here, so it starts from the library's polish of the
    # same start to 1e-6, inside its Newton radius, and polishes by
    # Cholesky alone
    rough = ff.minimize_energy(op, params, starts=[0.1 * e1], stat_tol=1e-6)
    assert 1e-12 < rough.residual <= 1e-6
    u_ref, res_ref = stationary_state_cholesky(op, params, rough.u_star.values, 1e-12)
    assert res_ref <= 1e-12 and result.residual <= 1e-12
    assert result.classification == "nontrivial-positive"
    err = np.max(np.abs(result.u_star.values - u_ref))
    assert err <= 1e-10 * np.max(np.abs(u_ref)), err


def test_dense_polish_with_lam_not_one_matches_the_cholesky_polish_oracle(get_op):
    # K = A_sigma - lam M_c is applied as -lam mass_vector plus
    # stiffness_vector; lam = 0.6 is not a power of two, and on (0, 10)
    # lambda1(1/2) < 0.6, so the minimizer is nontrivial
    op = get_op(0.0, 10.0, 255, 0.5)
    params = ff.PotentialParams(p=4, lam=0.6)
    eig = ff.first_eigenpair(op)
    assert eig.lambda1 < params.lam
    start = 0.1 * eig.e1
    result = ff.minimize_energy(op, params, starts=[start], stat_tol=1e-12)
    u_ref, res_ref = stationary_state_cholesky(op, params, start.values, 1e-12)
    assert res_ref <= 1e-12 and result.residual <= 1e-12
    assert result.classification == "nontrivial-positive"
    err = np.max(np.abs(result.u_star.values - u_ref))
    assert err <= 1e-10 * np.max(np.abs(u_ref)), err


def test_sign_reflected_starts_reach_equal_energy(get_op):
    op = get_op(0.0, 10.0, 255, 0.5)
    params = ff.PotentialParams(p=4)
    pair = ff.first_eigenpair(op)
    plus = ff.minimize_energy(op, params, starts=[0.1 * pair.e1])
    minus = ff.minimize_energy(op, params, starts=[-0.1 * pair.e1])
    assert abs(plus.energy - minus.energy) <= 1e-10
    assert {plus.classification, minus.classification} == {
        "nontrivial-positive", "nontrivial-negative",
    }


def test_stationary_artifacts_do_not_depend_on_the_seed(tmp_path, monkeypatch):
    # the seed moves only the random start; +eps e1 reaches the state of
    # the mirror pair first, and a rounding-level tie goes to the earlier start
    path = Path(__file__).resolve().parent.parent / "benchmark/configs/stationary_wide.cfg"
    cfg = parse_config(path.read_text())
    outputs = []
    for seed in range(4):
        monkeypatch.setenv("FRACFIELD_SEED", str(seed))
        arts = cli.run(cfg, output_dir=str(tmp_path / str(seed)))
        outputs.append((arts["stationary.csv"], arts["sweep.csv"]))
    assert all(out == outputs[0] for out in outputs[1:])
    assert outputs[0][0].splitlines()[1].endswith(",nontrivial-positive")


def test_winner_is_the_first_start_within_rounding_of_the_lowest_energy(get_op):
    op = get_op(0.0, 10.0, 63, 0.5)
    params = ff.PotentialParams(p=4)
    e1 = ff.first_eigenpair(op).e1
    zero = ff.Field(op.domain, np.zeros(63))
    for first, cls in ((e1, "nontrivial-positive"), (-1.0 * e1, "nontrivial-negative")):
        result = ff.minimize_energy(op, params, starts=[zero, 0.1 * first, -0.1 * first])
        assert result.classification == cls


def test_delta_plays_no_part_in_the_stationary_state(get_op):
    # the Newton directions use the exact potential, so delta cannot move
    # the Newton path either
    op = get_op(0.0, 10.0, 63, 0.5)
    exact = ff.minimize_energy(op, ff.PotentialParams(p=4))
    smoothed = ff.minimize_energy(op, ff.PotentialParams(p=4, delta=0.5))
    assert np.array_equal(exact.u_star.values, smoothed.u_star.values)
    assert (exact.energy, exact.residual) == (smoothed.energy, smoothed.residual)


def test_sigma_sweep_norms_decrease(get_op, tmp_path, monkeypatch):
    dom = ff.Domain1D(0, 10, 255)
    params = ff.PotentialParams(p=4)
    rows = ff.stationary_sigma_sweep(dom, params, [0.5, 0.3, 0.15])
    norms = [row["norm_u"] for row in rows]
    lams = [row["lambda1"] for row in rows]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert all(b > a for a, b in zip(lams, lams[1:]))  # lambda1 climbs toward 1
    for row in rows:
        assert row["classification"] != "trivial"
        assert row["norm_u"] < row["bound"]
    # the CLI writes these rows as sweep.csv
    monkeypatch.setattr(stationary, "stationary_sigma_sweep", lambda *args, **kwargs: rows)
    cfg = "a = 0\nb = 10\nM = 31\nsigma = 0.5\np = 4\nexperiment = stationary\nsequence = 0.5\n"
    text = cli.run(parse_config(cfg), output_dir=str(tmp_path))["sweep.csv"]
    assert text.splitlines()[0] == "sigma,lambda1,norm_u,bound,energy,classification"


def test_sigma_sweep_reuses_given_operator(get_op, monkeypatch):
    # a known result serves its own row: no assembly and no minimization
    dom = ff.Domain1D(0, 10, 63)
    params = ff.PotentialParams(p=4)
    sigmas = [0.5, 0.3]
    fresh = ff.stationary_sigma_sweep(dom, params, sigmas)
    known = ff.minimize_energy(get_op(0.0, 10.0, 63, 0.5), params)
    assert known.sigma == 0.5
    orders = []

    def counting(domain, r):
        orders.append(r)
        return ff.assemble(domain, r)

    minimized = []

    def minimize(op, *args, **kwargs):
        minimized.append(op.r)
        return ff.minimize_energy(op, *args, **kwargs)

    monkeypatch.setattr(stationary, "assemble", counting)
    monkeypatch.setattr(stationary, "minimize_energy", minimize)
    reused = ff.stationary_sigma_sweep(dom, params, sigmas, known=known)
    assert orders == [0.3] and minimized == [0.3]
    assert _sweep_csv(reused) == _sweep_csv(fresh)
    other = ff.minimize_energy(get_op(0.0, 1.0, 63, 0.5), params)
    with pytest.raises(DomainMismatchError):
        ff.stationary_sigma_sweep(dom, params, sigmas, known=other)


def test_unreachable_tolerance_raises(get_op):
    # the zero start is excluded: its residual is exactly zero, so it meets
    # any tolerance; nonzero starts bottom out at the roundoff floor
    op = get_op(0.0, 10.0, 63, 0.5)
    start = 0.1 * ff.first_eigenpair(op).e1
    with pytest.raises(NoConvergenceError):
        ff.minimize_energy(op, ff.PotentialParams(p=4), starts=[start], stat_tol=1e-30)
