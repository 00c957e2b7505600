import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fracfield as ff
from fracfield import cli, dynamics, stationary
from fracfield.config import parse_config
from fracfield.dynamics import (
    NewtonDivergenceError,
    _lagged_direction,
    _newton_minimize,
)
from fracfield import potential
from fracfield.grid import DomainMismatchError

from oracles import (
    a_priori_monitors,
    beta_bound_per_level,
    ch_step_functional_value,
    energy_trace_per_level,
    newton_step_dense,
    pcg_allocating,
    stiffness_closed_form,
)


@pytest.fixture(scope="module")
def ops48():
    dom = ff.Domain1D(0, 1, 48)
    return ff.assemble(dom, 0.5), ff.assemble(dom, 0.6)


# ------------------------------------------------------------------ energy
def test_energy_zero_field(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    assert ff.energy(op_sig, params, ff.Field(op_sig.domain, np.zeros(op_sig.domain.M))) == 0.0


def test_energy_against_independent_form_evaluation(ops48):
    # quadratic part recomputed from the closed-form stiffness, potential
    # part from a plain lumped sum
    _, op_sig = ops48
    dom = op_sig.domain
    params = ff.PotentialParams(p=4)
    u = ff.bump_field(dom, 1.3)
    A_ref = stiffness_closed_form(dom.M, dom.h, 0.6)
    expected = 0.5 * u.values @ (A_ref @ u.values) + dom.h * np.sum(
        np.abs(u.values) ** 4 / 4 - 0.5 * u.values**2
    )
    assert ff.energy(op_sig, params, u) == pytest.approx(expected, rel=1e-9)


def test_energy_modified_interpolates_to_energy(ops48):
    _, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u = ff.bump_field(op_sig.domain)
    # the modified energy is E_sigma with the concave weight replaced
    def modified(lam, v):
        return ff.energy(op_sig, replace(params, lam=lam), v)

    assert modified(params.lam, u) == ff.energy(op_sig, params, u)
    assert modified(0.7, u) > ff.energy(op_sig, params, u)
    assert modified(0.7, ff.Field(op_sig.domain, np.zeros(op_sig.domain.M))) == 0.0


def test_modified_energy_coercivity_on_random_fields(ops48, rng):
    # discrete counterpart of E_tilde(v) >= ||v||_p^p / p: exact with the
    # lumped-mass Poincare constant; the consistent-mass lambda1 needs a
    # slack covering the (small) lumped/consistent eigenvalue gap
    _, op_sig = ops48
    dom = op_sig.domain
    params = ff.PotentialParams(p=4)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    evals = np.linalg.eigvalsh(np.linalg.solve(op_sig.M_L, op_sig.A))
    lam1_lumped = float(evals.min())
    gap = max(0.0, lam1 - lam1_lumped)
    for _ in range(100):
        v = ff.Field(dom, rng.standard_normal(dom.M))
        lhs = ff.energy(op_sig, replace(params, lam=lam1), v)
        rhs = ff.lp_norm(v, 4) ** 4 / 4
        allowance = 0.5 * gap * ff.lp_norm(v, 2) ** 2 + 1e-9
        assert lhs >= rhs - allowance


# ------------------------------------------------------------------ CH step
def _ch_step(op_s, op_sig, params, u_prev, tau):
    """One Cahn-Hilliard step from the Field u_prev to the nodal arrays
    (u_n, w_n) and its stats, as a one-step run."""
    flow = ff.Flow(op_s, op_sig, params.lam)
    traj, _ = ff.evolve(flow, params, u_prev, ff.SolverSettings(tau=tau, T=tau))
    return traj.U[1], traj.W[0], traj.stats[0]


def test_ch_step_zero_fixed_point(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u, w, stats = _ch_step(op_s, op_sig, params, ff.Field(op_s.domain, np.zeros(op_s.domain.M)), 1e-3)
    assert np.all(u == 0.0) and np.all(w == 0.0)
    assert stats.iterations == 0


def test_ch_step_returns_the_minimizer(ops48, rng):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    tau = 1e-3
    un, _, _ = _ch_step(op_s, op_sig, params, u0, tau)

    def value(u):
        return ch_step_functional_value(op_s, 0.6, 4.0, params.lam, u0, tau, u)

    f_star = value(un)
    for _ in range(10):
        z = rng.standard_normal(op_s.domain.M)
        assert value(un + 1e-3 * z) >= f_star


def test_ch_step_flow_equation_holds_exactly(ops48):
    # w_n is defined through the dual solve, so the discrete flow equation
    # M_c du/tau + A_s w = 0 holds to solver precision
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    tau = 1e-3
    un, wn, stats = _ch_step(op_s, op_sig, params, u0, tau)
    res = op_s.M_c @ (un - u0.values) / tau + op_s.A @ wn
    assert np.linalg.norm(res) <= 1e-9
    assert stats.td2_residual <= 1e-9


def test_ch_step_halving_consistency_order(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    dom = op_s.domain
    u0 = ff.bump_field(dom)
    errs = []
    for tau in (2e-3, 1e-3, 5e-4):
        u1, _, _ = _ch_step(op_s, op_sig, params, u0, tau)
        uh, _, _ = _ch_step(op_s, op_sig, params, u0, tau / 2)
        uh2, _, _ = _ch_step(op_s, op_sig, params, ff.Field(dom, uh), tau / 2)
        errs.append(ff.lp_norm(ff.Field(dom, u1 - uh2), 2))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 0.8 for o in orders)


def test_newton_divergence_reports_residual(ops48, monkeypatch):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain, 5.0)
    monkeypatch.setattr(dynamics, "NEWTON_MAX", 1)
    with pytest.raises(NewtonDivergenceError) as err:
        _ch_step(op_s, op_sig, params, u0, 1.0)
    assert err.value.residual > 0


def test_newton_takes_a_gradient_step_where_the_hessian_is_indefinite():
    # the double well (u^2 - 1)^2 / 4 is concave at u0 = 0.5; a direction
    # that raises LinAlgError where the Hessian -1 + 3 u^2 is not positive,
    # as J's matrix-free directions do on nonpositive curvature, sends
    # Newton down gradient steps into the convex well around u = 1
    calls = {"fallback": 0}

    def direction(u, g):
        curvature = -1.0 + 3.0 * u**2
        if curvature[0] <= 0.0:
            calls["fallback"] += 1
            raise np.linalg.LinAlgError("the Hessian is not positive definite")
        return -g / curvature

    u, iters, res = _newton_minimize(lambda u: u**3 - u, direction, np.array([0.5]), 1e-12, 1.0)
    assert calls["fallback"] >= 1
    assert res <= 1e-12 and iters <= dynamics.NEWTON_MAX
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_matrix_free_direction_descends_or_falls_back_on_an_indefinite_hessian(get_op):
    # J's K = A - M_c (lam = 1) is applied matrix-free at every M and
    # preconditioned by tau(A) + h mean(3 u^2), positive
    # definite even where the Hessian is not: at u = 1 the direction
    # descends, near u = 0 PCG meets nonpositive curvature and raises
    op = get_op(0.0, 10.0, dynamics.MATRIX_FREE_M + 1, 0.5)
    params = ff.PotentialParams(p=4)
    M = op.domain.M
    counts = [0, 0]
    _, direction = dynamics._newton_operator(None, op, None, params, counts)
    u = np.ones(M)
    g = stationary._energy_and_gradient(op, params, u)[1]()
    assert g @ direction(u, g) < 0 and counts[1] == 0
    g = stationary._energy_and_gradient(op, params, 0.01 * np.sin(np.arange(M)))[1]()
    with pytest.raises(np.linalg.LinAlgError):
        direction(np.zeros(M), g)


# ------------------------------------------------------------------ evolve
def test_ch_evolve_zero_initial_datum(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                            ff.Field(op_s.domain, np.zeros(op_s.domain.M)),
                            ff.SolverSettings(tau=1e-3, T=0.01))
    assert np.all(traj.U == 0.0)
    assert np.all(trace.E_sigma == 0.0)


def test_ch_evolve_energy_dissipation(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    traj, trace = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0,
                            ff.SolverSettings(tau=1e-3, T=0.05))
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 1e-3, rtol=0, atol=1e-15)
    assert np.array_equal(traj.U[0], u0.values)
    assert np.all(np.diff(trace.E_sigma) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9
    assert np.all(np.isfinite(trace.gagliardo_s_of_w))


def test_ch_evolve_deterministic_bitwise(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    settings = ff.SolverSettings(tau=1e-3, T=0.02)
    t1, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                      ff.bump_field(op_s.domain), settings)
    t2, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                      ff.bump_field(op_s.domain), settings)
    assert np.array_equal(t1.U, t2.U)


def test_modified_scheme_reduces_to_original_bitwise(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    settings = ff.SolverSettings(tau=1e-3, T=0.02)
    t1, tr1 = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0, settings)
    t2, tr2 = ff.evolve(ff.Flow(op_s, op_sig, 1.0), params, u0, settings)
    assert np.array_equal(t1.U, t2.U)
    assert np.array_equal(tr1.E_sigma, tr2.E_sigma)


def test_modified_scheme_dissipates_modified_energy(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=1.5)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    traj, trace = ff.evolve(ff.Flow(op_s, op_sig, lam1), params,
                            ff.bump_field(op_s.domain),
                            ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_tilde) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9
    # coercivity along the trajectory, with the lumped-eigenvalue allowance
    evals = np.linalg.eigvalsh(np.linalg.solve(op_sig.M_L, op_sig.A))
    gap = max(0.0, lam1 - float(evals.min()))
    for v in traj.U:
        u = ff.Field(traj.domain, v)
        lhs = ff.lp_norm(u, 1.5) ** 1.5 / 1.5
        allowance = 0.5 * gap * ff.lp_norm(u, 2) ** 2 + 1e-9
        assert lhs <= trace.E_tilde[0] + allowance


def test_a_priori_monitors_stable_under_tau_halving(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    m = {}
    for tau in (1e-3, 5e-4):
        traj, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0,
                            ff.SolverSettings(tau=tau, T=0.1))
        m[tau] = a_priori_monitors(traj, op_s, op_sig, params, tau)
    for key in m[1e-3]:
        rel = abs(m[1e-3][key] - m[5e-4][key]) / abs(m[1e-3][key])
        assert rel <= 0.05, key


def test_perturbation_growth_bounded_uniformly_in_size(ops48):
    # discrete contraction estimate: the dual-norm amplification of a small
    # initial perturbation is independent of its magnitude
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    pert = ff.sample(op_s.domain, lambda x: np.sin(3 * np.pi * x))
    settings = ff.SolverSettings(tau=1e-3, T=0.05)
    base, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0, settings)
    ratios = []
    for eta in (1e-2, 1e-4, 1e-6):
        traj, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0 + eta * pert,
                            settings)
        d0 = np.sqrt(op_s.dual_norm_sq(ff.Field(op_s.domain, traj.U[0] - base.U[0])))
        dT = np.sqrt(op_s.dual_norm_sq(ff.Field(op_s.domain, traj.U[-1] - base.U[-1])))
        ratios.append(dT / d0)
    assert (max(ratios) - min(ratios)) / min(ratios) <= 0.10


# ------------------------------------------------------------------ AC / PM
def test_ac_evolve_zero_and_dissipation(ops48):
    _, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.evolve(ff.Flow(None, op_sig, params.lam), params,
                            ff.Field(op_sig.domain, np.zeros(op_sig.domain.M)),
                            ff.SolverSettings(tau=1e-3, T=0.01))
    assert np.all(traj.U == 0.0)
    traj, trace = ff.evolve(ff.Flow(None, op_sig, params.lam), params,
                            ff.bump_field(op_sig.domain),
                            ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_sigma) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9


def test_ac_stationary_state_is_fixed_point(get_op):
    op = get_op(0.0, 10.0, 127, 0.5)
    params = ff.PotentialParams(p=4)
    res = ff.minimize_energy(op, params)
    assert res.classification != "trivial"
    traj, _ = ff.evolve(ff.Flow(None, op, params.lam), params, res.u_star,
                        ff.SolverSettings(tau=1e-3, T=0.1))
    assert traj.W.shape == (100, 127)
    drift = ff.lp_norm(ff.Field(op.domain, traj.U[-1] - traj.U[0]), 2)
    assert drift <= 1e-8


def test_pm_evolve_zero_and_monotone_dissipation(ops48):
    op_s, _ = ops48
    params = ff.PotentialParams(p=3)
    traj, trace = ff.evolve(ff.Flow(op_s, None, 0.0), params,
                            ff.Field(op_s.domain, np.zeros(op_s.domain.M)),
                            ff.SolverSettings(tau=1e-3, T=0.01))
    assert np.all(traj.U == 0.0)
    traj, trace = ff.evolve(ff.Flow(op_s, None, 0.0), params,
                            ff.bump_field(op_s.domain),
                            ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_sigma) <= 1e-12)
    assert trace.step_slack[1:].min() >= -1e-10


def test_fast_diffusion_branch_runs(ops48):
    op_s, _ = ops48
    params = ff.PotentialParams(p=1.5)
    traj, trace = ff.evolve(ff.Flow(op_s, None, 0.0), params,
                            ff.bump_field(op_s.domain),
                            ff.SolverSettings(tau=1e-3, T=0.02))
    assert np.all(np.diff(trace.E_sigma) <= 1e-12)
    assert np.all(np.isfinite(traj.U))


def test_pm_evolve_ignores_lam_and_traces_exact_lyapunov(ops48):
    # the porous-medium energy has no concave term: the concave weight in
    # params must not reach the steps, and E_sigma is h sum |u|^p / p with
    # the exact (unsmoothed) power law; a concave weight on the flow itself
    # is rejected
    op_s, _ = ops48
    u0 = ff.bump_field(op_s.domain)
    settings = ff.SolverSettings(tau=1e-3, T=0.01)
    flow = ff.Flow(op_s, None, 0.0)
    t1, tr1 = ff.evolve(flow, ff.PotentialParams(p=1.5, lam=1.0), u0, settings)
    t0, tr0 = ff.evolve(flow, ff.PotentialParams(p=1.5, lam=0.0), u0, settings)
    with pytest.raises(ValueError, match="no concave term"):
        ff.evolve(ff.Flow(op_s, None, 1.0), ff.PotentialParams(p=1.5), u0, settings)
    assert np.array_equal(t1.U, t0.U)
    assert np.array_equal(tr1.E_sigma, tr0.E_sigma)
    assert np.array_equal(tr1.E_tilde, tr1.E_sigma)
    h = op_s.domain.h
    for u, e in zip(t1.U, tr1.E_sigma):
        assert e == pytest.approx(h * np.sum(np.abs(u) ** 1.5 / 1.5), rel=1e-12)


def test_flow_without_an_interface_rejects_a_concave_weight(ops48):
    # the porous-medium energy has no concave term, so the flow itself,
    # not the march, refuses a weight for one
    op_s, _ = ops48
    with pytest.raises(ValueError, match="no concave term"):
        ff.Flow(op_s, None, 0.5)


def test_flow_needs_an_operator_on_one_domain(ops48):
    op_s, _ = ops48
    other = ff.assemble(ff.Domain1D(0, 2, 48), 0.5)
    with pytest.raises(ValueError):
        ff.Flow(None, None, 1.0)
    with pytest.raises(DomainMismatchError):
        ff.Flow(op_s, other, 1.0)
    step_on_other = ff.Flow(None, other, 1.0)
    with pytest.raises(DomainMismatchError):
        ff.evolve(step_on_other, ff.PotentialParams(p=4), ff.bump_field(op_s.domain),
                  ff.SolverSettings(tau=1e-3, T=1e-3))


def _check_against_oracle(flow, params, settings, u):
    """Run n_steps steps from u; at every step compare with the oracle
    given the same u_prev and Newton start (the predictor from the second
    step on), and return the steps' StepStats.  The
    stepper's directions come from PCG with a lagged inverse, the oracle's
    from scipy.linalg.solve on the full Hessian, so the two agree to
    rounding, not bit for bit."""
    traj, _ = ff.evolve(flow, params, u, settings)
    assert len(traj.stats) == settings.n_steps
    for k, stats in enumerate(traj.stats):
        un, wn = traj.U[k + 1], traj.W[k]
        start = None if k == 0 else 2.0 * traj.U[k] - traj.U[k - 1]  # the predictor
        u_ref, w_ref, iters, res = newton_step_dense(
            flow, params, settings.tau, settings, ff.Field(traj.domain, traj.U[k]), start
        )
        assert np.max(np.abs(un - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
        assert np.max(np.abs(wn - w_ref)) <= 1e-10 * np.max(np.abs(w_ref))
        assert stats.iterations == iters
        assert stats.residual <= settings.newton_tol
    return traj.stats


FLOWS = ["cahn-hilliard", "modified", "allen-cahn", "porous-medium"]


def _flow(get_op, M, kind):
    """(flow, params) of one of the four flows on (0, 1) with s = 0.5 and
    sigma = 0.75."""
    op_s, op_sigma = get_op(0.0, 1.0, M, 0.5), get_op(0.0, 1.0, M, 0.75)
    if kind == "porous-medium":
        return ff.Flow(op_s, None, 0.0), ff.PotentialParams(p=3, lam=0.0)
    params = ff.PotentialParams(p=4)
    flow = {
        "cahn-hilliard": ff.Flow(op_s, op_sigma, params.lam),
        "modified": ff.Flow(op_s, op_sigma, ff.first_eigenpair(op_sigma).lambda1),
        "allen-cahn": ff.Flow(None, op_sigma, params.lam),
    }[kind]
    return flow, params


@pytest.mark.parametrize("kind", FLOWS)
def test_stepper_matches_dense_newton_oracle(get_op, kind):
    for M in (64, 512):
        flow, params = _flow(get_op, M, kind)
        settings = ff.SolverSettings(tau=1e-3, T=5e-3)
        _check_against_oracle(flow, params, settings, ff.bump_field(flow.domain))


@pytest.mark.parametrize("kind", FLOWS)
def test_stacked_recovery_matches_the_per_level_oracle(get_op, kind):
    # every EnergyTrace column, w and the potential-equation residual, each
    # to 1e-13 of its largest magnitude; step_slack and td2 are small
    # differences of O(1) terms, so this needs the per-level rounding
    for M in (64, 512):
        flow, params = _flow(get_op, M, kind)
        settings = ff.SolverSettings(tau=1e-3, T=1e-2)
        traj, trace = ff.evolve(flow, params, ff.bump_field(flow.domain), settings)
        W, td2, columns = energy_trace_per_level(flow, params, traj, settings.tau)
        got = [trace.E_sigma, trace.E_tilde, trace.gagliardo_s_of_w, trace.dual_norm_u,
               trace.l2_u, trace.lp_u, trace.step_slack,
               traj.W,
               np.array([st.td2_residual for st in traj.stats])]
        for name, ref, val in zip(
            ["E_sigma", "E_tilde", "gagliardo_s_of_w", "dual_norm_u", "l2_u", "lp_u",
             "step_slack", "w", "td2_residual"], columns + [W, td2], got,
        ):
            assert val.shape == ref.shape, name
            assert np.max(np.abs(val - ref)) <= 1e-13 * np.max(np.abs(ref)), (M, name)


@pytest.mark.parametrize("kind", FLOWS)
def test_march_returns_the_levels_of_evolve_bitwise(get_op, kind):
    flow, params = _flow(get_op, 64, kind)
    settings = ff.SolverSettings(tau=1e-3, T=1e-2)
    u0 = ff.bump_field(flow.domain)
    U, newton = ff.march(flow, params, u0, settings)
    traj, _ = ff.evolve(flow, params, u0, settings)
    assert U.shape == (11, 64) and traj.W.shape == (10, 64)
    assert np.array_equal(U, traj.U)
    assert [st.iterations for st in traj.stats] == [it for it, *_ in newton]


@pytest.mark.parametrize("kind", FLOWS)
def test_matrix_free_steps_match_the_dense_newton_oracle(get_op, kind):
    # the smallest mesh above MATRIX_FREE_M, where a flow with an interface
    # factors nothing and porous medium stays on the dense policy; the
    # second step starts from the predictor, and only that step is compared
    M = dynamics.MATRIX_FREE_M + 1
    flow, params = _flow(get_op, M, kind)
    settings = ff.SolverSettings(tau=1e-3, T=2e-3)
    traj, trace = ff.evolve(flow, params, ff.bump_field(flow.domain), settings)
    factored = sum(st.factorizations for st in traj.stats)
    assert (factored > 0) == (flow.interface is None), factored
    assert trace.step_slack.min() >= -10 * settings.newton_tol
    start = 2.0 * traj.U[1] - traj.U[0]
    u_ref, w_ref, iters, _ = newton_step_dense(
        flow, params, settings.tau, settings, ff.Field(flow.domain, traj.U[1]), start)
    assert np.max(np.abs(traj.U[2] - u_ref)) <= 1e-9 * np.max(np.abs(u_ref))
    assert np.max(np.abs(traj.W[1] - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))
    assert traj.stats[1].iterations == iters


# both policies: the mesh below MATRIX_FREE_M with ten steps, the smallest
# above it with two
POLICY_RUNS = [(64, 1e-2), (dynamics.MATRIX_FREE_M + 1, 2e-3)]


@pytest.mark.parametrize("kind", FLOWS)
def test_evolve_is_odd_in_the_initial_datum(get_op, kind):
    # beta is odd and every operator linear, and rounding is symmetric, so
    # negating u0 negates every level exactly
    for M, T in POLICY_RUNS:
        flow, params = _flow(get_op, M, kind)
        settings = ff.SolverSettings(tau=1e-3, T=T)
        u0 = ff.bump_field(flow.domain)
        traj, _ = ff.evolve(flow, params, u0, settings)
        neg, _ = ff.evolve(flow, params, -u0, settings)
        assert np.array_equal(neg.U, -traj.U) and np.array_equal(neg.W, -traj.W), M


@pytest.mark.parametrize("kind", FLOWS)
def test_evolve_commutes_with_the_mirror(get_op, kind):
    # the reflection x -> a + b - x commutes with A, M_c and beta, so the
    # mirrored start gives the mirrored levels up to rounding (W, a small
    # difference of levels over tau, mirrors only to about 1e-14)
    for M, T in POLICY_RUNS:
        flow, params = _flow(get_op, M, kind)
        settings = ff.SolverSettings(tau=1e-3, T=T)
        dom = flow.domain
        u0 = ff.Field(dom, ff.bump_field(dom).values * (0.5 + dom.nodes))
        traj, _ = ff.evolve(flow, params, u0, settings)
        mirrored, _ = ff.evolve(flow, params, ff.Field(dom, u0.values[::-1]), settings)
        assert np.abs(mirrored.U - traj.U[:, ::-1]).max() <= 1e-14 * np.abs(traj.U).max(), M


def test_pcg_keeps_its_last_iterate_at_the_cap_only_under_the_forcing_bound():
    # one CG step on diag(1, 2) d = -g from d = 0 without preconditioning
    # is (g.g / g.Hg) (-g), whose residual is orthogonal to g; a second
    # would solve the system
    K = np.diag([1.0, 2.0])
    g = np.array([1.0, 1.0])
    apply = lambda p, out: K @ p
    identity = lambda r, out: r.copy()
    D = np.zeros(2)
    counts = [0]
    assert dynamics._pcg(apply, identity, D, g, counts, cap=1) is None
    d = dynamics._pcg(apply, identity, D, g, counts, cap=1, forcing=0.9)
    assert counts == [2] and np.array_equal(d, -(2.0 / 3.0) * g)
    assert dynamics._pcg(apply, identity, D, g, counts, cap=2) == pytest.approx([-1.0, -0.5])
    # preconditioned by diag(1, 100) on the identity, the first step from
    # g = (1, 0.1) is d = -(2/101)(1, 10): g.(d + g) = 0.97 > 0.9 g.g, so
    # ||grad|| falls too slowly along d and the iterate is dropped
    g = np.array([1.0, 0.1])
    apply = lambda p, out: p.copy()
    scaled = lambda r, out: np.array([1.0, 100.0]) * r
    d_free = dynamics._pcg(apply, scaled, D, g, counts, cap=1, forcing=1.0)
    assert g @ (d_free + g) == pytest.approx(0.97 * (g @ g), rel=1e-2)
    assert dynamics._pcg(apply, scaled, D, g, counts, cap=1, forcing=0.9) is None


@pytest.mark.parametrize("kind", ["cahn-hilliard", "allen-cahn"])
def test_matrix_free_directions_truncated_at_the_cap_reach_the_same_step(
        get_op, monkeypatch, kind):
    # at KRYLOV_CAP a matrix-free direction is PCG's last iterate d, kept
    # only if g.(H d + g) <= KRYLOV_FORCING g.g (checked here with the full
    # product); with the cap at 2 the steps need more Newton iterations
    # and end at the same levels
    cap = 2
    flow, params = _flow(get_op, dynamics.MATRIX_FREE_M + 1, kind)
    settings = ff.SolverSettings(tau=1e-3, T=2e-3)
    u0 = ff.bump_field(flow.domain)
    U, newton = ff.march(flow, params, u0, settings)
    pcg, truncated = dynamics._pcg, []

    def checking(apply, precondition, D, g, counts, *args):
        before = counts[0]
        d = pcg(apply, precondition, D, g, counts, *args)
        if d is not None and counts[0] - before == cap:
            truncated.append(g @ (apply(d, None) + D * d + g) / (g @ g))
        return d

    monkeypatch.setattr(dynamics, "KRYLOV_CAP", cap)
    monkeypatch.setattr(dynamics, "_pcg", checking)
    U_cap, newton_cap = ff.march(flow, params, u0, settings)
    assert truncated and max(truncated) <= dynamics.KRYLOV_FORCING + 1e-12, truncated
    assert all(kr <= cap * it for it, _, kr, _ in newton_cap)
    assert sum(it for it, *_ in newton_cap) > sum(it for it, *_ in newton)
    assert all(res <= settings.newton_tol for _, res, *_ in newton_cap)
    assert np.max(np.abs(U_cap - U)) <= 1e-9 * np.max(np.abs(U))


def test_ch_run_factors_its_hessian_once():
    dom = ff.Domain1D(0, 1, 255)
    op_s, op_sigma = ff.assemble(dom, 0.5), ff.assemble(dom, 0.75)
    settings = ff.SolverSettings(tau=1e-3, T=2e-2)
    traj, _ = ff.evolve(ff.Flow(op_s, op_sigma, 1.0), ff.PotentialParams(p=4),
                        ff.bump_field(dom), settings)
    assert len(traj.stats) == 20
    assert sum(st.factorizations for st in traj.stats) == 1
    assert traj.stats[0].factorizations == 1
    assert all(st.krylov <= dynamics.KRYLOV_MAX * st.iterations for st in traj.stats)
    assert sum(st.krylov for st in traj.stats) > 0


def test_dense_stepper_refactors_by_one_inverse(get_op, monkeypatch):
    # every F_n is strictly convex, so the dense policy refactors by one
    # np.linalg.inv and tests no Hessian for definiteness; porous medium at
    # amplitude 4 refactors several times in 30 steps
    runs = [(*_flow(get_op, 64, kind), amplitude)
            for kind, amplitude in (("cahn-hilliard", 1.0), ("porous-medium", 4.0))]
    calls = {"inv": 0, "cholesky": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    factored = 0
    for flow, params, amplitude in runs:
        traj, _ = ff.evolve(flow, params, ff.bump_field(flow.domain, amplitude),
                            ff.SolverSettings(tau=1e-3, T=3e-2))
        factored += sum(st.factorizations for st in traj.stats)
    assert factored > 0 and calls == {"inv": factored, "cholesky": 0}


def _recorded_march(M, s, sigma, T):
    """march a p = 4 Cahn-Hilliard bump flow on (0, 1) with tau = 1e-3 under
    the dense policy, whatever M, recording (K, D, inverse, g) of every
    _pcg call: K as _lagged_direction reads it, inverse the last that
    np.linalg.inv returned."""
    dom = ff.Domain1D(0, 1, M)
    flow = ff.Flow(ff.assemble(dom, s), ff.assemble(dom, sigma), 1.0)
    K, inverse, systems = [None], [None], []

    def recording_lagged(K_, *args):
        K[0] = K_
        return lagged(K_, *args)

    def recording_inv(a):
        inverse[0] = inv(a)
        return inverse[0]

    def recording(apply, precondition, D, g, counts, *args, **kwargs):
        systems.append((K[0], D, inverse[0], g))
        return pcg(apply, precondition, D, g, counts, *args, **kwargs)

    lagged, inv, pcg = dynamics._lagged_direction, np.linalg.inv, dynamics._pcg
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MATRIX_FREE_M", M)
        mp.setattr(dynamics, "_lagged_direction", recording_lagged)
        mp.setattr(np.linalg, "inv", recording_inv)
        mp.setattr(dynamics, "_pcg", recording)
        _, newton = ff.march(flow, ff.PotentialParams(p=4), ff.bump_field(dom),
                             ff.SolverSettings(tau=1e-3, T=T))
    return newton, systems


@pytest.fixture(scope="module")
def fine_ch_march():
    # benchmark/configs/fine_ch.cfg: M = 1023, s = 0.5, sigma = 0.75, 30 steps
    return _recorded_march(1023, 0.5, 0.75, 0.03)


def test_fine_ch_newton_pcg_and_factorization_counts(fine_ch_march):
    newton, _ = fine_ch_march
    assert len(newton) == 30
    assert sum(it for it, *_ in newton) == 60
    assert sum(kr for _, _, kr, _ in newton) <= 235
    assert sum(fa for *_, fa in newton) == 1


def _dense_pcg(K, D, inverse, g, counts):
    """dynamics._pcg with the dense policy's products on K and inverse."""
    return dynamics._pcg(lambda p, out: np.dot(K, p, out=out),
                         lambda r, out: np.dot(inverse, r, out=out), D, g, counts)


def test_pcg_matches_the_allocating_oracle_on_recorded_systems(fine_ch_march):
    # every fifth fine_ch system (the M = 1023 oracle products are slow),
    # and all of the first 100 steps of configs/ch_reference.cfg (M = 128,
    # s = sigma = 0.5)
    fine_ch = fine_ch_march[1][::5]
    ch_reference = _recorded_march(128, 0.5, 0.5, 0.1)[1]
    assert len(fine_ch) >= 10 and len(ch_reference) >= 100
    for systems in (fine_ch, ch_reference):
        for K, D, inverse, g in systems:
            counts, counts_ref = [0], [0]
            d = _dense_pcg(K, D, inverse, g, counts)
            d_ref = pcg_allocating(K, D, inverse, g, counts_ref)
            assert counts == counts_ref
            assert (d is None) == (d_ref is None)
            if d is not None:
                assert np.max(np.abs(d - d_ref)) <= 1e-12 * np.max(np.abs(d_ref))


def test_fine_ch_matrix_free_newton_and_pcg_counts():
    # the fine_ch march above MATRIX_FREE_M: the dense policy's Newton
    # iterations, at most 8 tau-preconditioned PCG iterations per
    # direction, and nothing factored
    dom = ff.Domain1D(0, 1, 1023)
    assert dom.M > dynamics.MATRIX_FREE_M
    flow = ff.Flow(ff.assemble(dom, 0.5), ff.assemble(dom, 0.75), 1.0)
    _, newton = ff.march(flow, ff.PotentialParams(p=4), ff.bump_field(dom),
                         ff.SolverSettings(tau=1e-3, T=0.03))
    assert len(newton) == 30
    assert sum(it for it, *_ in newton) == 60
    assert all(kr <= 8 * it for it, _, kr, _ in newton)
    assert sum(fa for *_, fa in newton) == 0


def test_directions_on_a_c_ordered_k_allocate_o_of_m():
    # the products write into PCG's buffers, whatever the order of K, and
    # the Hessian is formed in K's buffer
    dom = ff.Domain1D(0, 1, 512)
    op = ff.assemble(dom, 0.5)
    M, h = dom.M, dom.h
    params = ff.PotentialParams(p=4)
    K = op.A + op.M_c
    assert K.flags.c_contiguous and not K.flags.f_contiguous
    counts = [0, 0]
    direction = _lagged_direction(K, params, h, counts)
    u = ff.bump_field(dom).values
    direction(u, np.ones(M))  # the one factorization, an M x M buffer
    wiggle = np.sin(np.arange(M))
    tracemalloc.start()
    try:
        for k in range(100):
            direction(u + 1e-3 * k * wiggle, np.cos(k + np.arange(M)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts[1] == 1 and counts[0] >= 100
    assert peak <= 16 * M * 8, peak


def test_stepper_setup_holds_at_most_one_and_a_half_m_by_m_arrays(monkeypatch):
    # under the dense policy K is the one M x M array: the dual kernel is
    # built in its buffer from the generator of A_s, and A_sigma is added
    # from its O(M) view
    dom = ff.Domain1D(0, 1, 1023)
    monkeypatch.setattr(dynamics, "MATRIX_FREE_M", dom.M)
    flow = ff.Flow(ff.assemble(dom, 0.5), ff.assemble(dom, 0.75), 1.0)
    settings = ff.SolverSettings(tau=1e-3, T=1e-3)
    tracemalloc.start()
    try:
        step = dynamics._stepper(flow, ff.PotentialParams(p=4), settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del step
    assert peak <= 1.5 * dom.M**2 * 8, peak / (dom.M**2 * 8)


def test_evolve_holds_at_most_two_and_a_half_m_by_m_arrays(monkeypatch):
    # under the dense policy, K and the inverse of the first Hessian, which
    # is formed in K's buffer; the recovery adds only (n+1, M) arrays
    dom = ff.Domain1D(0, 1, 1023)
    monkeypatch.setattr(dynamics, "MATRIX_FREE_M", dom.M)
    flow = ff.Flow(ff.assemble(dom, 0.5), ff.assemble(dom, 0.75), 1.0)
    u0 = ff.bump_field(dom)
    tracemalloc.start()
    try:
        ff.evolve(flow, ff.PotentialParams(p=4), u0, ff.SolverSettings(tau=1e-3, T=2e-3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * dom.M**2 * 8, peak / (dom.M**2 * 8)


def test_matrix_free_evolve_holds_no_m_by_m_array():
    # above MATRIX_FREE_M no dual kernel, K, Hessian or inverse is built:
    # the march and the recovery hold O(M) vectors and (n+1, M) levels
    dom = ff.Domain1D(0, 1, 1023)
    assert dom.M > dynamics.MATRIX_FREE_M
    flow = ff.Flow(ff.assemble(dom, 0.5), ff.assemble(dom, 0.75), 1.0)
    u0 = ff.bump_field(dom)
    tracemalloc.start()
    try:
        ff.evolve(flow, ff.PotentialParams(p=4), u0, ff.SolverSettings(tau=1e-3, T=2e-3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * dom.M**2 * 8, peak / (dom.M**2 * 8)


def test_fast_diffusion_refactors_and_matches_the_oracle(get_op):
    op_s = get_op(0.0, 1.0, 64, 0.5)
    params = ff.PotentialParams(p=1.5, lam=0.0, delta=1e-8)
    settings = ff.SolverSettings(tau=1e-3, T=5e-3)
    stats = _check_against_oracle(
        ff.Flow(op_s, None, 0.0), params, settings, ff.bump_field(op_s.domain)
    )
    assert sum(st.factorizations for st in stats) > 1


def test_evolve_builds_no_dense_mass_or_dual_kernel():
    dom = ff.Domain1D(0, 1, 32)
    settings = ff.SolverSettings(tau=1e-3, T=3e-3)
    for s, sigma, lam, params in [
        (0.5, 0.75, 1.0, ff.PotentialParams(p=4)),
        (None, 0.75, 1.0, ff.PotentialParams(p=4)),
        (0.5, None, 0.0, ff.PotentialParams(p=3, lam=0.0)),
    ]:
        op_s = None if s is None else ff.assemble(dom, s)
        op_sigma = None if sigma is None else ff.assemble(dom, sigma)
        ff.evolve(ff.Flow(op_s, op_sigma, lam), params, ff.bump_field(dom), settings)
        for op in (op_s, op_sigma):
            if op is not None:
                assert "M_c" not in vars(op)
                assert op._dual_kernel_cache == [None]


def test_evolve_solve_count_does_not_grow_with_steps(monkeypatch):
    # the dual solves of the recovery take all steps at once, and the
    # stepper's refactorizations solve nothing, so no solve is added as the
    # run gets longer
    from fracfield import fracop

    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fracop.FracOperator, "solve_vector",
                        counted(fracop.FracOperator.solve_vector))
    dom = ff.Domain1D(0, 1, 32)
    tau = 1e-3
    for s, sigma, lam, params in [
        (0.5, 0.75, 1.0, ff.PotentialParams(p=4)),
        (None, 0.75, 1.0, ff.PotentialParams(p=4)),
        (0.5, None, 0.0, ff.PotentialParams(p=3, lam=0.0)),
    ]:
        counts = []
        for steps in (5, 50):
            # fresh operators, so no run reads what an earlier one cached
            op_s = None if s is None else ff.assemble(dom, s)
            op_sigma = None if sigma is None else ff.assemble(dom, sigma)
            calls[0] = 0
            traj, _ = ff.evolve(ff.Flow(op_s, op_sigma, lam), params, ff.bump_field(dom),
                                ff.SolverSettings(tau=tau, T=steps * tau))
            assert len(traj.stats) == steps
            counts.append(calls[0])
        assert counts[0] == counts[1], (s, sigma, counts)


STORED = ("column", "_embedding", "_tau", "_generator", "_generator_dft")


def test_evolve_leaves_operator_arrays_untouched():
    # one operator may serve several flows (cli shares it when s = sigma),
    # so every array it stores is read-only and a run leaves it as it was
    dom = ff.Domain1D(0, 1, 32)
    op_s, op_sigma = ff.assemble(dom, 0.5), ff.assemble(dom, 0.75)
    arrays = lambda: [getattr(op, name) for op in (op_s, op_sigma) for name in STORED]
    before = [a.tobytes() for a in arrays()]
    settings = ff.SolverSettings(tau=1e-3, T=3e-3)
    u0 = ff.bump_field(dom)
    for flow, params in [
        (ff.Flow(op_s, op_sigma, 1.0), ff.PotentialParams(p=4)),
        (ff.Flow(None, op_sigma, 1.0), ff.PotentialParams(p=4)),
        (ff.Flow(op_s, None, 0.0), ff.PotentialParams(p=3, lam=0.0)),
    ]:
        ff.evolve(flow, params, u0, settings)
    assert [a.tobytes() for a in arrays()] == before
    for a in arrays():
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] += 1.0


# ------------------------------------------------------------------ checks
def test_identity_gap_linear_case_closed_form(ops48, monkeypatch):
    # with the power-law term zeroed every step solves a linear system and
    # the inequality slack is exactly the second-order Taylor remainder,
    # with each flow's own concave weight
    def zero(params, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    for name in ("beta", "beta_hat", "beta_reg", "beta_hat_reg", "beta_prime_reg"):
        monkeypatch.setattr(potential, name, zero)
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    u0 = ff.bump_field(op_s.domain)
    st = ff.SolverSettings(tau=2e-3, T=0.02)
    flows = {
        "cahn-hilliard": ff.Flow(op_s, op_sig, params.lam),
        "modified": ff.Flow(op_s, op_sig, lam1),
        "allen-cahn": ff.Flow(None, op_sig, params.lam),
    }
    for name, flow in flows.items():
        traj, trace = ff.evolve(flow, params, u0, st)
        for n in range(1, len(traj.U)):
            du = traj.U[n] - traj.U[n - 1]
            closed = 0.5 * flow.lam * du @ (op_sig.M_c @ du) + 0.5 * du @ (op_sig.A @ du)
            assert trace.step_slack[n] == pytest.approx(closed, rel=1e-9), name


def test_identity_gap_report_requires_decreasing_taus(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    traces = [
        ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, u0,
                  ff.SolverSettings(tau=t, T=0.02))[1]
        for t in (2e-3, 1e-3)
    ]
    rep = ff.check_energy_identity_gap(traces, sigma=0.6, s=0.5)
    assert rep.identity_expected
    with pytest.raises(ValueError):
        ff.check_energy_identity_gap(list(reversed(traces)), 0.6, 0.5)


def test_identity_gap_not_asserted_when_sigma_below_s(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    traces = [
        ff.evolve(ff.Flow(op_sig, op_s, params.lam), params, u0,
                  ff.SolverSettings(tau=t, T=0.02))[1]
        for t in (2e-3, 1e-3)
    ]
    rep = ff.check_energy_identity_gap(traces, sigma=0.5, s=0.6)
    assert not rep.identity_expected
    assert all(np.isfinite(s) for s in rep.cumulative_slacks)


def test_beta_bound_zero_trajectory(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                        ff.Field(op_s.domain, np.zeros(op_s.domain.M)), ff.SolverSettings(tau=1e-3, T=0.01))
    assert ff.beta_bound_check(traj, params) == 0.0


def test_beta_bound_along_quartic_run(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                        ff.bump_field(op_s.domain), ff.SolverSettings(tau=1e-3, T=0.05))
    assert ff.beta_bound_check(traj, params) <= 1e-8


def test_beta_bound_modified_run_recorded(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=1.5)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    traj, _ = ff.evolve(ff.Flow(op_s, op_sig, lam1), params, ff.bump_field(op_s.domain),
                        ff.SolverSettings(tau=1e-3, T=0.02))
    violation = ff.beta_bound_check(traj, params, lambda_coef=lam1)
    assert np.isfinite(violation)


def test_beta_bound_equals_the_per_level_oracle_bitwise(ops48, rng):
    op_s, op_sig = ops48
    dom = op_s.domain
    params = ff.PotentialParams(p=4)
    traj, _ = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params, ff.bump_field(dom),
                        ff.SolverSettings(tau=1e-3, T=0.02))
    assert ff.beta_bound_check(traj, params) == beta_bound_per_level(traj, params) == 0.0
    # levels of random size with a small w violate the bound by varying amounts
    U = rng.standard_normal((21, dom.M)) * rng.uniform(0.5, 3.0, (21, 1))
    W = 0.1 * rng.standard_normal((20, dom.M))
    synthetic = dynamics.Trajectory(traj.times, U, W, traj.stats, dom)
    for coef in (1.0, 0.3):
        got = ff.beta_bound_check(synthetic, params, lambda_coef=coef)
        assert got > 0 and got == beta_bound_per_level(synthetic, params, lambda_coef=coef)


# ------------------------------------------------------------------ export
def test_trajectory_csv_shape(ops48, tmp_path, monkeypatch):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.evolve(ff.Flow(op_s, op_sig, params.lam), params,
                            ff.bump_field(op_s.domain),
                            ff.SolverSettings(tau=1e-3, T=0.005))
    # the CLI writes the artifacts of this very run
    monkeypatch.setattr(dynamics, "evolve", lambda *args: (traj, trace))
    text = "M = 48\ns = 0.5\nsigma = 0.6\np = 4\ntau = 1e-3\nT = 0.005\n"
    artifacts = cli.run(parse_config(text), output_dir=str(tmp_path))
    lines = artifacts["trajectory.csv"].strip().splitlines()
    assert lines[0].startswith("t,u_1,") and lines[0].endswith(",u_48")
    assert len(lines) == 1 + len(traj.U)
    vals = lines[3].split(",")
    assert float(vals[2]) == traj.U[2, 1]
    tlines = artifacts["energy.csv"].strip().splitlines()
    assert tlines[0] == "t,E_sigma,E_tilde,gagliardo_s_of_w,dual_norm_u,l2_u,lp_u,step_slack"


def test_csv_rows_match_per_value_formatting():
    rng = np.random.default_rng(3)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e308, -1e308,
               np.inf, -np.inf, np.nan]
    vals = np.concatenate((
        rng.standard_normal(79) * 10.0 ** rng.integers(-300, 300, 79), special
    ))
    rng.shuffle(vals)
    labels = ["trivial", "nontrivial-positive", "nan", "1e3", ""]

    def expected(header, rows):
        return "\n".join([",".join(header)] + [
            ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in r) for r in rows
        ]) + "\n"

    # a str column between float columns, in rows of 8 floats and of 11
    for table in (vals.reshape(11, 8), vals.reshape(8, 11)):
        n = table.shape[1]
        rows = [(*r[:3].tolist(), labels[k % len(labels)], *r[3:].tolist())
                for k, r in enumerate(table)]
        header = ["t", "E", "F", "classification"] + [f"u_{i}" for i in range(1, n - 2)]
        assert cli.table_to_csv(header, rows) == expected(header, rows)
        assert cli.table_to_csv(header, iter(rows)) == expected(header, rows)
    assert cli.table_to_csv(["r", "gap"], []) == "r,gap\n"
    with pytest.raises(ValueError, match="3 values for 2 columns"):
        cli.table_to_csv(["r", "gap"], [(0.5, 1.0, 2.0)])


@pytest.mark.parametrize("tau, T", [(1e-3, np.inf), (1e-320, 1.0), (np.nan, 1.0),
                                    (1e-3, np.nan), (0.0, 1.0), (2.0, 1.0)])
def test_settings_reject_horizons_without_a_finite_step_count(tau, T):
    with pytest.raises(ValueError, match="need 0 < tau <= T"):
        ff.SolverSettings(tau=tau, T=T)


def test_horizon_must_be_a_whole_number_of_steps():
    with pytest.raises(ValueError, match="whole number of steps"):
        ff.SolverSettings(tau=0.3, T=0.5)
    # T / tau rounds to just off an integer here; the relative 1e-9 absorbs it
    assert 0.3 / 0.1 != 3 and ff.SolverSettings(tau=0.1, T=0.3).n_steps == 3
    assert ff.SolverSettings(tau=1e-3, T=0.5).n_steps == 500
    assert ff.SolverSettings(tau=1e-3, T=0.03).n_steps == 30
    assert ff.SolverSettings(tau=0.25, T=0.25).n_steps == 1
