import numpy as np
import pytest

import fracfield as ff
from fracfield.dynamics import (
    NewtonDivergenceError,
    a_priori_monitors,
    trajectory_to_csv,
)
from fracfield.grid import DomainMismatchError

from oracles import ch_step_functional_value, stiffness_closed_form


@pytest.fixture(scope="module")
def ops48():
    dom = ff.make_domain(0, 1, 48)
    return ff.assemble(dom, 0.5), ff.assemble(dom, 0.6)


# ------------------------------------------------------------------ energy
def test_energy_zero_field(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    assert ff.energy(op_sig, params, ff.zero_field(op_sig.domain)) == 0.0


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
    assert ff.energy_modified(op_sig, params, params.lam, u) == ff.energy(op_sig, params, u)
    assert ff.energy_modified(op_sig, params, 0.7, u) > ff.energy(op_sig, params, u)
    assert ff.energy_modified(op_sig, params, 0.7, ff.zero_field(op_sig.domain)) == 0.0


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
        lhs = ff.energy_modified(op_sig, params, lam1, v)
        rhs = ff.lp_norm(v, 4) ** 4 / 4
        allowance = 0.5 * gap * ff.lp_norm(v, 2) ** 2 + 1e-9
        assert lhs >= rhs - allowance


# ------------------------------------------------------------------ CH step
def test_ch_step_zero_fixed_point(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u, w, stats = ff.ch_step(op_s, op_sig, params, ff.zero_field(op_s.domain), 1e-3)
    assert np.all(u.values == 0.0) and np.all(w.values == 0.0)
    assert stats.iterations == 0


def test_ch_step_returns_the_minimizer(ops48, rng):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    tau = 1e-3
    un, _, _ = ff.ch_step(op_s, op_sig, params, u0, tau)

    def value(u):
        return ch_step_functional_value(op_s, 0.6, 4.0, params.lam, u0, tau, u)

    f_star = value(un.values)
    for _ in range(10):
        z = rng.standard_normal(op_s.domain.M)
        assert value(un.values + 1e-3 * z) >= f_star


def test_ch_step_flow_equation_holds_exactly(ops48):
    # w_n is defined through the dual solve, so the discrete flow equation
    # M_c du/tau + A_s w = 0 holds to solver precision
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    tau = 1e-3
    un, wn, stats = ff.ch_step(op_s, op_sig, params, u0, tau)
    res = op_s.M_c @ (un.values - u0.values) / tau + op_s.A @ wn.values
    assert np.linalg.norm(res) <= 1e-9
    assert stats.td2_residual <= 1e-9


def test_ch_step_halving_consistency_order(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    errs = []
    for tau in (2e-3, 1e-3, 5e-4):
        u1, _, _ = ff.ch_step(op_s, op_sig, params, u0, tau)
        uh, _, _ = ff.ch_step(op_s, op_sig, params, u0, tau / 2)
        uh2, _, _ = ff.ch_step(op_s, op_sig, params, uh, tau / 2)
        errs.append(ff.lp_norm(u1 - uh2, 2))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 0.8 for o in orders)


def test_newton_divergence_reports_residual(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain, 5.0)
    settings = ff.SolverSettings(tau=1.0, T=1.0, newton_max=1)
    with pytest.raises(NewtonDivergenceError) as err:
        ff.ch_step(op_s, op_sig, params, u0, 1.0, settings)
    assert err.value.residual > 0


# ------------------------------------------------------------------ evolve
def test_ch_evolve_zero_initial_datum(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.ch_evolve(op_s, op_sig, params, ff.zero_field(op_s.domain),
                               ff.SolverSettings(tau=1e-3, T=0.01))
    assert all(np.all(u.values == 0.0) for u in traj.u)
    assert np.all(trace.E_sigma == 0.0)


def test_ch_evolve_energy_dissipation(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    traj, trace = ff.ch_evolve(op_s, op_sig, params, u0,
                               ff.SolverSettings(tau=1e-3, T=0.05))
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 1e-3, rtol=0, atol=1e-15)
    assert np.array_equal(traj.u[0].values, u0.values)
    assert np.all(np.diff(trace.E_sigma) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9
    assert np.all(np.isfinite(trace.gagliardo_s_of_w))


def test_ch_evolve_deterministic_bitwise(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    settings = ff.SolverSettings(tau=1e-3, T=0.02)
    t1, _ = ff.ch_evolve(op_s, op_sig, params, ff.bump_field(op_s.domain), settings)
    t2, _ = ff.ch_evolve(op_s, op_sig, params, ff.bump_field(op_s.domain), settings)
    for u1, u2 in zip(t1.u, t2.u):
        assert np.array_equal(u1.values, u2.values)


def test_modified_scheme_reduces_to_original_bitwise(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    settings = ff.SolverSettings(tau=1e-3, T=0.02)
    t1, tr1 = ff.ch_evolve(op_s, op_sig, params, u0, settings)
    t2, tr2 = ff.ch_evolve_modified(op_s, op_sig, params, 1.0, u0, settings)
    for u1, u2 in zip(t1.u, t2.u):
        assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(tr1.E_sigma, tr2.E_sigma)


def test_modified_scheme_dissipates_modified_energy(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=1.5)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    traj, trace = ff.ch_evolve_modified(op_s, op_sig, params, lam1,
                                        ff.bump_field(op_s.domain),
                                        ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_tilde) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9
    # coercivity along the trajectory, with the lumped-eigenvalue allowance
    evals = np.linalg.eigvalsh(np.linalg.solve(op_sig.M_L, op_sig.A))
    gap = max(0.0, lam1 - float(evals.min()))
    for k, u in enumerate(traj.u):
        lhs = ff.lp_norm(u, 1.5) ** 1.5 / 1.5
        allowance = 0.5 * gap * ff.lp_norm(u, 2) ** 2 + 1e-9
        assert lhs <= trace.E_tilde[0] + allowance


def test_a_priori_monitors_stable_under_tau_halving(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    m = {}
    for tau in (1e-3, 5e-4):
        traj, _ = ff.ch_evolve(op_s, op_sig, params, u0, ff.SolverSettings(tau=tau, T=0.1))
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
    base, _ = ff.ch_evolve(op_s, op_sig, params, u0, settings)
    ratios = []
    for eta in (1e-2, 1e-4, 1e-6):
        traj, _ = ff.ch_evolve(op_s, op_sig, params, u0 + eta * pert, settings)
        d0 = np.sqrt(op_s.dual_norm_sq(traj.u[0] - base.u[0]))
        dT = np.sqrt(op_s.dual_norm_sq(traj.u[-1] - base.u[-1]))
        ratios.append(dT / d0)
    assert (max(ratios) - min(ratios)) / min(ratios) <= 0.10


# ------------------------------------------------------------------ AC / PM
def test_ac_evolve_zero_and_dissipation(ops48):
    _, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.ac_evolve(op_sig, params, ff.zero_field(op_sig.domain),
                               ff.SolverSettings(tau=1e-3, T=0.01))
    assert all(np.all(u.values == 0.0) for u in traj.u)
    traj, trace = ff.ac_evolve(op_sig, params, ff.bump_field(op_sig.domain),
                               ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_sigma) <= 1e-9)
    assert trace.step_slack[1:].min() >= -1e-9


def test_ac_stationary_state_is_fixed_point(get_op):
    op = get_op(0.0, 10.0, 127, 0.5)
    params = ff.PotentialParams(p=4)
    res = ff.minimize_energy(op, params)
    assert not res.is_trivial
    traj, _ = ff.ac_evolve(op, params, res.u_star, ff.SolverSettings(tau=1e-3, T=0.1))
    assert len(traj.w) == 100
    drift = ff.lp_norm(traj.u[-1] - traj.u[0], 2)
    assert drift <= 1e-8


def test_pm_evolve_zero_and_monotone_dissipation(ops48):
    op_s, _ = ops48
    params = ff.PotentialParams(p=3)
    traj, trace = ff.pm_evolve(op_s, params, ff.zero_field(op_s.domain),
                               ff.SolverSettings(tau=1e-3, T=0.01))
    assert all(np.all(u.values == 0.0) for u in traj.u)
    traj, trace = ff.pm_evolve(op_s, params, ff.bump_field(op_s.domain),
                               ff.SolverSettings(tau=1e-3, T=0.05))
    assert np.all(np.diff(trace.E_sigma) <= 1e-12)
    assert trace.step_slack[1:].min() >= -1e-10


def test_fast_diffusion_branch_runs(ops48):
    op_s, _ = ops48
    params = ff.PotentialParams(p=1.5)
    traj, trace = ff.pm_evolve(op_s, params, ff.bump_field(op_s.domain),
                               ff.SolverSettings(tau=1e-3, T=0.02))
    assert np.all(np.diff(trace.E_sigma) <= 1e-12)
    assert all(np.all(np.isfinite(u.values)) for u in traj.u)


def test_pm_evolve_ignores_lam_and_traces_exact_lyapunov(ops48):
    # the porous-medium energy has no concave term: the concave weight in
    # params must not reach the steps, and E_sigma is h sum |u|^p / p with
    # the exact (unsmoothed) power law
    op_s, _ = ops48
    u0 = ff.bump_field(op_s.domain)
    settings = ff.SolverSettings(tau=1e-3, T=0.01)
    t1, tr1 = ff.pm_evolve(op_s, ff.PotentialParams(p=1.5, lam=1.0), u0, settings)
    t0, tr0 = ff.pm_evolve(op_s, ff.PotentialParams(p=1.5, lam=0.0), u0, settings)
    for a, b in zip(t1.u, t0.u):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(tr1.E_sigma, tr0.E_sigma)
    assert np.array_equal(tr1.E_tilde, tr1.E_sigma)
    h = op_s.domain.h
    for u, e in zip(t1.u, tr1.E_sigma):
        assert e == pytest.approx(h * np.sum(np.abs(u.values) ** 1.5 / 1.5), rel=1e-12)


def test_flow_needs_an_operator_on_one_domain(ops48):
    op_s, _ = ops48
    other = ff.assemble(ff.make_domain(0, 2, 48), 0.5)
    with pytest.raises(ValueError):
        ff.Flow(None, None, 1.0)
    with pytest.raises(DomainMismatchError):
        ff.Flow(op_s, other, 1.0)
    step_on_other = ff.Flow(None, other, 1.0)
    with pytest.raises(DomainMismatchError):
        ff.evolve(step_on_other, ff.PotentialParams(p=4), ff.bump_field(op_s.domain),
                  ff.SolverSettings(tau=1e-3, T=1e-3))


# ------------------------------------------------------------------ checks
def test_identity_gap_linear_case_closed_form(ops48):
    # with the power-law term disabled every step solves a linear system and
    # the inequality slack is exactly the second-order Taylor remainder,
    # with each flow's own concave weight
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4, beta_scale=0.0)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    u0 = ff.bump_field(op_s.domain)
    st = ff.SolverSettings(tau=2e-3, T=0.02)
    runs = {
        "cahn-hilliard": (params.lam, ff.ch_evolve(op_s, op_sig, params, u0, st)),
        "modified": (lam1, ff.ch_evolve_modified(op_s, op_sig, params, lam1, u0, st)),
        "allen-cahn": (params.lam, ff.ac_evolve(op_sig, params, u0, st)),
    }
    for name, (lam, (traj, trace)) in runs.items():
        for n in range(1, len(traj.u)):
            du = traj.u[n].values - traj.u[n - 1].values
            closed = 0.5 * lam * du @ (op_sig.M_c @ du) + 0.5 * du @ (op_sig.A @ du)
            assert trace.step_slack[n] == pytest.approx(closed, rel=1e-9), name


def test_identity_gap_report_requires_decreasing_taus(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op_s.domain)
    traces = [
        ff.ch_evolve(op_s, op_sig, params, u0, ff.SolverSettings(tau=t, T=0.02))[1]
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
        ff.ch_evolve(op_sig, op_s, params, u0, ff.SolverSettings(tau=t, T=0.02))[1]
        for t in (2e-3, 1e-3)
    ]
    rep = ff.check_energy_identity_gap(traces, sigma=0.5, s=0.6)
    assert not rep.identity_expected
    assert all(np.isfinite(s) for s in rep.cumulative_slacks)


def test_beta_bound_zero_trajectory(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, _ = ff.ch_evolve(op_s, op_sig, params, ff.zero_field(op_s.domain),
                           ff.SolverSettings(tau=1e-3, T=0.01))
    assert ff.beta_bound_check(traj, params) == 0.0


def test_beta_bound_along_quartic_run(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, _ = ff.ch_evolve(op_s, op_sig, params, ff.bump_field(op_s.domain),
                           ff.SolverSettings(tau=1e-3, T=0.05))
    assert ff.beta_bound_check(traj, params) <= 1e-8


def test_beta_bound_modified_run_recorded(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=1.5)
    lam1 = ff.first_eigenpair(op_sig).lambda1
    traj, _ = ff.ch_evolve_modified(op_s, op_sig, params, lam1,
                                    ff.bump_field(op_s.domain),
                                    ff.SolverSettings(tau=1e-3, T=0.02))
    violation = ff.beta_bound_check(traj, params, lambda_coef=lam1)
    assert np.isfinite(violation)


# ------------------------------------------------------------------ export
def test_trajectory_csv_shape(ops48):
    op_s, op_sig = ops48
    params = ff.PotentialParams(p=4)
    traj, trace = ff.ch_evolve(op_s, op_sig, params, ff.bump_field(op_s.domain),
                               ff.SolverSettings(tau=1e-3, T=0.005))
    lines = trajectory_to_csv(traj).strip().splitlines()
    assert lines[0].startswith("t,u_1,") and lines[0].endswith(",u_48")
    assert len(lines) == 1 + len(traj.u)
    vals = lines[3].split(",")
    assert float(vals[2]) == traj.u[2].values[1]
    tlines = trace.to_csv().strip().splitlines()
    assert tlines[0] == "t,E_sigma,E_tilde,gagliardo_s_of_w,dual_norm_u,l2_u,lp_u,step_slack"
