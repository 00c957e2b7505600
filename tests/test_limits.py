import numpy as np
import pytest

import fracfield as ff
from fracfield import cli, dynamics, limits
from fracfield.config import parse_config
from fracfield.limits import (
    CompatibilityError,
    LimitReport,
    max_l2_distance,
    spacetime_l2_distance,
)

from oracles import max_l2_distance_per_level, spacetime_l2_distance_per_level


def settings_fast():
    return ff.SolverSettings(tau=1e-3, T=0.01)


def test_zero_data_gives_zero_distances():
    dom = ff.make_domain(0, 1, 32)
    u0 = ff.zero_field(dom)
    rep = ff.limit_sigma(dom, 0.5, ff.PotentialParams(p=3), u0, [0.4, 0.2],
                         settings_fast())
    assert rep.distances == [0.0, 0.0]
    rep = ff.limit_s_to_ac(dom, 0.5, ff.PotentialParams(p=4), u0, [0.4, 0.2], settings_fast())
    assert rep.distances == [0.0, 0.0]


def test_reference_solver_reproduces_itself():
    dom = ff.make_domain(0, 1, 32)
    u0 = ff.bump_field(dom)
    op_s = ff.assemble(dom, 0.5)
    params = ff.PotentialParams(p=3)
    a, _ = ff.march(ff.Flow(op_s, None, 0.0), params, u0, settings_fast())
    b, _ = ff.march(ff.Flow(op_s, None, 0.0), params, u0, settings_fast())
    assert spacetime_l2_distance(a, b, 1e-3, dom.h) == 0.0
    assert max_l2_distance(a, b, dom.h) == 0.0


def test_distances_equal_the_per_level_oracle_bitwise():
    # the sigma-limit pairs (porous-medium reference against Cahn-Hilliard
    # marches) and the s-limit pairs (Allen-Cahn reference against
    # Cahn-Hilliard marches), as the drivers run them at M = 32; pairwise
    # summation over the levels would round differently at sigma = 0.4
    dom = ff.make_domain(0, 1, 32)
    st = ff.SolverSettings(tau=1e-3, T=0.05)
    u0 = ff.bump_field(dom, 2.0)
    op_s = ff.assemble(dom, 0.5)
    pm = ff.PotentialParams(p=3)
    ref, _ = ff.march(ff.Flow(op_s, None, 0.0), pm, u0, st)
    for sigma in (0.4, 0.2, 0.1):
        U, _ = ff.march(ff.Flow(op_s, ff.assemble(dom, sigma), pm.lam), pm, u0, st)
        got = spacetime_l2_distance(U, ref, st.tau, dom.h)
        assert got > 0 and got == spacetime_l2_distance_per_level(dom, U, ref, st.tau)
    ac = ff.PotentialParams(p=4)
    op_sigma = ff.assemble(dom, 0.5)
    ref, _ = ff.march(ff.Flow(None, op_sigma, ac.lam), ac, u0, st)
    for s in (0.4, 0.2, 0.1):
        U, _ = ff.march(ff.Flow(ff.assemble(dom, s), op_sigma, ac.lam), ac, u0, st)
        got = max_l2_distance(U, ref, dom.h)
        assert got > 0 and got == max_l2_distance_per_level(dom, U, ref)


def test_limit_drivers_only_march(monkeypatch):
    def no_recovery(*args, **kwargs):
        raise AssertionError("a limit driver recovered w and the energy trace")

    monkeypatch.setattr(dynamics, "recover", no_recovery)
    dom = ff.make_domain(0, 1, 16)
    u0 = ff.bump_field(dom)
    with pytest.raises(AssertionError, match="recovered"):  # the patch is live
        ff.evolve(ff.Flow(None, ff.assemble(dom, 0.5), 1.0), ff.PotentialParams(p=4), u0,
                  settings_fast())
    ff.limit_sigma(dom, 0.5, ff.PotentialParams(p=3), u0, [0.4, 0.2], settings_fast())
    ff.limit_sigma(dom, 0.75, ff.PotentialParams(p=1.5), u0, [0.4, 0.2], settings_fast())
    ff.limit_s_to_ac(dom, 0.5, ff.PotentialParams(p=4), u0, [0.4, 0.2], settings_fast())


def test_fast_diffusion_compatibility_precondition(monkeypatch):
    dom = ff.make_domain(0, 1, 32)
    u0 = ff.bump_field(dom)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the compatibility check")

    monkeypatch.setattr(limits, "assemble", no_assembly)
    with pytest.raises(CompatibilityError):  # 2_* = 2/(1+2s) = 5/3 at s = 0.1
        ff.limit_sigma(dom, 0.1, ff.PotentialParams(p=1.5), u0, [0.4, 0.2],
                       settings_fast())


def test_limit_sigma_picks_the_regime_from_p():
    dom = ff.make_domain(0, 1, 16)
    u0 = ff.bump_field(dom)
    rep = ff.limit_sigma(dom, 0.5, ff.PotentialParams(p=3), u0, [0.4, 0.2], settings_fast())
    assert rep.reference == "porous-medium" and rep.lambda1s is None
    rep = ff.limit_sigma(dom, 0.75, ff.PotentialParams(p=1.5), u0, [0.4, 0.2, 0.1],
                         settings_fast())
    assert rep.reference == "fast-diffusion" and len(rep.lambda1s) == 3


def test_pm_limit_distances_shrink():
    dom = ff.make_domain(0, 1, 48)
    u0 = ff.bump_field(dom, 2.0)
    rep = ff.limit_sigma(dom, 0.5, ff.PotentialParams(p=3), u0, [0.4, 0.2, 0.1],
                         ff.SolverSettings(tau=1e-3, T=0.05))
    assert rep.reference == "porous-medium"
    assert rep.monotone
    for d_prev, d_next in zip(rep.distances, rep.distances[1:]):
        assert d_next <= 1.05 * d_prev
    assert rep.reduction_factor < 1.0


def test_ac_limit_distances_shrink():
    dom = ff.make_domain(0, 1, 48)
    u0 = ff.bump_field(dom, 2.0)
    rep = ff.limit_s_to_ac(dom, 0.5, ff.PotentialParams(p=4), u0, [0.4, 0.2, 0.1],
                           ff.SolverSettings(tau=5e-4, T=0.01))
    assert rep.reference == "allen-cahn"
    assert rep.monotone


def test_fd_limit_records_eigenvalues():
    dom = ff.make_domain(0, 4, 48)
    u0 = ff.bump_field(dom)
    rep = ff.limit_sigma(dom, 0.75, ff.PotentialParams(p=1.5), u0, [0.4, 0.2, 0.1],
                         ff.SolverSettings(tau=5e-4, T=0.01))
    assert rep.reference == "fast-diffusion"
    assert rep.lambda1s is not None
    assert all(b > a for a, b in zip(rep.lambda1s, rep.lambda1s[1:]))
    assert all(lam < 1.0 for lam in rep.lambda1s)


def test_report_validates_sequences():
    with pytest.raises(ValueError):
        LimitReport([0.4, 0.4], [1.0, 0.5], "porous-medium")
    with pytest.raises(ValueError):
        LimitReport([0.4, 0.2], [1.0, -0.5], "porous-medium")


def test_report_csv_includes_lambda_column_when_present(tmp_path, monkeypatch):
    rep = LimitReport([0.4, 0.2], [1.0, 0.5], "fast-diffusion", lambda1s=[0.3, 0.5])
    # the CLI writes this report for a fast-diffusion limit run
    monkeypatch.setattr(limits, "limit_sigma", lambda *args, **kwargs: rep)
    text = ("experiment = limit-sigma\nM = 16\ns = 0.5\np = 1.5\ntau = 1e-3\n"
            "T = 0.01\nsequence = 0.4, 0.2\n")
    artifacts = cli.run(parse_config(text), output_dir=str(tmp_path))
    lines = artifacts["report.csv"].strip().splitlines()
    assert lines[0] == "param,distance,lambda1"
    assert lines[1] == "0.40000000000000002,1,0.29999999999999999"


def test_operator_identity_limit_rows(get_op):
    dom = ff.make_domain(0, 1, 256)
    get_op(0.0, 1.0, 256, 0.05)  # warm the cache used elsewhere
    v = ff.bump_field(dom)
    rows = ff.operator_identity_limit(dom, v, [0.4, 0.2, 0.1, 0.05])
    gaps = [row["relative_gap"] for row in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.15


def test_operator_identity_limit_on_eigenfunctions(get_op):
    # with v = e1(r), the identity gap equals |lambda1(r) - 1| exactly up to
    # the eigensolver residual, re-observing the eigenvalue limit
    dom = ff.make_domain(0, 1, 128)
    for r in (0.2, 0.1, 0.05):
        op = get_op(0.0, 1.0, 128, r)
        pair = ff.first_eigenpair(op)
        rows = ff.operator_identity_limit(dom, pair.e1, [r])
        expected = abs(pair.lambda1 - 1.0)
        assert rows[0]["relative_gap"] == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_operator_identity_limit_requires_decreasing_orders():
    dom = ff.make_domain(0, 1, 32)
    with pytest.raises(ValueError):
        ff.operator_identity_limit(dom, ff.bump_field(dom), [0.1, 0.2])


def test_ac_limit_from_stationary_datum_stays_at_solver_scale(get_op):
    # a stationary state has identically zero chemical potential, so every
    # flow in the family keeps it fixed and the distances collapse to the
    # solver-tolerance scale
    op = get_op(0.0, 10.0, 127, 0.5)
    res = ff.minimize_energy(op, ff.PotentialParams(p=4))
    rep = ff.limit_s_to_ac(op.domain, 0.5, ff.PotentialParams(p=4), res.u_star, [0.4, 0.2],
                           ff.SolverSettings(tau=1e-3, T=0.01))
    assert all(d <= 1e-7 for d in rep.distances)


def test_pm_limit_verdict_stable_under_mesh_doubling():
    sigmas = [0.4, 0.2, 0.1]
    st = ff.SolverSettings(tau=1e-3, T=0.05)
    verdicts = []
    for M in (48, 96):
        dom = ff.make_domain(0, 1, M)
        rep = ff.limit_sigma(dom, 0.5, ff.PotentialParams(p=3), ff.bump_field(dom, 2.0),
                             sigmas, st)
        verdicts.append(rep.monotone)
    assert verdicts[0] == verdicts[1] is True
