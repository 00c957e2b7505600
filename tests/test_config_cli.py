import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracfield.cli as cli
from fracfield import dynamics, fracop, limits, spectral, stationary
from fracfield.config import (
    MAX_GRID_VALUES,
    ConfigError,
    ParseError,
    RunConfig,
    ValidationError,
    parse_config,
)
from fracfield.dynamics import NewtonDivergenceError
from fracfield.grid import Domain1D

from oracles import (
    eigen_sweep_to_csv,
    operator_limit_to_csv,
    stationary_sweep_to_csv,
    stationary_to_csv,
)
from test_acceptance import _DETERMINISM_CONFIGS

REPO = Path(__file__).resolve().parent.parent


MINIMAL_CH = """
# minimal Cahn-Hilliard run
a = 0
b = 1
M = 24
s = 0.5
sigma = 0.5
p = 4
tau = 1e-3
T = 0.005
"""


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_CH)
    assert cfg.experiment == "evolve-ch"
    assert cfg.newton_tol == 1e-10
    assert cfg.eig_tol == 1e-10
    assert cfg.stat_tol == 1e-9
    assert cfg.initial == "bump"
    assert cfg.lam == 1.0


def test_parse_rejects_out_of_range_sigma():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_CH + "sigma = 1.5\n")
    assert "sigma" in str(err.value)


def test_parse_requires_sequence_for_limits():
    text = MINIMAL_CH + "experiment = limit-sigma\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "sequence" in str(err.value)


def test_parse_rejects_keys_the_experiment_ignores():
    pm = MINIMAL_CH.replace("sigma = 0.5\n", "") + "experiment = evolve-pm\n"
    ac = MINIMAL_CH.replace("s = 0.5\n", "") + "experiment = evolve-ac\n"
    parse_config(pm)
    parse_config(pm + "lam = 1.0\n")  # an explicit default reads as no key
    parse_config(ac)
    for text, key in ((pm + "sigma = 0.5\n", "sigma"), (pm + "lam = 0.25\n", "lam"),
                      (ac + "s = 0.5\n", "s")):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.key == key
        assert str(err.value).startswith(f"{key}: ")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_config("a = 0\nbogus line\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        parse_config("M = not-a-number\n")
    with pytest.raises(ParseError):
        parse_config("unknown_key = 3\n")


def test_parse_sequence_and_comments():
    limit_s = MINIMAL_CH.replace("s = 0.5\n", "")  # limit-s sweeps s itself
    cfg = parse_config(limit_s + "experiment = limit-s\nsequence = 0.4, 0.2, 0.1 # tail\n")
    assert cfg.sequence == [0.4, 0.2, 0.1]


def test_run_evolve_ch_writes_artifacts(tmp_path):
    cfg = parse_config(MINIMAL_CH)
    cli.run(cfg, output_dir=str(tmp_path), config_text=MINIMAL_CH)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"trajectory.csv", "energy.csv", "manifest.txt"}
    energy_lines = (tmp_path / "energy.csv").read_text().strip().splitlines()
    e_col = [float(line.split(",")[1]) for line in energy_lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(e_col, e_col[1:]))
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "version=" in manifest and "input_sha256=" in manifest


def test_rerun_is_bit_identical(tmp_path):
    cfg = parse_config(MINIMAL_CH)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    cli.run(cfg, output_dir=str(d1), config_text=MINIMAL_CH)
    cli.run(cfg, output_dir=str(d2), config_text=MINIMAL_CH)
    for name in ("trajectory.csv", "energy.csv", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_eigen_sweep(tmp_path):
    text = "a = 0\nb = 1\nM = 32\nexperiment = eigen-sweep\nsequence = 0.5, 0.25\n"
    cfg = parse_config(text)
    cli.run(cfg, output_dir=str(tmp_path), config_text=text)
    lines = (tmp_path / "eigen.csv").read_text().strip().splitlines()
    assert lines[0] == "r,M,lambda1,lower,upper,residual"
    assert len(lines) == 3
    for line in lines[1:]:
        r, M, lam, lower, upper, res = line.split(",")
        assert float(lower) - 1e-9 <= float(lam)


def test_run_stationary_checks_identity(tmp_path):
    text = "a = 0\nb = 10\nM = 63\nsigma = 0.5\np = 4\nexperiment = stationary\n"
    cfg = parse_config(text)
    cli.run(cfg, output_dir=str(tmp_path), config_text=text)
    lines = (tmp_path / "stationary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sigma,lambda1,norm_u")
    assert "nontrivial" in lines[1]


def test_stationary_virial_gate_follows_stat_tol(tmp_path, monkeypatch, capsys):
    # the gate is (1/2) residual ||u||_2 plus rounding: a loose stat_tol
    # loosens it, and at the default tolerance it resolves a 1e-7 energy error
    text = "a = 0\nb = 10\nM = 63\nsigma = 0.5\np = 4\nexperiment = stationary\n"
    loose = tmp_path / "loose.cfg"
    loose.write_text(text + "stat_tol = 1e-4\n")
    assert cli.main([str(loose), "--output", str(tmp_path / "loose")]) == 0
    assert capsys.readouterr().err == ""
    minimize = stationary.minimize_energy

    def off_by(*args, **kwargs):
        result = minimize(*args, **kwargs)
        return replace(result, energy=result.energy + 1e-7)

    monkeypatch.setattr(cli.stationary, "minimize_energy", off_by)
    _assert_fails_cleanly(tmp_path, capsys, text, 3, "stationary energy identity off by")


def test_run_operator_limit(tmp_path):
    text = "a = 0\nb = 1\nM = 64\nexperiment = operator-limit\nsequence = 0.2, 0.1\n"
    cfg = parse_config(text)
    cli.run(cfg, output_dir=str(tmp_path), config_text=text)
    lines = (tmp_path / "operator_limit.csv").read_text().strip().splitlines()
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    assert gaps[1] < gaps[0]


def _record_returns(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records what each call returns."""
    fn, returned = getattr(module, name), []

    def recording(*args, **kwargs):
        returned.append(fn(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, recording)
    return returned


def test_tables_equal_the_f_string_oracles_bitwise(tmp_path, monkeypatch):
    sweep = _record_returns(monkeypatch, spectral, "lambda1_sweep")
    text = ("a = 0\nb = 1\nM = 32\nexperiment = eigen-sweep\nsequence = 0.5, 0.25\n"
            "refinements = 16, 32\n")
    arts = cli.run(parse_config(text), output_dir=str(tmp_path / "eigen"))
    assert arts["eigen.csv"] == eigen_sweep_to_csv(sweep[0])

    # on (0, 2.5) lambda1(0.9) > lam = 1, so the first sweep row has no bound
    minimized = _record_returns(monkeypatch, stationary, "minimize_energy")
    swept = _record_returns(monkeypatch, stationary, "stationary_sigma_sweep")
    text = ("a = 0\nb = 2.5\nM = 31\nsigma = 0.5\np = 4\nexperiment = stationary\n"
            "sequence = 0.9, 0.5, 0.05\n")
    cfg = parse_config(text)
    arts = cli.run(cfg, output_dir=str(tmp_path / "stationary"))
    result, rows = minimized[0], swept[0]
    u = result.u_star.values
    norm_u = np.sqrt(result.u_star.domain.h * np.sum(u**2))
    assert result.classification == "nontrivial-positive"
    assert arts["stationary.csv"] == stationary_to_csv(cfg, result, norm_u)
    assert np.isnan(rows[0]["bound"]) and np.isfinite(rows[1]["bound"])
    assert arts["sweep.csv"] == stationary_sweep_to_csv(rows)

    gaps = _record_returns(monkeypatch, limits, "operator_identity_limit")
    text = ("a = 0\nb = 1\nM = 64\nexperiment = operator-limit\n"
            "sequence = 0.4, 0.2, 0.1, 0.05\ninitial = sine\n")
    arts = cli.run(parse_config(text), output_dir=str(tmp_path / "operator"))
    assert arts["operator_limit.csv"] == operator_limit_to_csv(gaps[0])


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    # missing config file
    assert cli.main([str(tmp_path / "missing.cfg")]) == 1
    # invalid config
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL_CH + "sigma = 1.5\n")
    assert cli.main([str(bad)]) == 1
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL_CH)
    # solver failure surfaces as exit 2
    def boom(*args, **kwargs):
        raise NewtonDivergenceError("stalled", 1.0)
    monkeypatch.setattr(cli.dynamics, "evolve", boom)
    assert cli.main([str(good), "--output", str(tmp_path / "o2")]) == 2
    # inequality violation surfaces as exit 3
    def fake_run(cfg, output_dir=".", config_text=""):
        raise cli.CheckViolationError("energy rose")
    monkeypatch.setattr(cli, "run", fake_run)
    assert cli.main([str(good)]) == 3
    capsys.readouterr()


_SOLVER_FAILURES = {  # each failure type by a name the library exports it under
    "fracfield.fracop.NotSPDError": fracop.NotSPDError,
    "fracfield.fracop.AssemblyError": fracop.AssemblyError,
    "fracfield.dynamics.NewtonDivergenceError": NewtonDivergenceError,
    "fracfield.spectral.NoConvergenceError": spectral.NoConvergenceError,
    "fracfield.stationary.NoConvergenceError": stationary.NoConvergenceError,
    "fracfield.stationary.NotOneSignedError": stationary.NotOneSignedError,
}


@pytest.mark.parametrize("error", list(_SOLVER_FAILURES.values()), ids=list(_SOLVER_FAILURES))
def test_every_solver_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    def failing_run(cfg, output_dir=".", config_text=""):
        raise error("stalled", 1.0) if error is NewtonDivergenceError else error("stalled")
    monkeypatch.setattr(cli, "run", failing_run)
    _assert_fails_cleanly(tmp_path, capsys, MINIMAL_CH, 2, "solver failure: stalled")


def test_main_happy_path(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL_CH)
    out = tmp_path / "out"
    assert cli.main([str(cfg_path), "--output", str(out)]) == 0
    assert (out / "energy.csv").exists()


def test_trace_monotone_check_flags_increase():
    class FakeTrace:
        E_sigma = np.array([1.0, 0.5, 0.8])
        step_slack = np.array([0.0, 0.0, 0.0])

    with pytest.raises(cli.CheckViolationError):
        cli._check_trace_monotone(FakeTrace(), "E_sigma", 1e-9)


def test_trace_slack_check_flags_violation():
    class FakeTrace:
        E_sigma = np.array([1.0, 0.5, 0.1])
        step_slack = np.array([0.0, -1.0, 0.0])

    with pytest.raises(cli.CheckViolationError):
        cli._check_trace_monotone(FakeTrace(), "E_sigma", 1e-9)


def test_seed_env_controls_random_initial(tmp_path, monkeypatch):
    text = MINIMAL_CH + "initial = random\n"
    cfg = parse_config(text)
    monkeypatch.setenv("FRACFIELD_SEED", "1")
    cli.run(cfg, output_dir=str(tmp_path / "s1"), config_text=text)
    monkeypatch.setenv("FRACFIELD_SEED", "2")
    cli.run(cfg, output_dir=str(tmp_path / "s2"), config_text=text)
    monkeypatch.setenv("FRACFIELD_SEED", "1")
    cli.run(cfg, output_dir=str(tmp_path / "s1b"), config_text=text)
    t1 = (tmp_path / "s1" / "trajectory.csv").read_bytes()
    t2 = (tmp_path / "s2" / "trajectory.csv").read_bytes()
    t1b = (tmp_path / "s1b" / "trajectory.csv").read_bytes()
    assert t1 != t2 and t1 == t1b


@pytest.mark.parametrize("seed", ["abc", "1e3", "-1"])
def test_malformed_seed_exits_1_naming_it(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setenv("FRACFIELD_SEED", seed)
    _assert_fails_cleanly(tmp_path, capsys, MINIMAL_CH, 1, "error: FRACFIELD_SEED ")


def test_shipped_configs_parse():
    paths = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("benchmark/configs/*.cfg"))
    assert paths
    for path in paths:
        parse_config(path.read_text())


# a changed value for each RunConfig field that passes its range check; the
# tolerances change the output only once they cross a Newton iterate's
# residual, so they move by decades
_PERTURB = {
    "a": lambda v: v - 1.0,
    "b": lambda v: v + 1.0,
    "M": lambda v: v + 8,
    "s": lambda v: 0.3 if v is None else 0.6 * v,
    "sigma": lambda v: 0.3 if v is None else 0.6 * v,
    "p": lambda v: 3.0 if v is None else (v + 1.0 if v > 2 else 1.8),
    "lam": lambda v: 0.25,
    "delta": lambda v: 0.5,
    "tau": lambda v: 1e-3 if v is None else v / 2,
    "T": lambda v: 0.01 if v is None else 2 * v,
    "newton_tol": lambda v: 1e-3,
    "eig_tol": lambda v: 1e-3,
    "stat_tol": lambda v: 1e-3,
    "experiment": lambda v: "eigen-sweep" if v == "operator-limit" else "operator-limit",
    "sequence": lambda v: [0.5, 0.3] if v is None else [0.9 * x for x in v],
    "refinements": lambda v: [16] if v is None else [m + 8 for m in v],
    "initial": lambda v: "sine",
    "amplitude": lambda v: 0.5,
}


def _value_text(value) -> str:
    return ", ".join(map(repr, value)) if isinstance(value, list) else str(value)


def test_every_config_key_reaches_the_run_or_is_rejected(tmp_path):
    # a key the manifest records but the run ignores would make two different
    # manifests describe the same computation
    configs = dict(_DETERMINISM_CONFIGS)
    configs["limit-sigma-fd"] = ("a = 0\nb = 1\nM = 24\ns = 0.5\np = 1.5\ntau = 1e-3\n"
                                 "T = 0.005\nexperiment = limit-sigma\nsequence = 0.4, 0.2\n")
    silent = []
    for name, text in configs.items():
        base_cfg = parse_config(text)
        base = cli.run(base_cfg, output_dir=str(tmp_path / name), config_text=text)
        base.pop("manifest.txt")
        for f in fields(RunConfig):
            value = _PERTURB[f.name](getattr(base_cfg, f.name))
            if f.name == "refinements":  # the meshes must include the recorded M
                value = [base_cfg.M] + value
            changed = text + f"{f.name} = {_value_text(value)}\n"
            try:
                cfg = parse_config(changed)
            except ValidationError as exc:
                if f.name != "experiment":
                    assert exc.key == f.name, (name, f.name, str(exc))
                continue
            assert getattr(cfg, f.name) == value
            out = cli.run(cfg, output_dir=str(tmp_path / f"{name}-{f.name}"), config_text=changed)
            out.pop("manifest.txt")
            if out == base:
                silent.append(f"{name}: {f.name}")
    assert not silent, f"keys recorded but not used: {silent}"


def test_no_experiment_leaves_a_cholesky_factor_of_a(tmp_path, monkeypatch):
    # solves with A use its Levinson generator; _chol stays [None] until the
    # traced benchmark child stops reading it
    ops = []

    def recording(domain, r):
        ops.append(fracop.assemble(domain, r))
        return ops[-1]

    for module in (cli, limits, spectral):
        monkeypatch.setattr(module, "assemble", recording)
    for name, text in _DETERMINISM_CONFIGS.items():
        count = len(ops)
        cli.run(parse_config(text), output_dir=str(tmp_path / name), config_text=text)
        assert len(ops) > count, name
        assert all(op._chol == [None] for op in ops), name


def _assert_fails_cleanly(tmp_path, capsys, text: str, code: int, message: str) -> None:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main([str(path), "--output", str(out)]) == code, text
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert message in err, err
    assert not out.exists()


def test_main_rejects_configs_the_solvers_cannot_run(tmp_path, capsys):
    for text, key in (
        # p = 1.5 is below 2N/(N+2s) = 5/3 at s = 0.1
        ("a = 0\nb = 1\nM = 24\ns = 0.1\np = 1.5\ntau = 1e-3\nT = 0.005\n"
         "experiment = limit-sigma\nsequence = 0.4, 0.2\n", "p"),
        ("a = 0\nb = 10\nM = 31\nsigma = 0.5\np = 1.5\nexperiment = stationary\n", "p"),
        (MINIMAL_CH.replace("p = 4", "p = 1.5") + "delta = 0\n", "delta"),
        (MINIMAL_CH + "lam = -1\n", "lam"),
        # a zero field has no relative gap, and no profile gives one
        ("a = 0\nb = 1\nM = 24\nexperiment = operator-limit\nsequence = 0.2, 0.1\n"
         "initial = zero\n", "initial"),
        ("a = 0\nb = 1\nM = 24\nexperiment = eigen-sweep\nsequence = 0.5\n"
         "refinements = 1\n", "refinements"),
    ):
        _assert_fails_cleanly(tmp_path, capsys, text, 1, f"error: {key}: ")


def test_output_dir_and_stationary_delta_exit_1_naming_them(tmp_path, capsys):
    # --output is the one way to place artifacts, and the stationary Newton
    # uses the exact potential, so neither key could reach the computation
    stationary_text = "a = 0\nb = 10\nM = 31\nsigma = 0.5\np = 4\nexperiment = stationary\n"
    _assert_fails_cleanly(tmp_path, capsys, stationary_text + "delta = 0.1\n", 1,
                          "error: delta: not used by experiment 'stationary'")
    for text in (MINIMAL_CH, stationary_text):
        _assert_fails_cleanly(tmp_path, capsys, text + "output_dir = elsewhere\n", 1,
                              "unknown key 'output_dir'")


def test_output_defaults_to_the_working_directory(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CH)
    monkeypatch.chdir(tmp_path)
    assert cli.main([str(cfg)]) == 0
    assert (tmp_path / "energy.csv").exists() and (tmp_path / "manifest.txt").exists()


def test_main_rejects_empty_lists(tmp_path, capsys):
    limit_s = MINIMAL_CH.replace("s = 0.5\n", "") + "experiment = limit-s\n"
    eigen = "a = 0\nb = 1\nM = 24\nexperiment = eigen-sweep\n"
    for text, key in (
        (limit_s + "sequence = ,\n", "sequence"),
        (eigen + "sequence = , ,\n", "sequence"),
        (eigen + "sequence = 0.5\nrefinements = ,\n", "refinements"),
    ):
        _assert_fails_cleanly(tmp_path, capsys, text, 1, f"empty list for {key!r}")


def test_usage_errors_exit_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CH)
    out = tmp_path / "out"
    assert cli.main([str(cfg), "--threads", "2", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --threads 2\n"
    assert not out.exists()
    for argv in ([], [str(cfg), "--output"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CH)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([str(cfg), "--output", str(blocker / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write artifacts: ") and err.count("\n") == 1, err


def test_main_maps_operator_and_stationary_failures_to_exit_2(tmp_path, capsys, monkeypatch):
    column = fracop._stiffness_column

    def set_offdiagonal(value):
        def patched(M, h, r):
            c = column(M, h, r)
            c[1] = value
            return c
        monkeypatch.setattr(fracop, "_stiffness_column", patched)

    set_offdiagonal(1e-6)  # AssemblyError: positive off-diagonal at r = 1/2
    _assert_fails_cleanly(tmp_path, capsys, MINIMAL_CH, 2, "off-diagonal max")
    set_offdiagonal(10.0)  # NotSPDError: no sign gate below r = 1/4
    low_order = MINIMAL_CH.replace("s = 0.5\nsigma = 0.5", "s = 0.1\nsigma = 0.1")
    _assert_fails_cleanly(tmp_path, capsys, low_order, 2, "not SPD")
    monkeypatch.setattr(fracop, "_stiffness_column", column)

    monkeypatch.setattr(stationary, "_classify", lambda u, h: "nontrivial-mixed")
    text = "a = 0\nb = 10\nM = 31\nsigma = 0.5\np = 4\nexperiment = stationary\n"
    _assert_fails_cleanly(tmp_path, capsys, text, 2, "not one-signed")


def test_generator_failure_at_the_first_solve_exits_2(tmp_path, capsys, monkeypatch):
    # the certificate passes at assembly, so Durbin's recursion first runs at
    # the first solve; a reflection coefficient it rejects there, which
    # rounding can cause, is a NotSPDError naming r and M
    op = fracop.assemble(Domain1D(0, 1, 24), 0.5)
    monkeypatch.setattr(fracop, "_levinson_generator", lambda c: None)
    with pytest.raises(fracop.NotSPDError, match="r=0.5, M=24"):
        op.solve_vector(np.ones(24))
    assert "_generator" not in vars(op)
    _assert_fails_cleanly(tmp_path, capsys, MINIMAL_CH, 2, "not SPD for r=0.5, M=24")


def test_only_metric_operators_run_durbin(tmp_path, monkeypatch):
    # eigen and stationary runs never solve with A, so they never build the
    # generator; a flow builds it once per distinct metric operator
    durbin = fracop._levinson_generator
    calls = []

    def counted(c):
        calls.append(c.size)
        return durbin(c)

    def refused(c):
        raise AssertionError("Durbin's recursion ran")

    for name, expected in (("eigen-sweep", 0), ("stationary", 0), ("evolve-ch", 1),
                           ("evolve-ch-modified", 1), ("limit-s", 2)):
        calls.clear()
        monkeypatch.setattr(fracop, "_levinson_generator", counted if expected else refused)
        path = tmp_path / f"{name}.cfg"
        path.write_text(_DETERMINISM_CONFIGS[name])
        assert cli.main([str(path), "--output", str(tmp_path / name)]) == 0, name
        assert len(calls) == expected, name


def test_flows_assemble_exactly_the_configured_orders(tmp_path, monkeypatch):
    # one operator per distinct order the config sets: Allen-Cahn has no s,
    # porous medium no sigma, and s = sigma shares one operator
    assemble = fracop.assemble
    calls = []

    def counted(domain, r):
        calls.append(r)
        return assemble(domain, r)

    monkeypatch.setattr(cli, "assemble", counted)
    split = _DETERMINISM_CONFIGS["evolve-ch"].replace("sigma = 0.5", "sigma = 0.75")
    for name, text, expected in (
        ("evolve-ch", _DETERMINISM_CONFIGS["evolve-ch"], 1),
        ("evolve-ch-split", split, 2),
        ("evolve-ac", _DETERMINISM_CONFIGS["evolve-ac"], 1),
        ("evolve-pm", _DETERMINISM_CONFIGS["evolve-pm"], 1),
        ("evolve-ch-modified", _DETERMINISM_CONFIGS["evolve-ch-modified"], 2),
    ):
        calls.clear()
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert cli.main([str(path), "--output", str(tmp_path / name)]) == 0, name
        assert len(calls) == expected, (name, calls)


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # NumPy is the only runtime dependency: with SciPy blocked before the
    # import, one small config of every experiment, and of both limit-sigma
    # regimes, exits 0 (only kernel_constant imports quad, on first call)
    configs = dict(_DETERMINISM_CONFIGS, **{
        "limit-sigma-fast-diffusion": "a = 0\nb = 1\nM = 24\ns = 0.5\np = 1.5\n"
                                      "tau = 1e-3\nT = 0.005\nexperiment = limit-sigma\n"
                                      "sequence = 0.4, 0.2\n"})
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = ("import sys\nsys.modules['scipy'] = None\nimport fracfield.cli as cli\n"
            "for name in sys.argv[1:]:\n"
            "    print(name, cli.main([f'{name}.cfg', '--output', f'out/{name}']))\n")
    env = dict(os.environ)
    src = str(Path(fracop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *configs], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{name} 0" for name in configs], out.stderr


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the matrix-free stepper above MATRIX_FREE_M and the stationary polish
    # at every M run on FFTs, O(M) stencils and vector dots, which are
    # thread-invariant; below MATRIX_FREE_M the dense stepper is not (README)
    configs = {
        "evolve": (f"a = 0\nb = 1\nM = {dynamics.MATRIX_FREE_M + 1}\ns = 0.5\nsigma = 0.75\n"
                   "p = 4\ntau = 1e-3\nT = 3e-3\nexperiment = evolve-ch\n"),
        "stationary": "a = 0\nb = 10\nM = 63\nsigma = 0.5\np = 4\nexperiment = stationary\n"
                      "sequence = 0.5, 0.3\n",
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = ("import sys; from fracfield.cli import main\n"
            "for name in ('evolve', 'stationary'):\n"
            "    assert main([f'{name}.cfg', '--output', f'{sys.argv[1]}/{name}']) == 0\n")
    src = str(Path(fracop.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):  # both at once, each on its own BLAS threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, FRACFIELD_SEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen([sys.executable, "-c", code, f"threads-{threads}"],
                                     cwd=tmp_path, env=env))
    assert [run.wait(timeout=300) for run in runs] == [0, 0]
    one, two = tmp_path / "threads-1", tmp_path / "threads-2"
    artifacts = sorted(path.relative_to(one) for path in one.rglob("*") if path.is_file())
    assert len(artifacts) == 6
    assert artifacts == sorted(path.relative_to(two) for path in two.rglob("*") if path.is_file())
    for artifact in artifacts:
        assert (one / artifact).read_bytes() == (two / artifact).read_bytes(), artifact


def test_horizon_not_a_whole_number_of_steps_exits_1_naming_T(tmp_path, capsys):
    text = MINIMAL_CH.replace("tau = 1e-3\nT = 0.005\n", "tau = 0.3\nT = 0.5\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "T"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: T: ") and err.count("\n") == 1, err
    assert not out.exists()
    for tau, T in (("1e-3", "0.5"), ("1e-3", "0.03"), ("0.1", "0.3")):
        parse_config(MINIMAL_CH.replace("tau = 1e-3\nT = 0.005\n", f"tau = {tau}\nT = {T}\n"))


@pytest.mark.parametrize("grid", ["T = 1e300", "T = 1e6\nM = 4096"])
def test_oversized_time_grid_exits_1_naming_T(tmp_path, capsys, grid):
    text = MINIMAL_CH.replace("M = 24\n", "").replace("T = 0.005\n", grid + "\n")
    _assert_fails_cleanly(tmp_path, capsys, text, 1, "error: T: ")


def test_time_grid_cap_is_MAX_GRID_VALUES():
    # 65536 levels of 1024 values are exactly 2**26; one step more is too many
    assert MAX_GRID_VALUES == 2**26
    at_cap = MINIMAL_CH.replace("M = 24", "M = 1024").replace("T = 0.005", "T = 65.535")
    assert parse_config(at_cap).T == 65.535
    with pytest.raises(ValidationError) as err:
        parse_config(at_cap.replace("T = 65.535", "T = 65.536"))
    assert err.value.key == "T"


def test_refinements_without_M_exit_1_naming_them(tmp_path, capsys):
    # M = 24 and M = 999 with refinements = 16 would run the same sweep under
    # two different manifests
    eigen = "a = 0\nb = 1\nexperiment = eigen-sweep\nsequence = 0.5\n"
    for M in (24, 999):
        text = eigen + f"M = {M}\nrefinements = 16\n"
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.key == "refinements"
        _assert_fails_cleanly(tmp_path, capsys, text, 1, "error: refinements: ")
    assert parse_config(eigen + "M = 16\nrefinements = 8, 16\n").refinements == [8, 16]
    cfg = parse_config((REPO / "benchmark/configs/eigen_refine.cfg").read_text())
    assert cfg.M == 511 and cfg.refinements == [511, 2047]


def test_dense_experiment_M_cap_is_MAX_GRID_VALUES(tmp_path, capsys):
    # an M x M float64 matrix of more than MAX_GRID_VALUES values is refused
    # before any assembly; the column-only experiments have no such matrix
    stationary = "a = 0\nb = 10\nsigma = 0.5\np = 4\nexperiment = stationary\n"
    assert parse_config(stationary + "M = 8193\n").M == 8193
    for exp in ("eigen-sweep", "operator-limit"):
        assert parse_config(f"M = 8193\nexperiment = {exp}\nsequence = 0.2, 0.1\n").M == 8193
    _assert_fails_cleanly(tmp_path, capsys, MINIMAL_CH.replace("M = 24", "M = 8193"), 1,
                          "error: M: ")
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_CH.replace("M = 24", "M = 8193"))
    assert err.value.key == "M"


@pytest.mark.parametrize("line, key", [
    ("T = inf", "T"),
    ("tau = 1e-320", "tau"),  # finite, but T / tau overflows
    ("amplitude = nan", "amplitude"),
    ("p = nan", "p"),
    ("a = -inf", "a"),
    ("lam = nan", "lam"),
    ("newton_tol = inf", "newton_tol"),
])
def test_non_finite_values_exit_1_naming_the_key(tmp_path, capsys, line, key):
    text = MINIMAL_CH.replace("M = 24", "M = 16") + line + "\n"
    _assert_fails_cleanly(tmp_path, capsys, text, 1, f"error: {key}: ")


def test_column_only_M_cap_is_MAX_GRID_VALUES(tmp_path, capsys):
    # the column-only experiments transform an embedding of the power of two
    # >= 2M - 1 values; M = 2**25 reaches MAX_GRID_VALUES, one node more is
    # refused before any assembly, naming M or refinements
    for exp in ("eigen-sweep", "operator-limit", "stationary"):
        head = f"a = 0\nb = 1\nexperiment = {exp}\nsequence = 0.2, 0.1\n"
        if exp == "stationary":
            head += "sigma = 0.5\np = 4\n"
        assert parse_config(head + f"M = {2**25}\n").M == 2**25
        for M in (2**25 + 1, 300000000):
            _assert_fails_cleanly(tmp_path, capsys, head + f"M = {M}\n", 1, "error: M: ")
    eigen = "a = 0\nb = 1\nM = 16\nexperiment = eigen-sweep\nsequence = 0.5\n"
    assert parse_config(eigen + f"refinements = 16, {2**25}\n").refinements == [16, 2**25]
    _assert_fails_cleanly(tmp_path, capsys, eigen + "refinements = 16, 300000000\n", 1,
                          "error: refinements: ")


_FUZZ_VALUE = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999",
                     "1e308", "1.7976931348623157e308", "1e-320", "5e-324", "-5e-324"]),
    st.floats().map(repr),  # finite, nan, +-inf, huge and subnormal
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.text(max_size=12),  # junk
)
_FUZZ_KEYS = sorted(f.name for f in fields(RunConfig)) + ["bogus", ""]


@st.composite
def _fuzzed_config_text(draw):
    """A valid config of one experiment (or none) with one of its values
    replaced, then up to two lines of a known key and a fuzzed value
    (lists included) or of random text."""
    base = draw(st.sampled_from([""] + sorted(_DETERMINISM_CONFIGS.values())))
    own = [line.partition("=")[0].strip() for line in base.splitlines()]
    key = draw(st.sampled_from(own or _FUZZ_KEYS))
    line = st.one_of(
        st.builds("{} = {}".format, st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUE),
        st.builds("{} = {}".format, st.sampled_from(["sequence", "refinements"]),
                  st.lists(_FUZZ_VALUE, min_size=1, max_size=4).map(", ".join)),
        st.text(max_size=30),
    )
    lines = [f"{key} = {draw(_FUZZ_VALUE)}"] + draw(st.lists(line, max_size=2))
    return base + "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_fuzzed_config_text())
def test_parser_fuzz_gives_a_config_or_a_config_error(text):
    try:
        cfg = parse_config(text)  # runs validate
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_failed_write_leaves_no_temporary_or_truncated_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_CH)
    out = tmp_path / "out"
    assert cli.main([str(cfg), "--output", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["energy.csv", "manifest.txt", "trajectory.csv"]

    # a rerun at another horizon whose third write stops halfway, as on a
    # full disk
    cfg.write_text(MINIMAL_CH.replace("T = 0.005", "T = 0.006"))
    write_text = Path.write_text
    calls = []

    def failing_third_write(self, data, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 3:
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_third_write)
    assert cli.main([str(cfg), "--output", str(out)]) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write artifacts: ") and err.count("\n") == 1, err
    assert len(calls) == 3 and all(name.endswith(".tmp") for name in calls)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
