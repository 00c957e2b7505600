import numpy as np
import pytest

import fracfield.cli as cli
from fracfield.config import ParseError, ValidationError, parse_config
from fracfield.dynamics import NewtonDivergenceError


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
    assert cfg.lin_tol == 1e-10
    assert cfg.eig_tol == 1e-10
    assert cfg.stat_tol == 1e-9
    assert cfg.quad_tol == 1e-8
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


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_config("a = 0\nbogus line\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        parse_config("M = not-a-number\n")
    with pytest.raises(ParseError):
        parse_config("unknown_key = 3\n")


def test_parse_sequence_and_comments():
    cfg = parse_config(MINIMAL_CH + "experiment = limit-s\nsequence = 0.4, 0.2, 0.1 # tail\n")
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


def test_run_operator_limit(tmp_path):
    text = "a = 0\nb = 1\nM = 64\nexperiment = operator-limit\nsequence = 0.2, 0.1\n"
    cfg = parse_config(text)
    cli.run(cfg, output_dir=str(tmp_path), config_text=text)
    lines = (tmp_path / "operator_limit.csv").read_text().strip().splitlines()
    gaps = [float(line.split(",")[1]) for line in lines[1:]]
    assert gaps[1] < gaps[0]


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
    def fake_run(cfg, output_dir=None, threads=1, config_text=""):
        raise cli.CheckViolationError("energy rose")
    monkeypatch.setattr(cli, "run", fake_run)
    assert cli.main([str(good)]) == 3
    capsys.readouterr()


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
