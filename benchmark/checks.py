"""Correctness checks on `fracfield` artifacts, computed apart from fracfield.

Nothing here imports the package.  The reference stiffness is the closed form
of the full-space fractional form on uniform P1 hats,

    A_ij = h^(1-2r) c(|i-j|),
    c(k) = 2 / (cos(pi r) Gamma(4-2r)) * D4[|m|^(3-2r)](k),
    D4[f](k) = 3/2 f(k) - f(k+1) - f(k-1) + f(k+2)/4 + f(k-2)/4,

with the r = 1/2 limit c(k) = (2/pi) D4[m^2 log|m|](k).  It follows from
(1/2pi) int |xi|^(2r) |hat phi(xi)|^2 cos(k xi) dxi for the unit hat phi.  The
fourth difference cancels like eps*k^4 in float64, so it is evaluated in
mpmath.  The other references are the P1 mass h/6 tridiag(1, 4, 1), a dense
generalized eigensolve (scipy.linalg.eigh), the analytic eigenvalue sandwich
and the smallness bound of the stationary states.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
from scipy.linalg import eigh, toeplitz

# CLI defaults for keys a benchmark config leaves out
DEFAULTS = {"a": 0.0, "b": 1.0, "lam": 1.0, "amplitude": 1.0, "initial": "bump",
            "newton_tol": 1e-10, "eig_tol": 1e-10, "stat_tol": 1e-9}
EIGEN_RTOL = 1e-8   # library quadrature and kernel constant agree to ~1e-11
ENERGY_RTOL = 1e-8
BOUNDS_RTOL = 1e-12


class CheckFailed(Exception):
    """An artifact contradicts an independent reference or a method property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_config(path: Path) -> dict:
    cfg = dict(DEFAULTS)
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("sequence", "refinements"):
            cast = int if key == "refinements" else float
            cfg[key] = [cast(x) for x in value.split(",") if x.strip()]
        elif key == "M":
            cfg[key] = int(value)
        elif key in ("experiment", "initial"):
            cfg[key] = value
        else:
            cfg[key] = float(value)
    return cfg


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def float_columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------- references
@lru_cache(maxsize=None)
def stiffness_column(r: float, M: int, a: float, b: float) -> np.ndarray:
    h = (b - a) / (M + 1)
    with mpmath.workdps(50):
        rr = mpmath.mpf(r)
        if abs(r - 0.5) < 1e-12:
            f = [mpmath.mpf(0)] + [mpmath.mpf(m) ** 2 * mpmath.log(m) for m in range(1, M + 3)]
            pref = 2 / mpmath.pi
        else:
            q = 3 - 2 * rr
            f = [mpmath.mpf(0)] + [mpmath.mpf(m) ** q for m in range(1, M + 3)]
            pref = 2 / (mpmath.cos(mpmath.pi * rr) * mpmath.gamma(4 - 2 * rr))
        scale = pref * mpmath.mpf(h) ** (1 - 2 * rr)
        col = [scale * (1.5 * f[k] - f[k + 1] - f[abs(k - 1)]
                        + 0.25 * f[k + 2] + 0.25 * f[abs(k - 2)]) for k in range(M)]
        return np.array([float(c) for c in col])


def mass_matrix(M: int, h: float) -> np.ndarray:
    col = np.zeros(M)
    col[0], col[1] = 4.0, 1.0
    return toeplitz(col) * (h / 6.0)


@lru_cache(maxsize=None)
def lambda1(r: float, M: int, a: float, b: float) -> float:
    A = toeplitz(stiffness_column(r, M, a, b))
    Mc = mass_matrix(M, (b - a) / (M + 1))
    return float(eigh(A, Mc, subset_by_index=[0, 0], eigvals_only=True)[0])


def eigen_sandwich(r: float, L: float) -> tuple[float, float]:
    """kappa(1, 2r)^(-(1+2r)) (2 pi / L)^(2r) <= lambda1(r) <= (pi / L)^(2r)."""
    alpha = 2.0 * r
    kappa = (2.0 / alpha) ** (alpha / (alpha + 1.0)) * (alpha + 1.0)
    return kappa ** (-(1.0 + alpha)) * (2.0 * math.pi / L) ** alpha, (math.pi / L) ** alpha


def smallness_bound(p: float, lam1: float, L: float) -> float:
    return ((p / 2.0) * L ** ((p - 2.0) / 2.0) * (1.0 - lam1)) ** (1.0 / (p - 2.0))


def close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------- checks
def check_flow(cfg: dict, out: Path) -> None:
    """Energy inequality, Lyapunov decrease, initial datum, final-state energy."""
    exp, M, a, b, p = cfg["experiment"], cfg["M"], cfg["a"], cfg["b"], cfg["p"]
    h = (b - a) / (M + 1)
    tol = 10.0 * cfg["newton_tol"]
    n = int(round(cfg["T"] / cfg["tau"]))
    en = float_columns(out / "energy.csv")
    traj = float_columns(out / "trajectory.csv")
    require(len(en["t"]) == n + 1 and len(traj["t"]) == n + 1,
            f"{exp}: expected {n + 1} time levels")
    require(np.allclose(en["t"], cfg["tau"] * np.arange(n + 1), rtol=0, atol=1e-12),
            f"{exp}: time grid differs from k*tau")
    slack = en["step_slack"]
    require(slack.min() >= -tol, f"{exp}: step slack {slack.min():.3e} below -{tol:.1e}")
    lyap = "E_tilde" if exp == "evolve-ch-modified" else "E_sigma"
    rise = np.diff(en[lyap]).max()
    require(rise <= tol, f"{exp}: {lyap} rises by {rise:.3e}")

    U = np.column_stack([traj[f"u_{i}"] for i in range(1, M + 1)])
    if cfg["initial"] == "bump":
        y = 2.0 * h * np.arange(1, M + 1) / (b - a) - 1.0
        u0 = cfg["amplitude"] * np.exp(1.0 - 1.0 / (1.0 - y**2))
        require(np.abs(U[0] - u0).max() <= 1e-14 * cfg["amplitude"],
                f"{exp}: first row is not the bump initial datum")

    u = U[-1]
    power = h * float(np.sum(np.abs(u) ** p)) / p
    quad = h * float(u @ u)
    if exp == "evolve-pm":
        targets = {"E_sigma": (power, power)}
    else:
        A = toeplitz(stiffness_column(cfg["sigma"], M, a, b))
        form = 0.5 * float(u @ (A @ u))
        lam = cfg["lam"]
        targets = {"E_sigma": (form + power - 0.5 * lam * quad, form + power + 0.5 * lam * quad)}
        if exp == "evolve-ch-modified":
            lam1 = lambda1(cfg["sigma"], M, a, b)
            targets["E_tilde"] = (form + power - 0.5 * lam1 * quad,
                                  form + power + 0.5 * lam1 * quad)
    for col, (ref, scale) in targets.items():
        got = float(en[col][-1])
        require(abs(got - ref) <= ENERGY_RTOL * scale,
                f"{exp}: final {col} {got:.17g} vs independent {ref:.17g}")


def check_limit(cfg: dict, out: Path) -> None:
    """Distances strictly decrease and shrink at least tenfold (criterion 8)."""
    rep = float_columns(out / "report.csv")
    require(np.array_equal(rep["param"], np.array(cfg["sequence"])),
            "limit: parameter column differs from the config sequence")
    d = rep["distance"]
    require(bool(np.all(np.diff(d) < 0)), f"limit: distances not strictly decreasing {d.tolist()}")
    factor = d[-1] / d[0]
    require(factor <= 0.1, f"limit: reduction factor {factor:.3g} above 0.1")
    text = dict(line.split("=", 1) for line in (out / "report.txt").read_text().split())
    require(text["monotone"] == "True" and close(float(text["reduction_factor"]), factor, 1e-12),
            "limit: report.txt disagrees with report.csv")


def check_eigen(cfg: dict, out: Path) -> None:
    """Analytic sandwich, decrease under refinement, dense eigensolve."""
    a, b = cfg["a"], cfg["b"]
    rows = float_columns(out / "eigen.csv")
    meshes = cfg.get("refinements") or [cfg["M"]]
    expected = [(r, M) for M in meshes for r in cfg["sequence"]]
    got = list(zip(rows["r"], rows["M"].astype(int)))
    require(got == expected, f"eigen: rows {got} differ from the sweep {expected}")
    by_order: dict[float, list[float]] = {}
    for k, (r, M) in enumerate(expected):
        lam, lo, up = (float(rows[c][k]) for c in ("lambda1", "lower", "upper"))
        ref_lo, ref_up = eigen_sandwich(r, b - a)
        require(close(lo, ref_lo, BOUNDS_RTOL) and close(up, ref_up, BOUNDS_RTOL),
                f"eigen: bounds at r={r} differ from the analytic ones")
        require(ref_lo <= lam <= ref_up, f"eigen: lambda1({r}, M={M}) = {lam} outside sandwich")
        require(rows["residual"][k] <= cfg["eig_tol"], f"eigen: residual above eig_tol at r={r}")
        ref = lambda1(r, M, a, b)
        require(close(lam, ref, EIGEN_RTOL), f"eigen: lambda1({r}, M={M}) = {lam!r}, eigh {ref!r}")
        by_order.setdefault(r, []).append(lam)
    for r, lams in by_order.items():
        require(bool(np.all(np.diff(lams) < 0)), f"eigen: lambda1({r}) not decreasing {lams}")


def _check_state(row: dict, cfg: dict, L: float, what: str) -> None:
    lam = float(row["lambda1"])
    ref = lambda1(float(row["sigma"]), cfg["M"], cfg["a"], cfg["b"])
    require(close(lam, ref, EIGEN_RTOL), f"{what}: lambda1 {lam!r} vs eigh {ref!r}")
    if lam < 1.0:
        require(row["classification"] in ("nontrivial-positive", "nontrivial-negative"),
                f"{what}: {row['classification']} state although lambda1 < 1")
        norm = float(row["norm_u"])
        bound = smallness_bound(cfg["p"], lam, L)
        require(0.0 < norm < bound, f"{what}: norm {norm} not below smallness bound {bound}")
        if "bound" in row:
            require(close(float(row["bound"]), bound, BOUNDS_RTOL), f"{what}: bound column off")
    else:
        require(row["classification"] == "trivial", f"{what}: nontrivial state with lambda1 >= 1")


def check_stationary(cfg: dict, out: Path) -> None:
    """One-signed minimizers below the smallness bound, norms shrink along the sweep."""
    L = cfg["b"] - cfg["a"]
    header, rows = read_csv(out / "stationary.csv")
    row = dict(zip(header, rows[0]))
    _check_state(row, cfg, L, "stationary")
    require(float(row["residual"]) <= cfg["stat_tol"], "stationary: residual above stat_tol")
    if cfg.get("sequence"):
        header, rows = read_csv(out / "sweep.csv")
        sweep = [dict(zip(header, r)) for r in rows]
        require([float(r["sigma"]) for r in sweep] == cfg["sequence"],
                "sweep: sigma column differs from the config sequence")
        for r in sweep:
            _check_state(r, cfg, L, f"sweep sigma={r['sigma']}")
        norms = [float(r["norm_u"]) for r in sweep]
        require(bool(np.all(np.diff(norms) < 0)), f"sweep: norms not decreasing {norms}")


CHECKS = {
    "evolve-ch": check_flow,
    "evolve-ch-modified": check_flow,
    "evolve-ac": check_flow,
    "evolve-pm": check_flow,
    "limit-sigma": check_limit,
    "eigen-sweep": check_eigen,
    "stationary": check_stationary,
}


def prepare(cfg: dict) -> None:
    """Compute the references a config's checks need, ahead of any timing."""
    a, b, M = cfg["a"], cfg["b"], cfg["M"]
    exp = cfg["experiment"]
    if exp == "eigen-sweep":
        for mesh in cfg.get("refinements") or [M]:
            for r in cfg["sequence"]:
                lambda1(r, mesh, a, b)
    elif exp == "stationary":
        for sigma in [cfg["sigma"]] + cfg.get("sequence", []):
            lambda1(sigma, M, a, b)
    elif exp == "evolve-ch-modified":
        lambda1(cfg["sigma"], M, a, b)
    elif exp in ("evolve-ch", "evolve-ac"):
        stiffness_column(cfg["sigma"], M, a, b)


def check(cfg: dict, out: Path) -> None:
    CHECKS[cfg["experiment"]](cfg, out)
