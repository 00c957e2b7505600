"""Implicit time integrators for the fractional Cahn-Hilliard system and its
singular-limit companions (Allen-Cahn, porous medium / fast diffusion).

All four flows are one convex-splitting scheme.  Step n minimizes

    F_n(u) = (1/(2 tau)) ||u - u_prev||_G^2 + (1/2) u^T A_sigma u
             + h sum_i beta_hat(u_i) - lam * u^T M_c u_prev,

a strictly convex functional: the convex energy part (Gagliardo form +
power-law primitive) is implicit while the concave quadratic is taken at the
previous iterate, so every step is unconditionally solvable and satisfies a
discrete energy inequality with machine-size slack.  The flows differ only in
the metric G, the interface operator and the concave weight lam (see Flow):

    flow                        G                   interface  lam
    Cahn-Hilliard               M_c A_s^(-1) M_c    A_sigma    params.lam
    modified Cahn-Hilliard      M_c A_s^(-1) M_c    A_sigma    lambda1(sigma)
    Allen-Cahn                  M_c (L2)            A_sigma    params.lam
    porous medium / fast diff.  M_c A_s^(-1) M_c    none       0

Mass treatment: consistent mass M_c for all linear pairings, lumped mass for
the nonlinearity, which is what makes the per-step inequality an exact
consequence of convexity.

The chemical potential w_n is recovered from the flow equation: by the dual
solve w_n = -A_s^(-1) M_c (u_n - u_prev)/tau in the H^(-s) metric, and as
w_n = -(u_n - u_prev)/tau in L2.  The flow equation then holds exactly, and
the residual of the potential equation
M_c w_n = A_sigma u_n + h beta(u_n) - lam M_c u_prev equals the Newton
stopping residual; it is reported per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve as lin_solve

from . import potential as pot
from .fracop import FracOperator
from .grid import Domain1D, DomainMismatchError, Field, lp_norm
from .potential import PotentialParams

NEWTON_TOL = 1e-10
NEWTON_MAX = 100


class NewtonDivergenceError(RuntimeError):
    """Line search exhausted; carries the last scaled residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverSettings:
    """Time step, horizon, and Newton/line-search tolerances."""

    tau: float
    T: float
    newton_tol: float = NEWTON_TOL
    newton_max: int = NEWTON_MAX
    ls_shrink: float = 0.5
    ls_sufficient: float = 1e-4

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.T <= 0 or self.tau > self.T:
            raise ValueError(f"need 0 < tau <= T, got tau={self.tau}, T={self.T}")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass(frozen=True)
class StepStats:
    iterations: int
    residual: float
    td2_residual: float


@dataclass(frozen=True)
class Trajectory:
    """Time series (u_n, w_n); u has n_steps+1 entries, w starts at step 1."""

    times: np.ndarray
    u: list[Field]
    w: list[Field]
    stats: list[StepStats]

    @property
    def domain(self) -> Domain1D:
        return self.u[0].domain


@dataclass(frozen=True)
class Flow:
    """One gradient flow of the convex-splitting family.

    metric is the operator A_s of the H^(-s) metric G = M_c A_s^(-1) M_c, or
    None for the L2 metric G = M_c (Allen-Cahn).  interface is A_sigma, or
    None when the energy has no Gagliardo term (porous medium).  lam weighs
    the explicit concave quadratic.
    """

    metric: FracOperator | None
    interface: FracOperator | None
    lam: float

    def __post_init__(self) -> None:
        if self.metric is None and self.interface is None:
            raise ValueError("a flow needs a metric or an interface operator")
        if (self.metric is not None and self.interface is not None
                and self.metric.domain != self.interface.domain):
            raise DomainMismatchError("operators must share one domain")

    @property
    def domain(self) -> Domain1D:
        return (self.interface or self.metric).domain

    @property
    def mass(self) -> np.ndarray:
        """Consistent mass M_c of the shared domain."""
        return (self.interface or self.metric).M_c


@dataclass(frozen=True)
class EnergyTrace:
    """Per-step energies and gradient-flow diagnostics (arrays of length
    n_steps+1; step-indexed columns carry 0 in the initial row).

    Columns per flow (H^(-s) flows: Cahn-Hilliard, modified, porous medium):

    - E_sigma: (1/2) u^T A_sigma u + h sum W(u_i) with W = beta_hat -
      (params.lam/2) v^2; for porous medium h sum beta_hat(u_i), the exact
      (unsmoothed) Lyapunov functional.
    - E_tilde: E_sigma with the concave weight of the flow, lambda1(sigma) in
      the modified scheme; a copy of E_sigma for the other flows.
    - gagliardo_s_of_w: w_n^T A_s w_n for the H^(-s) flows, the L2
      dissipation w_n^T M_c w_n for Allen-Cahn.
    - dual_norm_u: the squared X'_{s,0} norm (M_c u)^T A_s^(-1) (M_c u) for
      the H^(-s) flows, u^T M_c u for Allen-Cahn.
    - l2_u, lp_u: lumped L2 and L^p norms of u_n.
    - step_slack: (lam/2)(u_n^T M_c u_n - u_{n-1}^T M_c u_{n-1})
      - tau gagliardo_s_of_w - [convex(u_n) - convex(u_{n-1})], with the
      flow's lam and convex(u) = (1/2) u^T A_sigma u + h sum beta_hat_reg
      (no Gagliardo term for porous medium); nonnegative up to the Newton
      tolerance by convexity.
    """

    tau: float
    t: np.ndarray
    E_sigma: np.ndarray
    E_tilde: np.ndarray
    gagliardo_s_of_w: np.ndarray
    dual_norm_u: np.ndarray
    l2_u: np.ndarray
    lp_u: np.ndarray
    step_slack: np.ndarray

    def to_csv(self) -> str:
        header = "t,E_sigma,E_tilde,gagliardo_s_of_w,dual_norm_u,l2_u,lp_u,step_slack"
        lines = [header]
        for k in range(len(self.t)):
            vals = (
                self.t[k], self.E_sigma[k], self.E_tilde[k],
                self.gagliardo_s_of_w[k], self.dual_norm_u[k],
                self.l2_u[k], self.lp_u[k], self.step_slack[k],
            )
            lines.append(",".join(f"{v:.17g}" for v in vals))
        return "\n".join(lines) + "\n"


def energy(op_sigma: FracOperator | None, params: PotentialParams, u: Field) -> float:
    """E_sigma(u) = (1/2) u^T A_sigma u + sum_i h W(u_i) (lumped potential);
    op_sigma = None drops the Gagliardo term."""
    e = u.domain.h * np.sum(pot.W(params, u.values))
    if op_sigma is not None:
        e = 0.5 * op_sigma.gagliardo_sq(u) + e
    return float(e)


def energy_modified(
    op_sigma: FracOperator,
    params: PotentialParams,
    lambda1_sigma: float,
    u: Field,
) -> float:
    """Modified energy with the concave quadratic weighted by lambda1(sigma)."""
    return energy(op_sigma, dc_replace(params, lam=lambda1_sigma), u)


def _newton_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], np.ndarray],
    u0: np.ndarray,
    settings: SolverSettings,
    h: float,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton on a strictly convex functional; residual is the
    lumped-scaled gradient norm ||g||_2 / sqrt(h).

    Backtracking tests sufficient decrease of the residual norm rather than
    of the functional value: with a symmetric positive definite Hessian the
    Newton direction is a descent direction for ||grad|| as well, and the
    residual test stays meaningful down to machine precision, where value
    differences drown in roundoff.
    """
    u = u0.copy()
    scale = 1.0 / np.sqrt(h)
    g = grad(u)
    res = float(np.linalg.norm(g)) * scale
    for it in range(settings.newton_max):
        if res <= settings.newton_tol:
            return u, it, res
        d = lin_solve(hess(u), -g, assume_a="pos")
        t = 1.0
        while t >= 1e-14:
            un = u + t * d
            gn = grad(un)
            resn = float(np.linalg.norm(gn)) * scale
            if resn <= (1.0 - settings.ls_sufficient * t) * res or resn <= settings.newton_tol:
                break
            t *= settings.ls_shrink
        else:
            raise NewtonDivergenceError(
                f"line search exhausted at residual {res:.3e}", res
            )
        u, g, res = un, gn, resn
    if res <= settings.newton_tol:
        return u, settings.newton_max, res
    raise NewtonDivergenceError(
        f"Newton cap {settings.newton_max} reached at residual {res:.3e}", res
    )


def _stepper(
    flow: Flow, params: PotentialParams, tau: float, settings: SolverSettings
) -> Callable[[Field], tuple[Field, Field, StepStats]]:
    """The step u_prev -> (u_n, w_n, stats): Newton on F_n, then w_n and the
    potential-equation residual."""
    dom = flow.domain
    h = dom.h
    Mc = flow.mass
    A = None if flow.interface is None else flow.interface.A
    G = Mc if flow.metric is None else flow.metric.dual_kernel

    def step(u_prev: Field) -> tuple[Field, Field, StepStats]:
        if u_prev.domain != dom:
            raise DomainMismatchError("operators and state must share one domain")
        if not np.all(np.isfinite(u_prev.values)):
            raise ValueError("previous state contains non-finite values")
        up = u_prev.values
        explicit = flow.lam * (Mc @ up)

        def grad(u):
            g = G @ (u - up) / tau
            if A is not None:
                g = g + A @ u
            return g + h * pot.beta_reg(params, u) - explicit

        def hess(u):
            H = G / tau
            if A is not None:
                H = H + A
            return H + h * np.diag(pot.beta_prime_reg(params, u))

        un, iters, res = _newton_minimize(grad, hess, up, settings, h)
        if flow.metric is None:
            wn = -(un - up) / tau
        else:
            wn = -flow.metric.solve_vector(Mc @ (un - up)) / tau
        potential = h * pot.beta_reg(params, un)
        if A is not None:
            potential = A @ un + potential
        td2 = Mc @ wn - (potential - explicit)
        stats = StepStats(iters, res, float(np.linalg.norm(td2) / np.sqrt(h)))
        return Field(dom, un), Field(dom, wn), stats

    return step


def evolve(
    flow: Flow, params: PotentialParams, u0: Field, settings: SolverSettings
) -> tuple[Trajectory, EnergyTrace]:
    """March the flow over settings.n_steps steps and trace its energies;
    deterministic."""
    tau = settings.tau
    step = _stepper(flow, params, tau, settings)
    us, ws, stats = [u0], [], []
    for _ in range(settings.n_steps):
        un, wn, st = step(us[-1])
        us.append(un)
        ws.append(wn)
        stats.append(st)
    n = len(ws)
    traj = Trajectory(times=tau * np.arange(n + 1), u=us, w=ws, stats=stats)

    h = flow.domain.h
    Mc = flow.mass
    A = None if flow.interface is None else flow.interface.A
    if flow.metric is None:
        w_gram = Mc

        def dual_norm_sq(u: Field) -> float:
            return float(u.values @ (Mc @ u.values))
    else:
        w_gram = flow.metric.A
        dual_norm_sq = flow.metric.dual_norm_sq

    def convex_part(u: np.ndarray) -> float:
        c = h * np.sum(pot.beta_hat_reg(params, u))
        return float(c if A is None else 0.5 * u @ (A @ u) + c)

    E = np.array([energy(flow.interface, params, u) for u in us])
    if flow.lam == params.lam:
        Et = E.copy()
    else:
        Et = np.array([energy_modified(flow.interface, params, flow.lam, u) for u in us])
    du = np.array([dual_norm_sq(u) for u in us])
    l2 = np.array([lp_norm(u, 2) for u in us])
    lp = np.array([lp_norm(u, params.p) for u in us])
    gw = np.zeros(n + 1)
    slack = np.zeros(n + 1)
    for k in range(1, n + 1):
        w = ws[k - 1].values
        gw[k] = float(w @ (w_gram @ w))
        uk, um = us[k].values, us[k - 1].values
        slack[k] = (
            0.5 * flow.lam * (uk @ (Mc @ uk) - um @ (Mc @ um))
            - tau * gw[k]
            - convex_part(uk)
            + convex_part(um)
        )
    return traj, EnergyTrace(tau, traj.times, E, Et, gw, du, l2, lp, slack)


def ch_step(
    op_s: FracOperator,
    op_sigma: FracOperator,
    params: PotentialParams,
    u_prev: Field,
    tau: float,
    settings: SolverSettings | None = None,
    concave_coef: float | None = None,
) -> tuple[Field, Field, StepStats]:
    """One implicit Cahn-Hilliard step; returns (u_n, w_n, stats).

    concave_coef is the weight of the explicit concave term (params.lam by
    default; lambda1(sigma) for the modified scheme).
    """
    return _stepper(
        Flow(op_s, op_sigma, params.lam if concave_coef is None else concave_coef),
        params,
        tau,
        settings or SolverSettings(tau=tau, T=tau),
    )(u_prev)


def ch_evolve(
    op_s: FracOperator,
    op_sigma: FracOperator,
    params: PotentialParams,
    u0: Field,
    settings: SolverSettings,
) -> tuple[Trajectory, EnergyTrace]:
    """Evolve the fractional Cahn-Hilliard system; deterministic."""
    return evolve(Flow(op_s, op_sigma, params.lam), params, u0, settings)


def ch_evolve_modified(
    op_s: FracOperator,
    op_sigma: FracOperator,
    params: PotentialParams,
    lambda1_sigma: float,
    u0: Field,
    settings: SolverSettings,
) -> tuple[Trajectory, EnergyTrace]:
    """Modified scheme: the explicit concave term carries lambda1(sigma).

    With lambda1_sigma = params.lam this reproduces ch_evolve bitwise.
    """
    return evolve(Flow(op_s, op_sigma, lambda1_sigma), params, u0, settings)


def ac_evolve(
    op_sigma: FracOperator,
    params: PotentialParams,
    u0: Field,
    settings: SolverSettings,
) -> tuple[Trajectory, EnergyTrace]:
    """Implicit Allen-Cahn flow: the L2 metric with the same convex splitting;
    stores w_n = -(u_n - u_prev)/tau."""
    return evolve(Flow(None, op_sigma, params.lam), params, u0, settings)


def pm_evolve(
    op_s: FracOperator,
    params: PotentialParams,
    u0: Field,
    settings: SolverSettings,
) -> tuple[Trajectory, EnergyTrace]:
    """Porous-medium / fast-diffusion flow as an H^(-s) gradient flow of the
    convex potential integral; no concave term (params.lam is ignored), so
    dissipation is exact and E_sigma holds the Lyapunov functional
    sum_i h beta_hat(u_i)."""
    return evolve(Flow(op_s, None, 0.0), dc_replace(params, lam=0.0), u0, settings)


@dataclass(frozen=True)
class EnergyIdentityReport:
    """Cumulative inequality slack versus time step.

    The energy identity (dissipation equals energy decrement) is expected
    only for sigma >= s; there the cumulative slack must vanish as tau -> 0
    with observed order >= 0.8.  For sigma < s the slacks are recorded but
    nothing is asserted.
    """

    sigma: float
    s: float
    taus: list[float]
    cumulative_slacks: list[float]
    observed_orders: list[float]
    identity_expected: bool
    converges: bool


def check_energy_identity_gap(
    traces: Sequence[EnergyTrace], sigma: float, s: float, min_order: float = 0.8
) -> EnergyIdentityReport:
    """Measure how fast the summed per-step slack vanishes under tau-halving.

    traces must come from the same problem at successively halved time steps
    (largest tau first).
    """
    taus = [tr.tau for tr in traces]
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("traces must be ordered by strictly decreasing tau")
    cum = [float(np.sum(tr.step_slack)) for tr in traces]
    orders = []
    for (t1, s1), (t2, s2) in zip(zip(taus, cum), zip(taus[1:], cum[1:])):
        if s2 <= 0 or s1 <= 0:
            orders.append(np.inf)
        else:
            orders.append(float(np.log(s1 / s2) / np.log(t1 / t2)))
    expected = sigma >= s
    converges = all(o >= min_order for o in orders) if orders else False
    return EnergyIdentityReport(sigma, s, taus, cum, orders, expected, converges)


def beta_bound_check(
    traj: Trajectory, params: PotentialParams, lambda_coef: float = 1.0
) -> float:
    """Max positive violation of ||beta(u)||^2 <= 2(||w||^2 + lam^2 ||u||^2)
    along the trajectory, in lumped L2 norms (0 means the bound holds)."""
    h = traj.domain.h
    worst = 0.0
    for k in range(1, len(traj.u)):
        u = traj.u[k].values
        w = traj.w[k - 1].values
        lhs = h * float(np.sum(pot.beta(params, u) ** 2))
        rhs = 2.0 * (
            h * float(np.sum(w**2)) + lambda_coef**2 * h * float(np.sum(u**2))
        )
        worst = max(worst, lhs - rhs)
    return worst


def a_priori_monitors(
    traj: Trajectory,
    op_s: FracOperator,
    op_sigma: FracOperator,
    params: PotentialParams,
    tau: float,
) -> dict:
    """Discrete counterparts of the a-priori bounds: max dual norm of u,
    time-summed Gagliardo energy of w, max of (u^T A_sigma u + ||u||_p^p)."""
    max_dual = max(op_s.dual_norm_sq(u) for u in traj.u)
    sum_w = tau * sum(float(w.values @ (op_s.A @ w.values)) for w in traj.w)
    max_core = max(
        op_sigma.gagliardo_sq(u) + lp_norm(u, params.p) ** params.p for u in traj.u
    )
    return {
        "max_dual_norm_u_sq": float(max_dual),
        "sum_tau_gagliardo_w_sq": float(sum_w),
        "max_energy_core": float(max_core),
    }


def trajectory_to_csv(traj: Trajectory) -> str:
    """One row per time level: t, then the nodal values of u."""
    M = traj.domain.M
    header = "t," + ",".join(f"u_{i}" for i in range(1, M + 1))
    lines = [header]
    for k, t in enumerate(traj.times):
        vals = ",".join(f"{v:.17g}" for v in traj.u[k].values)
        lines.append(f"{t:.17g},{vals}")
    return "\n".join(lines) + "\n"
