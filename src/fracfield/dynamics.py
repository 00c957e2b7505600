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

evolve is march, the Newton solves alone with u_0..u_n as rows of one
array (all the singular-limit drivers need), then recover: w_n, the
residual of the potential equation and the energy trace for all levels at
once, with one stacked stiffness_vector for A_sigma U and one for A_s W.
w_n comes from the flow equation: by the dual solve
w_n = -A_s^(-1) M_c (u_n - u_prev)/tau in the H^(-s) metric, and as
w_n = -(u_n - u_prev)/tau in L2.  The flow equation then holds exactly,
and the residual of the potential equation
M_c w_n = A_sigma u_n + h beta(u_n) - lam M_c u_prev equals the Newton
stopping residual; StepStats records it for every step.  The module
formats no text: cli writes the trajectory and the trace as CSV tables.

Solver.  The Hessian of F_n is K + h diag(beta'(u)) with K = G/tau +
A_sigma, so only its diagonal changes between Newton iterations and between
steps.  Every Newton direction is preconditioned CG (_pcg) on the current
Hessian, with K and the preconditioner passed as products, and
_newton_operator picks the policy that supplies them.  Both apply K by
one product of mass_vector, solve_vector and stiffness_vector.  The dense
policy applies it once per run to the identity, block by block, and
preconditions by the explicit inverse of the last factored Hessian (a
lagged preconditioner, Knoll & Keyes, J. Comput. Phys. 193, 2004), which
it factors again only when PCG misses KRYLOV_TOL within KRYLOV_MAX
iterations.  The matrix-free policy builds no M x M array: it applies
the product in every PCG iteration, and PCG is preconditioned by the
sine-diagonal (tau-algebra) approximation of the Hessian, so a direction
costs O(M log M) per iteration and nothing is factored.  README's
crossover tables hold the timings behind MATRIX_FREE_M.  StepStats counts
PCG iterations and factorizations.
Both policies solve inexactly (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982): PCG may stop at KRYLOV_FLOOR newton_tol sqrt(h),
below which a direction's accuracy cannot change whether Newton's
residual reaches newton_tol.  Newton starts at the extrapolation through
the last four levels (_predictor, of lower order over the first three
steps).  F_n is strictly convex, so neither moves its minimizer, only the
path to it: against a linear start and PCG to KRYLOV_TOL alone, the five
M = 128 time-stepping configs of the benchmark take 2630 Newton
directions instead of 4286 and 9702 PCG iterations instead of 20032.
M_c products are the O(M) stencil of mass_vector.  The stationary polish
minimizes J with the same Newton and the matrix-free policy at every M,
its K being A_sigma - lam M_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Sequence

import numpy as np

from . import potential as pot
from .fracop import SOLVE_BLOCK, FracOperator, SolverError, _mass_eigenvalues, _sine_solve
from .grid import Domain1D, DomainMismatchError, Field
from .potential import PotentialParams

NEWTON_TOL = 1e-10
NEWTON_MAX = 100
LS_SHRINK = 0.5
LS_SUFFICIENT = 1e-4
KRYLOV_TOL = 1e-10  # PCG stops once ||H d + g|| <= KRYLOV_TOL ||g|| ...
KRYLOV_FLOOR = 1e-3  # ... or <= KRYLOV_FLOOR tol sqrt(h), tol that of _newton_minimize
KRYLOV_MAX = 6  # PCG iterations before the dense policy refactors its Hessian
KRYLOV_CAP = 50  # PCG iterations after which a matrix-free direction is truncated
KRYLOV_FORCING = 0.9  # a truncated direction is kept only if g.(H d + g) <= this g.g
MATRIX_FREE_M = 900  # time steps on finer meshes take matrix-free directions, given an interface


class NewtonDivergenceError(SolverError):
    """Line search exhausted; carries the last scaled residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverSettings:
    """Time step, horizon and Newton tolerance; T must be a whole number of
    steps (to a relative 1e-9, which absorbs the rounding of T / tau)."""

    tau: float
    T: float
    newton_tol: float = NEWTON_TOL

    def __post_init__(self) -> None:
        if not (0 < self.tau <= self.T and self.T / self.tau < math.inf):
            raise ValueError(f"need 0 < tau <= T with T / tau finite, "
                             f"got tau={self.tau}, T={self.T}")
        steps = self.T / self.tau
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"T={self.T} is not a whole number of steps tau={self.tau}"
            )
        if not self.newton_tol > 0:  # also catches NaN
            raise ValueError("newton_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass(frozen=True)
class StepStats:
    """Newton iterations and final residual of one step, the residual of the
    potential equation, and the step's PCG iterations and Hessian
    factorizations (both deterministic)."""

    iterations: int
    residual: float
    td2_residual: float
    krylov: int
    factorizations: int


@dataclass(frozen=True)
class Trajectory:
    """Time series (u_n, w_n) as arrays: row n of U, shape (n_steps+1, M),
    holds u_n; row n-1 of W, shape (n_steps, M), holds w_n."""

    times: np.ndarray
    U: np.ndarray
    W: np.ndarray
    stats: list[StepStats]
    domain: Domain1D


@dataclass(frozen=True)
class Flow:
    """One gradient flow of the convex-splitting family.

    metric is the operator A_s of the H^(-s) metric G = M_c A_s^(-1) M_c, or
    None for the L2 metric G = M_c (Allen-Cahn).  interface is A_sigma, or
    None when the energy has no Gagliardo term (porous medium).  lam weighs
    the explicit concave quadratic; a flow without an interface has no
    concave term, so ValueError unless its lam is 0.
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
        if self.interface is None and self.lam != 0.0:
            raise ValueError("a flow without an interface has no concave term, "
                             f"so lam must be 0, got {self.lam}")

    @property
    def domain(self) -> Domain1D:
        return (self.interface or self.metric).domain


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


def energy(op_sigma: FracOperator | None, params: PotentialParams, u: Field) -> float:
    """E_sigma(u) = (1/2) u^T A_sigma u + sum_i h W(u_i) (lumped potential);
    op_sigma = None drops the Gagliardo term."""
    e = u.domain.h * np.sum(pot.W(params, u.values))
    if op_sigma is not None:
        e = 0.5 * op_sigma.gagliardo_sq(u) + e
    return float(e)


def _scaled_res(g: np.ndarray, h: float) -> float:
    """The residual both minimizations stop on: the lumped-scaled gradient
    norm ||g||_2 / sqrt(h)."""
    return math.sqrt(g @ g) * (1.0 / math.sqrt(h))


def _newton_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    direction: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    u0: np.ndarray,
    tol: float,
    h: float,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton for the minimizers of the package: the convex-splitting
    functionals F_n of the time steps and the free energy J of stationary
    states.  Returns (u, iterations, residual), the residual being
    _scaled_res of the gradient; NewtonDivergenceError
    when the line search or the NEWTON_MAX cap runs out.

    direction(u, g, stop) returns the Newton direction, an approximate
    solution of H(u) d = -g that may stop at ||H d + g|| <= stop; both
    minimizations take it from _newton_operator.  Newton passes stop =
    KRYLOV_FLOOR tol sqrt(h), a thousandth of the gradient norm the test
    accepts: the next gradient is -(H d + g) + O(|d|^2), so a more
    accurate direction cannot change whether the residual reaches tol.
    Where it raises LinAlgError, because a matrix-free direction met
    nonpositive curvature (only the nonconvex J can reach this) or stopped
    at KRYLOV_CAP far from solving, the iteration takes the small gradient
    step u - min(1e-2, res) g instead.

    Backtracking tests sufficient decrease of the residual norm rather than
    of the functional value: with a symmetric positive definite Hessian the
    Newton direction is a descent direction for ||grad|| as well, and the
    residual test stays meaningful down to machine precision, where value
    differences drown in roundoff.
    """
    u = u0.copy()
    g = grad(u)
    res = _scaled_res(g, h)
    stop = KRYLOV_FLOOR * tol * math.sqrt(h)
    for it in range(NEWTON_MAX):
        if res <= tol:
            return u, it, res
        try:
            d = direction(u, g, stop)
        except np.linalg.LinAlgError:
            u = u - min(1e-2, res) * g
            g = grad(u)
            res = _scaled_res(g, h)
            continue
        t = 1.0
        while t >= 1e-14:
            un = u + t * d
            gn = grad(un)
            resn = _scaled_res(gn, h)
            if resn <= (1.0 - LS_SUFFICIENT * t) * res or resn <= tol:
                break
            t *= LS_SHRINK
        else:
            raise NewtonDivergenceError(
                f"line search exhausted at residual {res:.3e}", res
            )
        u, g, res = un, gn, resn
    if res <= tol:
        return u, NEWTON_MAX, res
    raise NewtonDivergenceError(
        f"Newton cap {NEWTON_MAX} reached at residual {res:.3e}", res
    )


def _pcg(
    apply: Callable, precondition: Callable, D: np.ndarray, g: np.ndarray, counts: list,
    stop: float = 0.0, cap: int = KRYLOV_MAX, forcing: float | None = None,
) -> np.ndarray | None:
    """Preconditioned CG on (K + diag(D)) d = -g from d = 0.  apply(p, out)
    returns K p and precondition(r, out) the preconditioner applied to r,
    each in out or in a fresh vector.  Returns d once ||H d + g|| <=
    max(KRYLOV_TOL ||g||, stop), stop being Newton's floor (0 tests
    KRYLOV_TOL alone); after cap iterations (counted in counts[0]) the last
    iterate if a forcing is given and g.(H d + g) <= forcing g.g, else
    None; None on a direction of nonpositive (or NaN) curvature.  The
    forcing test bounds the slope g.(H d) of ||grad||^2/2 along d by
    -(1 - forcing) g.g, so the residual norm falls along a kept d.  It
    holds wherever ||H d + g|| <= forcing ||g||; PCG's 2-norm residual can
    grow, so it is checked, not assumed.  Apart from what apply and
    precondition allocate, the iterations allocate nothing: the updates go
    through work in place."""
    d = np.zeros_like(g)
    r = -g
    q, z, work = np.zeros((3, g.size))  # zeros: a BLAS may scale NaN garbage by beta = 0
    stop = max(KRYLOV_TOL * math.sqrt(g @ g), stop)
    z = precondition(r, z)
    p = z.copy()
    rz = r @ z
    for _ in range(cap):
        q = apply(p, q)
        q += np.multiply(D, p, out=work)
        pq = p @ q
        if not pq > 0.0:
            return None
        alpha = rz / pq
        d += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        counts[0] += 1
        if math.sqrt(r @ r) <= stop:
            return d
        z = precondition(r, z)
        rz, rz_prev = r @ z, rz
        p *= rz / rz_prev
        p += z
    if forcing is not None and -(g @ r) <= forcing * (g @ g):  # r = -(H d + g)
        return d
    return None


def _lagged_direction(
    K: np.ndarray, params: PotentialParams, h: float, counts: list
) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """The dense policy: Newton directions for the Hessian K + h
    diag(beta'(u)), K a fixed symmetric matrix.  It serves time steps
    only, whose Hessians are positive definite.  Each direction is PCG
    preconditioned by the explicit inverse of the last Hessian factored,
    both products np.dot into PCG's buffers.  Only when PCG fails
    (KRYLOV_MAX iterations, or nonpositive curvature) is the current
    Hessian factored: np.linalg.inv gives the inverse that gives the
    direction and serves every later call.  counts adds up [PCG
    iterations, factorizations].

    The Hessian is formed in K's buffer, whose diagonal is restored after
    the factorization, so K and the inverse are the only M x M arrays
    held.  A direction allocates O(M) unless it factors.
    """
    diag = np.diag_indices(K.shape[0])
    K_diag = K[diag]
    inverse = [None]  # the last factored Hessian's inverse

    def apply(p, out):
        return np.dot(K, p, out=out)

    def precondition(r, out):
        return np.dot(inverse[0], r, out=out)

    def direction(u: np.ndarray, g: np.ndarray, stop: float = 0.0) -> np.ndarray:
        D = h * pot.beta_prime_reg(params, u)
        if inverse[0] is not None:
            d = _pcg(apply, precondition, D, g, counts, stop)
            if d is not None:
                return d
            inverse[0] = None  # released before the new buffer is built
        K[diag] += D
        try:
            inverse[0] = np.linalg.inv(K)
        finally:
            K[diag] = K_diag
        counts[1] += 1
        return -(inverse[0] @ g)

    return direction


def _newton_operator(
    metric: FracOperator | None,
    interface: FracOperator | None,
    tau: float | None,
    params: PotentialParams,
    counts: list,
) -> tuple[Callable[[np.ndarray], np.ndarray],
           Callable[[np.ndarray, np.ndarray, float], np.ndarray]]:
    """The product x -> K x and the Newton directions for the Hessian
    K + h diag(beta'(u)) of both minimizations.  F_n passes its time step:
    K = G/tau + A_sigma with G = M_c A_s^(-1) M_c for the metric A_s or
    G = M_c for metric None, and no A_sigma without an interface.  J passes
    tau None and no metric: K = A_sigma - params.lam M_c.

    K is defined once, by its product: mass_vector(solve_vector(
    mass_vector(x)))/tau (mass_vector(x)/tau for G = M_c, -lam
    mass_vector(x) for J), plus stiffness_vector(x) given an interface.
    The policy is chosen here, and only here.  A time step up to
    MATRIX_FREE_M nodes, or at any M without an interface (porous medium
    and fast diffusion, whose preconditioner below sees only the mean of
    beta'), takes the dense policy: K is the product applied to the
    identity SOLVE_BLOCK rows at a time (row j is K e_j, K being
    symmetric), so set-up holds one M x M array; the gradient's product
    is then K @ x and the directions come from _lagged_direction.
    Otherwise, and for J at every M, nothing M x M is built: the product
    is applied as it is, and each direction is PCG preconditioned by the
    matrix the DST-I diagonalizes with the eigenvalues of K's parts,
    a^sigma_j plus m_j^2/(tau a^s_j) (m_j/tau), plus h mean(beta'(u)); m_j
    are those of M_c and a^r_j those of tau(A_r).  J's metric part -lam m_j
    is left out, which keeps the preconditioner positive definite.  PCG
    stops after KRYLOV_CAP iterations and keeps its last iterate only
    under the forcing test of _pcg with KRYLOV_FORCING, which makes it a
    descent direction for the residual norm the line search tests.
    Nothing is factored, so counts adds only PCG iterations; LinAlgError
    on nonpositive curvature (J only) or a truncated direction that fails
    that test, on which _newton_minimize takes its gradient step.
    """
    op = interface or metric
    M, h, mass = op.domain.M, op.domain.h, op.mass_vector

    def product(x: np.ndarray) -> np.ndarray:
        y = mass(x) if metric is None else mass(metric.solve_vector(mass(x)))
        if tau is None:
            y *= -params.lam
        else:
            y /= tau
        if interface is not None:
            y += interface.stiffness_vector(x)
        return y

    if tau is not None and (M <= MATRIX_FREE_M or interface is None):
        K = np.empty((M, M))
        for j in range(0, M, SOLVE_BLOCK):
            K[j : j + SOLVE_BLOCK] = product(np.eye(min(SOLVE_BLOCK, M - j), M, j))
        return K.dot, _lagged_direction(K, params, h, counts)

    eigenvalues = interface._tau
    if tau is not None:
        m = _mass_eigenvalues(M, h)
        eigenvalues = eigenvalues + (m if metric is None else m * m / metric._tau) / tau

    def direction(u: np.ndarray, g: np.ndarray, stop: float = 0.0) -> np.ndarray:
        D = h * pot.beta_prime_reg(params, u)
        shifted = eigenvalues + D.mean()
        d = _pcg(lambda p, out: product(p), lambda r, out: _sine_solve(r, shifted),
                 D, g, counts, stop, KRYLOV_CAP, KRYLOV_FORCING)
        if d is None:
            raise np.linalg.LinAlgError(
                "nonpositive curvature or no progress in a matrix-free direction")
        return d

    return product, direction


def _stepper(
    flow: Flow, params: PotentialParams, settings: SolverSettings
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int, float, int, int]]:
    """The step (u_prev, start) -> (u_n, iterations, residual, krylov,
    factorizations) on nodal vectors: Newton on F_n from start, nothing
    else.

    The Hessian of F_n is K + h diag(beta'(u)), where K = G/tau + A_sigma
    does not depend on u or on the step; one _newton_operator serves the
    whole run.  The gradient keeps the difference form K (u - u_prev) +
    A_sigma u_prev + h beta(u) - lam M_c u_prev, so nothing cancels near
    newton_tol; its K product is the operator's, and the offset
    A_sigma u_prev - lam M_c u_prev is one stiffness_vector per step.
    """
    h = flow.domain.h
    mass_vector = (flow.interface or flow.metric).mass_vector
    counts = [0, 0]  # PCG iterations, factorizations of the current step
    product, direction = _newton_operator(
        flow.metric, flow.interface, settings.tau, params, counts)

    def step(up: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, int, float, int, int]:
        offset = -flow.lam * mass_vector(up)
        if flow.interface is not None:
            offset += flow.interface.stiffness_vector(up)
        counts[:] = [0, 0]

        def grad(u):
            return product(u - up) + h * pot.beta_reg(params, u) + offset

        un, iters, res = _newton_minimize(grad, direction, start, settings.newton_tol, h)
        return un, iters, res, counts[0], counts[1]

    return step


def _rows_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x_k . y_k for every row k, one BLAS dot per row (stacked matmul), so
    each rounds as x_k @ y_k.  A matrix-matrix product would round
    differently and move step_slack and the td2 residual, small differences
    of O(1) terms, by up to 1e-10 of their scale."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _predictor(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Newton's start for the step after the levels rows: the polynomial
    extrapolation through the last four levels, of lower order while there
    are fewer.  Each expression is odd in the levels and acts on every node
    alike, so it keeps the march odd and mirror-symmetric bitwise."""
    if len(rows) == 1:
        return rows[-1]
    if len(rows) == 2:
        return 2.0 * rows[-1] - rows[-2]
    if len(rows) == 3:
        return 3.0 * (rows[-1] - rows[-2]) + rows[-3]
    return 4.0 * (rows[-1] + rows[-3]) - 6.0 * rows[-2] - rows[-4]


def march(
    flow: Flow, params: PotentialParams, u0: Field, settings: SolverSettings
) -> tuple[np.ndarray, list[list]]:
    """March the flow over settings.n_steps steps, Newton solves only, each
    started at _predictor of the levels so far; deterministic.  Returns U,
    shape (n_steps+1, M), with u_n in row n, and per step its
    [iterations, residual, krylov, factorizations]."""
    if u0.domain != flow.domain:
        raise DomainMismatchError("operators and state must share one domain")
    if not np.all(np.isfinite(u0.values)):
        raise ValueError("initial state contains non-finite values")
    step = _stepper(flow, params, settings)
    rows, newton = [u0.values], []
    for _ in range(settings.n_steps):
        un, *st = step(rows[-1], _predictor(rows))
        rows.append(un)
        newton.append(st)
    # U is stacked after the march: preallocated, it would add to the
    # march's memory peak (the first Hessian factorization).  K and the
    # lagged inverse are freed first.
    del step
    return np.array(rows), newton


def recover(
    flow: Flow, params: PotentialParams, U: np.ndarray, newton: list[list], tau: float
) -> tuple[Trajectory, EnergyTrace]:
    """w, the step statistics and the energy trace of a march (U, newton)
    with time step tau, from all levels at once.  Without an interface
    params.lam is ignored, so E_sigma is the Lyapunov functional
    h sum beta_hat(u_i) and dissipation is exact."""
    if flow.interface is None:
        params = dc_replace(params, lam=0.0)
    h, n = flow.domain.h, len(U) - 1
    mass = (flow.interface or flow.metric).mass_vector

    # td2 = M_c w_n - (A_sigma u_n + h beta(u_n) - lam M_c u_prev), built in
    # place, in an order that keeps few (n+1, M) arrays alive at once
    half_gag = 0.0  # (1/2) u^T A_sigma u of every level, if there is an interface
    td2 = h * pot.beta_reg(params, U[1:])
    if flow.interface is not None:
        AU = flow.interface.stiffness_vector(U)
        half_gag = 0.5 * _rows_dot(U, AU)
        td2 += AU[1:]
        del AU
    MU = mass(U)
    mass_sq = _rows_dot(U, MU)
    td2 -= flow.lam * MU[:-1]
    if flow.metric is None:
        du = mass_sq
        W = (U[:-1] - U[1:]) / tau
        gw = _rows_dot(W, mass(W))
    else:
        du = _rows_dot(MU, flow.metric.solve_vector(MU))
        del MU
        W = flow.metric.solve_vector(mass(U[:-1] - U[1:])) / tau
        gw = _rows_dot(W, flow.metric.stiffness_vector(W))
    np.subtract(mass(W), td2, out=td2)
    td2 = np.sqrt(_rows_dot(td2, td2)) / np.sqrt(h)

    def energy_rows(lam):  # E_sigma of every level with concave weight lam
        return half_gag + h * np.sum(pot.W(dc_replace(params, lam=lam), U), axis=1)

    def lp_rows(p):  # grid.lp_norm of every level
        return (h * np.sum(np.abs(U) ** p, axis=1)) ** (1.0 / p)

    E = energy_rows(params.lam)
    Et = E.copy() if flow.lam == params.lam else energy_rows(flow.lam)
    convex = half_gag + h * np.sum(pot.beta_hat_reg(params, U), axis=1)
    gw = np.concatenate(([0.0], gw))
    slack = np.zeros(n + 1)
    slack[1:] = (
        0.5 * flow.lam * (mass_sq[1:] - mass_sq[:-1])
        - tau * gw[1:]
        - convex[1:]
        + convex[:-1]
    )
    t = tau * np.arange(n + 1)
    trace = EnergyTrace(tau, t, E, Et, gw, du, lp_rows(2), lp_rows(params.p), slack)
    stats = [StepStats(it, res, r, kr, fa)
             for (it, res, kr, fa), r in zip(newton, td2.tolist())]
    return Trajectory(t, U, W, stats, flow.domain), trace


def evolve(
    flow: Flow, params: PotentialParams, u0: Field, settings: SolverSettings
) -> tuple[Trajectory, EnergyTrace]:
    """march, then recover; deterministic."""
    return recover(flow, params, *march(flow, params, u0, settings), settings.tau)


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
    U = traj.U[1:]
    lhs = h * np.sum(pot.beta(params, U) ** 2, axis=1)
    rhs = 2.0 * (h * np.sum(traj.W**2, axis=1) + lambda_coef**2 * h * np.sum(U**2, axis=1))
    return max(0.0, float(np.max(lhs - rhs)))
