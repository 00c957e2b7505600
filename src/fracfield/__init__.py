"""fracfield: fractional Cahn-Hilliard dynamics with solid Dirichlet
conditions, plus its Allen-Cahn and porous-medium singular limits.

Core layers:

- grid / potential: interval meshes, zero-extended nodal fields, the
  power-law double well and its monotone derivative;
- fracop: Toeplitz Galerkin stiffness of the weak fractional Laplacian
  (full Gagliardo form including the exterior tail) from a closed-form
  column, elliptic solves, dual norms;
- spectral: first eigenpair, interpolation constant, eigenvalue bounds;
- dynamics: one energy-stable convex-splitting step for all four flows
  (Cahn-Hilliard, modified, Allen-Cahn, porous medium): march, then
  recover w and the energy trace with its per-step inequality monitors;
- stationary: free-energy minimization, the smallness bound and the
  sigma sweep of stationary states;
- limits: quantitative singular-limit experiments, one sigma -> 0 driver
  whose regime (porous medium or fast diffusion) p picks;
- cli: the `fracfield` command and the one CSV table writer.
"""

__version__ = "0.1.0"

from .grid import Domain1D, Field, bump_field, lp_norm, make_domain, sample, zero_field
from .potential import PotentialParams, W, beta, beta_hat
from .fracop import FracOperator, KernelConstant, assemble, kernel_constant
from .spectral import (
    EigenPair,
    first_eigenpair,
    kappa,
    lambda1_lower_bound,
    lambda1_sweep,
)
from .dynamics import (
    EnergyTrace,
    Flow,
    SolverSettings,
    Trajectory,
    beta_bound_check,
    check_energy_identity_gap,
    energy,
    evolve,
    march,
    recover,
)
from .stationary import (
    StationaryResult,
    minimize_energy,
    smallness_bound,
    stationary_sigma_sweep,
)
from .limits import (
    LimitReport,
    limit_s_to_ac,
    limit_sigma,
    operator_identity_limit,
)

__all__ = [
    "Domain1D", "Field", "make_domain", "sample", "zero_field", "bump_field",
    "lp_norm",
    "PotentialParams", "beta", "beta_hat", "W",
    "KernelConstant", "FracOperator", "kernel_constant", "assemble",
    "EigenPair", "first_eigenpair", "kappa",
    "lambda1_lower_bound", "lambda1_sweep",
    "SolverSettings", "Trajectory", "EnergyTrace", "Flow", "march", "recover",
    "evolve", "energy", "check_energy_identity_gap", "beta_bound_check",
    "StationaryResult", "minimize_energy", "smallness_bound",
    "stationary_sigma_sweep",
    "LimitReport", "limit_sigma", "limit_s_to_ac",
    "operator_identity_limit",
    "__version__",
]
