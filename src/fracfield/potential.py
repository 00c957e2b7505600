"""Power-law double-well potential and its monotone nonlinearity.

The potential is W(v) = |v|^p / p - (lam/2) v^2 with p in (1, inf), p != 2.
Its convex part has derivative beta(v) = |v|^(p-1) sign(v); the concave
quadratic is treated explicitly by the time steppers.  For p < 2 the
derivative beta' blows up at the origin, so solvers consume a smoothed
variant (v^2 + delta^2)^((p-2)/2) v while all reported energies use the
exact power law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PotentialParams:
    """Exponent p, concave coefficient lam and smoothing delta.

    lam is 1 for the original system and lambda1(sigma) for the modified one.
    delta = 0 is only admissible for p > 2 (where beta' is continuous).
    """

    p: float
    lam: float = 1.0
    delta: float | None = None

    def __post_init__(self) -> None:
        if not (1.0 < self.p < np.inf) or self.p == 2.0:
            raise ValueError(f"need p in (1, inf) with p != 2, got p={self.p}")
        if self.lam < 0:
            raise ValueError(f"need lam >= 0, got {self.lam}")
        if self.delta is None:
            object.__setattr__(self, "delta", 0.0 if self.p > 2 else 1e-8)
        if self.delta < 0 or (self.delta == 0.0 and self.p < 2):
            raise ValueError("delta = 0 is only allowed for p > 2")


def beta(params: PotentialParams, v):
    """Exact monotone nonlinearity |v|^(p-1) sign v."""
    v = np.asarray(v, dtype=float)
    out = np.abs(v) ** (params.p - 1.0) * np.sign(v)
    return out if out.ndim else float(out)


def beta_hat(params: PotentialParams, v):
    """Primitive of beta with beta_hat(0) = 0, i.e. |v|^p / p."""
    v = np.asarray(v, dtype=float)
    out = np.abs(v) ** params.p / params.p
    return out if out.ndim else float(out)


def W(params: PotentialParams, v):
    """Double-well potential beta_hat(v) - (lam/2) v^2."""
    v = np.asarray(v, dtype=float)
    out = beta_hat(params, v) - 0.5 * params.lam * v**2
    return out if np.ndim(out) else float(out)


def beta_reg(params: PotentialParams, v):
    """Solver-side beta: (v^2 + delta^2)^((p-2)/2) v, exact when delta = 0."""
    v = np.asarray(v, dtype=float)
    if params.delta == 0.0:
        return beta(params, v)
    out = (v**2 + params.delta**2) ** ((params.p - 2.0) / 2.0) * v
    return out if out.ndim else float(out)


def beta_hat_reg(params: PotentialParams, v):
    """Primitive of beta_reg vanishing at 0: ((v^2+d^2)^(p/2) - d^p)/p."""
    v = np.asarray(v, dtype=float)
    d = params.delta
    if d == 0.0:
        return beta_hat(params, v)
    out = ((v**2 + d**2) ** (params.p / 2.0) - d**params.p) / params.p
    return out if out.ndim else float(out)


def beta_prime_reg(params: PotentialParams, v):
    """Derivative of beta_reg: (v^2+d^2)^((p-4)/2) ((p-1) v^2 + d^2)."""
    v = np.asarray(v, dtype=float)
    p, d = params.p, params.delta
    if d == 0.0:
        # p > 2 here by the delta invariant, so |v|^(p-2) -> 0 at v = 0
        out = (p - 1.0) * np.abs(v) ** (p - 2.0)
        return out if out.ndim else float(out)
    out = (v**2 + d**2) ** ((p - 4.0) / 2.0) * ((p - 1.0) * v**2 + d**2)
    return out if out.ndim else float(out)
