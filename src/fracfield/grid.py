"""Uniform 1D grids on a bounded interval and nodal fields with zero extension.

A field lives on the interior nodes of ``Omega = (a, b)`` and represents the
piecewise-linear interpolant through its nodal values, with value 0 at both
endpoints and identically 0 outside ``[a, b]`` (solid Dirichlet convention:
the represented function vanishes on the whole complement of Omega, not just
on the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class InvalidDomainError(ValueError):
    """Raised when interval endpoints or node counts are inadmissible."""


class NonFiniteSampleError(ValueError):
    """Raised when sampling a function that returns NaN or infinity."""


@dataclass(frozen=True)
class Domain1D:
    """Interval (a, b) discretized by M interior nodes with uniform spacing.

    The mesh size is ``h = (b - a)/(M + 1)``; interior nodes are
    ``x_i = a + i*h`` for ``i = 1..M``.  The boundary nodes ``x_0 = a`` and
    ``x_{M+1} = b`` always carry the value 0.
    """

    a: float
    b: float
    M: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.b <= self.a:
            raise InvalidDomainError(f"need b > a, got ({self.a}, {self.b})")
        if self.M < 2:
            raise InvalidDomainError(f"need at least 2 interior nodes, got M={self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.M + 1)

    @property
    def length(self) -> float:
        """Measure of Omega, |Omega| = b - a."""
        return self.b - self.a

    @property
    def nodes(self) -> np.ndarray:
        """Interior nodes x_1..x_M."""
        return self.a + self.h * np.arange(1, self.M + 1)


@dataclass(frozen=True)
class Field:
    """Nodal values at the interior nodes of a domain; immutable.

    Represents the P1 interpolant with zero boundary values, extended by zero
    on the complement of [a, b].
    """

    domain: Domain1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.M,):
            raise ValueError(
                f"values shape {vals.shape} does not match M={self.domain.M}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, x) -> np.ndarray:
        """Evaluate the represented function anywhere on the real line."""
        dom = self.domain
        xp = np.concatenate(([dom.a], dom.nodes, [dom.b]))
        fp = np.concatenate(([0.0], self.values, [0.0]))
        return np.interp(np.asarray(x, dtype=float), xp, fp, left=0.0, right=0.0)

    def __add__(self, other: "Field") -> "Field":
        _check_same_domain(self, other)
        return Field(self.domain, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_domain(self, other)
        return Field(self.domain, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.domain, c * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.domain, -self.values)


class DomainMismatchError(ValueError):
    """Raised when two objects live on different domains."""


def _check_same_domain(u: Field, v: Field) -> None:
    if u.domain != v.domain:
        raise DomainMismatchError(f"{u.domain} != {v.domain}")


def sample(domain: Domain1D, f: Callable[[float], float]) -> Field:
    """Sample f at the interior nodes."""
    vals = np.asarray([f(x) for x in domain.nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = domain.nodes[~np.isfinite(vals)][0]
        raise NonFiniteSampleError(f"f not finite at node x={bad}")
    return Field(domain, vals)


def lp_norm(field: Field, p: float) -> float:
    """Lumped nodal L^p norm, (sum_i h |v_i|^p)^(1/p).

    This is the quadrature rule used throughout for potential terms; for
    p = 2 it coincides with the lumped-mass quadratic form.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    h = field.domain.h
    return float((h * np.sum(np.abs(field.values) ** p)) ** (1.0 / p))


def bump_field(domain: Domain1D, amplitude: float = 1.0) -> Field:
    """Smooth compactly supported bump on Omega, peak value `amplitude`.

    Uses exp(1 - 1/(1 - y^2)) with y the affine map of (a, b) onto (-1, 1);
    all derivatives vanish at the boundary, so the zero extension is smooth.
    """
    a, b = domain.a, domain.b
    y = 2.0 * (domain.nodes - a) / (b - a) - 1.0
    vals = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
    return Field(domain, vals)
