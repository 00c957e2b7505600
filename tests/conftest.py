from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

import fracfield as ff
from oracles import _DUAL_KERNELS


@pytest.fixture(scope="session")
def get_op():
    """Session-cached operator factory; FracOperator is immutable, so
    sharing across tests is safe and saves repeated assembly."""

    @lru_cache(maxsize=None)
    def _get(a: float, b: float, M: int, r: float) -> ff.FracOperator:
        return ff.assemble(ff.Domain1D(a, b, M), r)

    return _get


@pytest.fixture(scope="session")
def unit64(get_op):
    return {r: get_op(0.0, 1.0, 64, r) for r in (0.25, 0.5, 0.75)}


@pytest.fixture(autouse=True, scope="module")
def _free_oracle_dual_kernels():
    """newton_step_dense keeps one dense dual kernel per operator; they
    are freed with the module whose tests built them."""
    yield
    _DUAL_KERNELS.clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def ch_reference_run(get_op):
    """The p = 4, s = sigma = 0.5, M = 128 inequality run shared by the
    energy-inequality and pointwise-bound acceptance checks."""
    op = get_op(0.0, 1.0, 128, 0.5)
    params = ff.PotentialParams(p=4)
    u0 = ff.bump_field(op.domain)
    settings = ff.SolverSettings(tau=1e-3, T=0.5)
    traj, trace = ff.evolve(ff.Flow(op, op, params.lam), params, u0, settings)
    return {"traj": traj, "trace": trace, "params": params, "op": op}
