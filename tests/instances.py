"""Fixed, deterministically generated instances shared by the test suite."""

from __future__ import annotations

import functools
import math

import numpy as np

from fkips.annealing import GibbsProblem
from fkips.flow import FlowSpec
from fkips.measures import (
    BoundedFunction,
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
)

from .oracles import random_kernel_rows


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def mixing_kernel(rng, dim, level):
    """Kernel with ergodic coefficient at most ``level``: a rank-one base
    mixed with a random stochastic perturbation."""
    base = rng.random(dim) + 0.2
    base /= base.sum()
    perturb = random_kernel_rows(rng, dim)
    return KernelMatrix((1.0 - level) * np.tile(base, (dim, 1)) + level * perturb)


def ratio_capped_potential(rng, dim, ratio):
    """Strictly positive table whose max/min ratio is exactly ``ratio``."""
    v = rng.random(dim)
    v = (v - v.min()) / (v.max() - v.min())
    return PotentialVector(1.0 + (ratio - 1.0) * v)


def bounded_regime_flow(horizon, dim=4, a=0.5, g_cap=math.exp(0.5), mix=0.2, seed=100):
    """Flow satisfying the uniform-regime hypothesis at (a, g_cap):
    every potential ratio equals g_cap, every kernel mixes at level <= mix
    where mix < a/(a + g_cap)."""
    assert mix < a / (a + g_cap)
    rng = _rng(seed)
    steps = tuple(
        (ratio_capped_potential(rng, dim, g_cap), mixing_kernel(rng, dim, mix))
        for _ in range(horizon)
    )
    return FlowSpec(initial=FiniteDistribution.uniform(dim), steps=steps)


def decreasing_regime_flow(horizon, dim=4, a=0.5, mix=0.15, seed=200):
    """Flow with potential ratios 1 + 2^-p decreasing to 1 and kernels
    mixing at level <= mix, below every decreasing-regime cap."""
    rng = _rng(seed)
    steps = []
    for p in range(1, horizon + 1):
        ratio = 1.0 + 2.0 ** (-p)
        steps.append((ratio_capped_potential(rng, dim, ratio), mixing_kernel(rng, dim, mix)))
    return FlowSpec(initial=FiniteDistribution.uniform(dim), steps=tuple(steps))


def random_flow(rng, dim=None, horizon=None):
    """Unconstrained random flow for oracle identities and lemma checks."""
    dim = int(rng.integers(2, 9)) if dim is None else dim
    horizon = int(rng.integers(1, 7)) if horizon is None else horizon
    steps = tuple(
        (
            PotentialVector(0.2 + 2.8 * rng.random(dim)),
            KernelMatrix(random_kernel_rows(rng, dim)),
        )
        for _ in range(horizon)
    )
    init = rng.random(dim) + 0.05
    return FlowSpec(
        initial=FiniteDistribution.from_unnormalized(init), steps=steps
    )


def double_well_problem():
    """8-state double-well energy with a lazy-ring proposal."""
    v = np.array([0.0, 0.6, 1.0, 0.6, 0.1, 0.6, 1.0, 0.6])
    return GibbsProblem(
        energy=BoundedFunction(v),
        reference=FiniteDistribution.uniform(8),
        proposal=KernelMatrix.lazy_ring(8, 0.5),
    )


def adaptive_problem(dim=4):
    """Strictly positive energies (declared minimum 0 off the support), a
    uniform reference and a lazy-ring proposal; suits the adaptive module."""
    tables = {
        4: np.array([0.5, 0.65, 0.8, 1.0]),
        6: np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    }
    return GibbsProblem(
        energy=BoundedFunction(tables[dim]),
        reference=FiniteDistribution.uniform(dim),
        proposal=KernelMatrix.lazy_ring(dim, 0.25),
    )


def random_reversible_problem(rng, dim):
    """Random energies and reference with a proposal made reversible by a
    symmetric-flux construction."""
    m = rng.random(dim) + 0.2
    m /= m.sum()
    flux = rng.random((dim, dim))
    flux = (flux + flux.T) / 2.0
    np.fill_diagonal(flux, 0.0)
    rows = flux / m[:, None]
    scale = 1.1 * rows.sum(axis=1).max()
    rows = rows / scale
    np.fill_diagonal(rows, 1.0 - rows.sum(axis=1))
    return GibbsProblem(
        energy=BoundedFunction(2.0 * rng.random(dim)),
        reference=FiniteDistribution(m),
        proposal=KernelMatrix(rows),
    )


@functools.cache
def table_check_flows():
    """(id, flow) pairs on which the composed-table checks are compared with
    their per-pair references: random flows, both regimes' instances,
    identity kernels, rank-one kernels (b_{p,n} = 0 for p < n, so excesses
    tie at exactly -1 and 0), horizon 0 and one horizon of 200.  The flows
    are built once, so each table is too."""
    rng = _rng(300)
    three, potential = FiniteDistribution.uniform(3), PotentialVector([1.0, 2.0, 0.5])
    return tuple([(f"random-{i}", random_flow(rng)) for i in range(12)] + [
        ("bounded", bounded_regime_flow(12, seed=11)),
        ("decreasing", decreasing_regime_flow(12, seed=55)),
        ("identity", FlowSpec(three, ((potential, KernelMatrix.identity(3)),) * 3)),
        ("rank-one", FlowSpec(three, ((potential, KernelMatrix.uniform(3)),) * 3)),
        ("horizon-0", FlowSpec(three, ())),
        ("horizon-200", bounded_regime_flow(200, dim=8)),
    ])
