"""Fixed, deterministically generated instances shared by the test suite."""

from __future__ import annotations

import functools
import math

import numpy as np

from fkips.annealing import GibbsProblem
from fkips.flow import FlowSpec
from fkips.measures import KernelMatrix, law, normalized_law, uniform_law

from .oracles import random_kernel_rows


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def mixing_kernel(rng, dim, level):
    """Kernel rows with ergodic coefficient at most ``level``: a rank-one
    base mixed with a random stochastic perturbation."""
    base = rng.random(dim) + 0.2
    base /= base.sum()
    perturb = random_kernel_rows(rng, dim)
    return KernelMatrix((1.0 - level) * np.tile(base, (dim, 1)) + level * perturb).rows


def ratio_capped_potential(rng, dim, ratio):
    """Strictly positive table whose max/min ratio is exactly ``ratio``."""
    v = rng.random(dim)
    v = (v - v.min()) / (v.max() - v.min())
    return 1.0 + (ratio - 1.0) * v


def bounded_regime_flow(horizon, dim=4, a=0.5, g_cap=math.exp(0.5), mix=0.2, seed=100):
    """Flow satisfying the uniform-regime hypothesis at (a, g_cap):
    every potential ratio equals g_cap, every kernel mixes at level <= mix
    where mix < a/(a + g_cap)."""
    assert mix < a / (a + g_cap)
    rng = _rng(seed)
    potentials, kernels = np.empty((horizon, dim)), np.empty((horizon, dim, dim))
    for n in range(horizon):
        potentials[n] = ratio_capped_potential(rng, dim, g_cap)
        kernels[n] = mixing_kernel(rng, dim, mix)
    return FlowSpec(uniform_law(dim), potentials, kernels)


def decreasing_regime_flow(horizon, dim=4, a=0.5, mix=0.15, seed=200):
    """Flow with potential ratios 1 + 2^-p decreasing to 1 and kernels
    mixing at level <= mix, below every decreasing-regime cap."""
    rng = _rng(seed)
    potentials, kernels = np.empty((horizon, dim)), np.empty((horizon, dim, dim))
    for n in range(horizon):
        potentials[n] = ratio_capped_potential(rng, dim, 1.0 + 2.0 ** (-(n + 1)))
        kernels[n] = mixing_kernel(rng, dim, mix)
    return FlowSpec(uniform_law(dim), potentials, kernels)


def random_flow(rng, dim=None, horizon=None):
    """Unconstrained random flow for oracle identities and lemma checks."""
    dim = int(rng.integers(2, 9)) if dim is None else dim
    horizon = int(rng.integers(1, 7)) if horizon is None else horizon
    potentials, kernels = np.empty((horizon, dim)), np.empty((horizon, dim, dim))
    for n in range(horizon):
        potentials[n] = 0.2 + 2.8 * rng.random(dim)
        kernels[n] = KernelMatrix(random_kernel_rows(rng, dim)).rows
    init = rng.random(dim) + 0.05
    return FlowSpec(normalized_law(init), potentials, kernels)


def repeated_flow(initial, potential, kernel, horizon):
    """The flow of ``initial`` taking the same step, the (d,) ``potential``
    and the (d, d) ``kernel`` rows, ``horizon`` times."""
    dim = len(initial)
    return FlowSpec(
        initial,
        np.broadcast_to(potential, (horizon, dim)),
        np.broadcast_to(kernel, (horizon, dim, dim)),
    )


def double_well_problem():
    """8-state double-well energy with a lazy-ring proposal."""
    v = np.array([0.0, 0.6, 1.0, 0.6, 0.1, 0.6, 1.0, 0.6])
    return GibbsProblem(
        v_values=v,
        reference=uniform_law(8),
        proposal=KernelMatrix.lazy_ring(8, 0.5),
    )


def adaptive_problem(dim=4):
    """Strictly positive energies (declared minimum 0 off the support), a
    uniform reference and a lazy-ring proposal; suits the adaptive module."""
    tables = {
        4: np.array([0.5, 0.65, 0.8, 1.0]),
        6: np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        8: np.linspace(0.3, 1.0, 8),
    }
    return GibbsProblem(
        v_values=tables[dim],
        reference=uniform_law(dim),
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
        v_values=2.0 * rng.random(dim),
        reference=law(m),
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
    three, potential = uniform_law(3), [1.0, 2.0, 0.5]
    return tuple([(f"random-{i}", random_flow(rng)) for i in range(12)] + [
        ("bounded", bounded_regime_flow(12, seed=11)),
        ("decreasing", decreasing_regime_flow(12, seed=55)),
        ("identity", repeated_flow(three, potential, np.eye(3), 3)),
        ("rank-one", repeated_flow(three, potential, KernelMatrix.uniform(3).rows, 3)),
        ("horizon-0", repeated_flow(three, potential, np.eye(3), 0)),
        ("horizon-200", bounded_regime_flow(200, dim=8)),
    ])
