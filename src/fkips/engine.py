"""The N-particle selection/mutation system on finite state spaces.

Each step first selects: particle i is kept in place with probability
``eps * G(x_i)`` and otherwise redrawn from the G-weighted empirical measure
of the whole ensemble; then mutates: every particle takes one independent
kernel draw.  The running product of pre-selection mean potentials is an
unbiased estimator of the unnormalized flow mass and is accumulated in log
space.

On a finite space this transition depends on the particles only through
their per-state occupation counts, so :func:`run_counts` steps the counts
of a whole block of replicates per numpy call.  Its moves cost O(d^2) per
replicate and step whatever N is when N >= d^2, and O(N log d), one draw
per particle, below that.  One loop, :func:`_count_block`, simulates the
transition, driven by a step rule that picks each step's potential, keep
probability and kernel: the classic rule here, the adaptive one in
:mod:`fkips.adaptive`.

Randomness is counter-based: every (seed, block, step, purpose) tuple keys a
disjoint Philox stream, where the block holds :data:`BLOCK` replicates.
All draws are vectorized reads from those streams, so a replicate's
trajectory depends only on the seed and its replicate number, never on the
replicate count, the order of work or any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InputError
from .flow import FlowSpec

# Fixed second key word; the user seed fills the first.
_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)


class Purpose(IntEnum):
    INIT = 0
    KEEP = 1
    RESAMPLE = 2
    MUTATE = 3


def _key(seed: int) -> np.ndarray:
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), _KEY_SALT], dtype=np.uint64)


def _counter(index: int, step: int, purpose: int) -> np.ndarray:
    return np.array(
        [0, index & 0xFFFFFFFFFFFFFFFF, step & 0xFFFFFFFFFFFFFFFF, int(purpose)],
        dtype=np.uint64,
    )


class _SlotStream:
    """One generator moved to any (index, step, purpose) slot of a seed by
    setting its Philox state, without building a new bit generator per
    slot: the draws equal those of a fresh Philox generator keyed by
    ``_key(seed)`` at counter ``_counter(index, step, purpose)``, the
    reference ``substream`` in ``tests/oracles.py``."""

    def __init__(self, seed: int):
        self._key = _key(seed)
        self._bit_gen = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bit_gen)

    def at(self, index: int, step: int, purpose: int) -> np.random.Generator:
        self._bit_gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": _counter(index, step, purpose), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng


@dataclass(frozen=True, eq=False)
class CountRun:
    """Occupation counts of R replicates of a finite flow and their per-step
    diagnostics; every array has the replicate axis first."""

    counts: np.ndarray          # (R, T+1, d), every row sums to N
    mean_potential: np.ndarray  # (R, T), pre-selection mean potential of steps 1..T
    kept_fraction: np.ndarray   # (R, T)
    ess: np.ndarray             # (R, T), (sum c G)^2 / sum c G^2
    log_gamma1: np.ndarray      # (R, T+1), log mass estimates of steps 0..T

    @property
    def histograms(self) -> np.ndarray:
        """Occupation measures eta^N_0 .. eta^N_T of every replicate."""
        return self.counts / self.counts[0, 0].sum()

    @classmethod
    def _allocate(cls, n_particles, replicates, horizon, dim, **records):
        """Rows for :func:`_count_block` to fill, plus a subclass's ``records``."""
        if n_particles < 1:
            raise InputError("population size must be >= 1")
        if replicates < 1:
            raise InputError("replicates must be >= 1")
        shape = (replicates, horizon)
        return cls(
            counts=np.empty((replicates, horizon + 1, dim), dtype=np.int64),
            mean_potential=np.empty(shape), kept_fraction=np.empty(shape), ess=np.empty(shape),
            log_gamma1=np.zeros((replicates, horizon + 1)), **records,
        )


# Replicates drawn per numpy call.  Replicate r reads the slots of block
# r // BLOCK, so a new value would change the draws of every replicate past
# the first block: it is part of the stream contract, not an option.
BLOCK = 128


def run_counts(
    spec: FlowSpec,
    n_particles: int,
    seed: int,
    *,
    replicates: int = 1,
    horizon: int | None = None,
    eps: object = "auto",
) -> CountRun:
    """Simulate R replicates of the particle approximation of a finite flow
    through their per-state occupation counts.

    Every particle selects and moves on its own given the counts c, so one
    step draws, exactly in law: the kept particles ``Binomial(c_x, eps G(x))``
    per state, the ``N - sum K`` redraws ``Multinomial(N - sum K, c G / sum c G)``
    and the moves ``sum_x Multinomial(c'_x, M(x, .))``.  The moves are drawn
    that way, at O(d^2) per replicate and step whatever N is, when N >= d^2,
    and as one inverse-CDF draw per particle, at O(N log d), when N < d^2
    (see :func:`_transition`); the rule reads only N and d, so a config
    always takes the same path.  ``eps`` is ``"auto"`` (eps = 1 / max G over
    each replicate's occupied states, the largest admissible keep),
    ``"multinomial"`` (eps = 0, every particle redrawn) or a number used at
    every step.

    Replicates are drawn in blocks of :data:`BLOCK` rows: each step of block
    ``b = r // BLOCK`` makes one numpy call per purpose, reading the
    (seed, b, step, purpose) slot.  numpy fills the rows of a call in
    replicate order, so a partial last block draws exactly the leading rows
    of a full one: replicate r depends on (seed, r) only, not on R nor on
    the order in which blocks run.
    """
    plan = _classic_plan(spec, n_particles, replicates, horizon, eps)
    return _run_blocks(*plan, n_particles, seed)


def _classic_plan(spec, n_particles, replicates, horizon, eps):
    """The empty run, initial weights and step rule of :func:`run_counts`."""
    if not isinstance(spec, FlowSpec):
        raise InputError("the count engine needs a FlowSpec")
    horizon = spec.horizon if horizon is None else int(horizon)
    if not 0 <= horizon <= spec.horizon:
        raise InputError("horizon out of range")
    run = CountRun._allocate(n_particles, replicates, horizon, spec.dim)
    # only "auto" depends on the ensemble; the other policies are constants
    try:
        eps_fixed = None if eps == "auto" else 0.0 if eps == "multinomial" else float(eps)
    except (TypeError, ValueError):
        raise InputError(f"eps must be 'auto', 'multinomial' or a number, got {eps!r}") from None
    if eps_fixed is not None and eps_fixed < 0:
        raise InputError("eps must be >= 0")

    def rule(n, rows, c):
        # a flow's potentials are > 0, so every ensemble has g_max > 0 and
        # none goes extinct
        g = spec.potentials[n]
        g_max = np.where(c > 0, g, -np.inf).max(axis=1)
        eps_n = 1.0 / g_max if eps_fixed is None else np.full(len(c), eps_fixed)
        if np.any(eps_n * g_max > 1.0 + 1e-12):
            raise InputError("eps * max potential exceeds 1 on this ensemble")
        return g, np.clip(eps_n[:, None] * g, 0.0, 1.0), spec.kernels[n]

    return run, spec.initial, rule


def _run_blocks(run, initial, rule, n_particles, seed):
    """Fill every block of ``run`` in place, in block order; returns ``run``."""
    streams = _SlotStream(seed)
    for block in range(-(-run.counts.shape[0] // BLOCK)):
        _count_block(run, block, initial, rule, n_particles, streams)
    return run


def _count_block(run, block, initial, rule, n_particles, streams):
    """Fill the rows of ``block`` in ``run`` in place: step n keeps, redraws
    and moves the (k, d) counts ``c`` by the (potential, keep probability,
    kernel rows) that ``rule(n, rows, c)`` returns.  Every per-replicate
    value is an elementwise or a per-row reduction of that replicate's own
    data, so it does not depend on the block's size."""
    rows = slice(block * BLOCK, min(run.counts.shape[0], (block + 1) * BLOCK))
    counts = run.counts[rows]
    counts[:, 0] = streams.at(block, 0, Purpose.INIT).multinomial(
        n_particles, initial, size=counts.shape[0]
    )
    for n in range(run.mean_potential.shape[1]):
        c = counts[:, n]
        g, keep_p, kernel_rows = rule(n, rows, c)
        weights = c * g
        counts[:, n + 1], n_kept = _transition(
            streams, block, n + 1, c, keep_p, weights, kernel_rows, n_particles
        )
        total = weights.sum(axis=1)
        mean_g = total / n_particles
        run.mean_potential[rows, n] = mean_g
        run.kept_fraction[rows, n] = n_kept / n_particles
        run.ess[rows, n] = total * total / (weights * g).sum(axis=1)
        run.log_gamma1[rows, n + 1] = run.log_gamma1[rows, n] + np.log(mean_g)


def _transition(streams, block, step, counts, keep_p, weights, kernel_rows, n_particles):
    """Keep, redraw and move the (k, d) count rows of ``block`` into ``step``.

    Row r keeps ``Binomial(c_x, keep_p[r, x])`` particles per state, redraws
    the rest as one ``Multinomial`` over ``weights[r]`` (c times G) and moves
    every particle by ``kernel_rows``, one (d, d) kernel for the block or a
    (k, d, d) stack of one kernel per row.  Moves are one
    ``Multinomial(c'_x, M(x, .))`` per state, O(d^2) per row whatever N is,
    when N >= d^2, and one inverse-CDF draw per particle
    (:func:`_move_particles`), O(N log d) per row, below that.  Returns the
    next counts and the kept count of every row.
    """
    kept = streams.at(block, step, Purpose.KEEP).binomial(counts, keep_p)
    n_kept = kept.sum(axis=1)
    redrawn = streams.at(block, step, Purpose.RESAMPLE).multinomial(
        n_particles - n_kept, weights / weights.sum(axis=1, keepdims=True)
    )
    movers, mutate = kept + redrawn, streams.at(block, step, Purpose.MUTATE)
    if n_particles < movers.shape[1] ** 2:
        return _move_particles(mutate, movers, kernel_rows), n_kept
    return mutate.multinomial(movers, kernel_rows).sum(axis=1), n_kept


def _move_particles(rng, movers, kernel_rows):
    """Move the (k, d) count rows ``movers`` one particle at a time by
    ``kernel_rows``, one (d, d) kernel or a (k, d, d) stack, and count where
    they land.

    Particles are taken in (row, state) order and each reads one uniform, so
    a row of N particles reads the next N uniforms and a partial block draws
    the leading rows of a full one.  Each destination is an inverse-CDF
    search of the particle's cumulative kernel row by binary halving, at
    O(log d) per particle and O(kN) temporaries.  Every entry of that row
    from the first one equal to its total on is +inf: a zero-probability
    state repeats the previous cumulative value and is never landed on, and
    a uniform at or above a total rounded below 1 lands on the last state of
    positive probability.
    """
    k, d = movers.shape
    width = 1 << (d - 1).bit_length()   # a power of two >= d, halved by the search
    cdf = np.cumsum(kernel_rows, axis=-1)
    table = np.full(cdf.shape[:-1] + (width,), np.inf)
    np.copyto(table[..., :d], cdf, where=cdf < cdf[..., -1:])
    table = table.reshape(-1)
    # int32 positions index the table about twice as fast as int64 ones
    index = np.int32 if table.size <= np.iinfo(np.int32).max else np.int64
    cells = np.arange(k * d, dtype=index)   # row * d + state
    state = cells % d
    start = (cells if kernel_rows.ndim == 3 else state) * index(width)
    # the search leaves pos = start + count, so pos - shift is the landing
    # cell row * d + count
    shift = np.repeat(start - (cells - state), movers.reshape(-1))
    pos = np.repeat(start, movers.reshape(-1))
    u = rng.random(pos.size)
    half = width >> 1
    while half:
        pos += (table[pos + index(half - 1)] <= u) * index(half)
        half >>= 1
    return np.bincount(pos - shift, minlength=k * d).reshape(k, d)
