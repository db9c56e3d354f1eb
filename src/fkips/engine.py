"""Generic N-particle selection/mutation simulator.

Each step first selects: particle i is kept in place with probability
``eps * G(x_i)`` and otherwise redrawn from the G-weighted empirical measure
of the whole ensemble; then mutates: every particle takes one independent
kernel draw.  The running product of pre-selection mean potentials is an
unbiased estimator of the unnormalized flow mass and is accumulated in log
space.

One loop per kind of state space simulates this transition, driven by a
private step rule that picks each step's potential, keep probability and
kernel.  :func:`run_ips` moves N particle states and takes any flow,
including sampler callables on general spaces; it is also the reference
the count engine is tested against.  :func:`run_counts` serves finite
flows: it steps the per-state occupation counts, which carry the same law,
for a whole block of replicates per numpy call.  Its moves cost O(d^2) per
replicate and step whatever N is when N >= d^2, and O(N log d), one draw
per particle, below that.  The adaptive scheme (:mod:`fkips.adaptive`)
runs in both loops with its own rule.

Randomness is counter-based: every (seed, index, step, purpose) tuple keys a
disjoint Philox stream, where the index is the replicate for
:func:`run_ips` and the block of :data:`BLOCK` replicates for
:func:`run_counts`.  All draws are vectorized reads from those streams, so a
replicate's trajectory depends only on the seed and its replicate number,
never on the replicate count, the order of work or any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ExtinctionError, InputError
from .measures import BoundedFunction, FiniteDistribution, KernelMatrix, PotentialVector

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


def substream(seed: int, replicate: int, step: int, purpose: int) -> np.random.Generator:
    """Dedicated Philox stream for one (replicate, step, purpose) slot."""
    bit_gen = np.random.Philox(key=_key(seed), counter=_counter(replicate, step, purpose))
    return np.random.Generator(bit_gen)


class _SlotStream:
    """One generator moved to any (index, step, purpose) slot of a seed by
    setting its Philox state: the draws equal :func:`substream`'s for that
    slot, without building a new bit generator per slot."""

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
class ParticleEnsemble:
    """N particle states plus the running log of the mass estimator.

    ``seed``/``replicate``/``step`` are the RNG lineage: all randomness of
    the next transition is a pure function of them.
    """

    states: np.ndarray
    step: int
    log_gamma1: float
    seed: int
    replicate: int = 0

    def __post_init__(self):
        states = np.asarray(self.states)
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def histogram(self, dim: int) -> FiniteDistribution:
        """Occupation measure on a finite space of the given dimension."""
        counts = np.bincount(np.asarray(self.states, dtype=np.int64), minlength=dim)
        return FiniteDistribution(counts / self.size)


class SelectionOutcome:
    """Post-selection ensemble plus the step's selection diagnostics."""

    __slots__ = ("ensemble", "mean_potential", "kept_fraction", "ess")

    def __init__(self, ensemble, mean_potential, kept_fraction, ess):
        self.ensemble = ensemble
        self.mean_potential = mean_potential
        self.kept_fraction = kept_fraction
        self.ess = ess


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    mean_potential: float
    kept_fraction: float
    ess: float
    log_gamma1: float


def _potential_values(potential, states: np.ndarray) -> np.ndarray:
    if isinstance(potential, PotentialVector):
        return potential.values[np.asarray(states, dtype=np.int64)]
    if callable(potential):
        vals = np.asarray(potential(states), dtype=np.float64)
        if vals.shape != (states.shape[0],):
            raise InputError("potential evaluator must return one value per particle")
        return vals
    raise InputError("potential must be a PotentialVector or a callable")


def _function_values(f, states: np.ndarray) -> np.ndarray:
    if isinstance(f, BoundedFunction):
        return f.values[np.asarray(states, dtype=np.int64)]
    if isinstance(f, np.ndarray):
        return f[np.asarray(states, dtype=np.int64)]
    if callable(f):
        return np.asarray(f(states), dtype=np.float64)
    raise InputError("test function must be a BoundedFunction, table or callable")


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1)


def init_ensemble(eta0, n_particles: int, seed: int, replicate: int = 0) -> ParticleEnsemble:
    """N independent draws from the initial law; the mass estimator starts at 1."""
    if n_particles < 1:
        raise InputError("population size must be >= 1")
    rng = substream(seed, replicate, 0, Purpose.INIT)
    if isinstance(eta0, FiniteDistribution):
        cdf = np.cumsum(eta0.weights)
        states = _inverse_cdf(cdf, rng.random(n_particles)).astype(np.int64)
    elif callable(eta0):
        states = np.asarray(eta0(n_particles, rng))
        if states.shape[0] != n_particles:
            raise InputError("initial sampler must return one state per particle")
    else:
        raise InputError("eta0 must be a FiniteDistribution or a sampler callable")
    return ParticleEnsemble(
        states=states, step=0, log_gamma1=0.0, seed=seed, replicate=replicate
    )


def selection_step(ens: ParticleEnsemble, potential, eps: float) -> SelectionOutcome:
    """Keep-or-recycle transition driven by the potential.

    ``eps`` scales the keep probability; it must satisfy
    ``eps * max_i G(x_i) <= 1`` on the current ensemble.  ``eps = 0`` is the
    pure multinomial baseline (every particle redrawn).  The mass estimator
    is advanced by the pre-selection mean potential.
    """
    gv = _potential_values(potential, ens.states)
    if np.any(gv < 0):
        raise InputError("selection potential must be non-negative")
    total = gv.sum()
    if total <= 0:
        raise ExtinctionError(ens.step)
    if eps < 0:
        raise InputError("eps must be >= 0")
    if eps * gv.max() > 1.0 + 1e-12:
        raise InputError("eps * max potential exceeds 1 on this ensemble")
    mean_g = float(gv.mean())
    weights = gv / total
    ess = float(1.0 / np.square(weights).sum())

    next_step = ens.step + 1
    keep_u = substream(ens.seed, ens.replicate, next_step, Purpose.KEEP).random(ens.size)
    res_u = substream(ens.seed, ens.replicate, next_step, Purpose.RESAMPLE).random(ens.size)
    kept = keep_u < eps * gv
    cdf = np.cumsum(weights)
    drawn = _inverse_cdf(cdf, res_u)
    new_states = np.where(kept, ens.states, ens.states[drawn])
    out = ParticleEnsemble(
        states=new_states,
        step=ens.step,
        log_gamma1=ens.log_gamma1 + float(np.log(mean_g)),
        seed=ens.seed,
        replicate=ens.replicate,
    )
    return SelectionOutcome(out, mean_g, float(kept.mean()), ess)


def mutation_step(ens: ParticleEnsemble, kernel) -> ParticleEnsemble:
    """Move every particle by one independent kernel draw; advances the step."""
    next_step = ens.step + 1
    rng = substream(ens.seed, ens.replicate, next_step, Purpose.MUTATE)
    if isinstance(kernel, KernelMatrix):
        states = np.asarray(ens.states, dtype=np.int64)
        cdfs = np.cumsum(kernel.rows, axis=1)[states]
        u = rng.random(ens.size)
        new_states = np.minimum(
            (u[:, None] >= cdfs).sum(axis=1), kernel.dim - 1
        ).astype(np.int64)
    elif callable(kernel):
        new_states = np.asarray(kernel(ens.states, rng))
        if new_states.shape[0] != ens.size:
            raise InputError("kernel sampler must return one state per particle")
    else:
        raise InputError("kernel must be a KernelMatrix or a sampler callable")
    return ParticleEnsemble(
        states=new_states,
        step=next_step,
        log_gamma1=ens.log_gamma1,
        seed=ens.seed,
        replicate=ens.replicate,
    )


def estimate(ens: ParticleEnsemble, f) -> float:
    """Empirical mean of a test function over the ensemble."""
    return float(_function_values(f, ens.states).mean())


def resolve_eps(mode, gv_max: float) -> float:
    """Translate an eps policy into a per-step value.

    ``"auto"`` keeps with maximal probability (eps = 1/max G on the current
    ensemble), ``"multinomial"`` always resamples, a float is used as given.
    """
    if mode == "auto":
        if gv_max <= 0:
            return 0.0
        return 1.0 / gv_max
    if mode == "multinomial":
        return 0.0
    return float(mode)


@dataclass(frozen=True)
class IpsRun:
    """Full trajectory: per-step ensembles and diagnostics."""

    ensembles: tuple
    diagnostics: tuple

    @property
    def final(self) -> ParticleEnsemble:
        return self.ensembles[-1]

    def gamma1(self, n: int) -> float:
        return float(np.exp(self.ensembles[n].log_gamma1))


def _schedule(spec, horizon, eps):
    """The first ``horizon`` (potential, kernel) steps and their eps policies."""
    steps = list(spec.steps)
    horizon = len(steps) if horizon is None else int(horizon)
    if not 0 <= horizon <= len(steps):
        raise InputError("horizon out of range")
    eps_schedule = list(eps) if isinstance(eps, (list, tuple)) else [eps] * horizon
    if len(eps_schedule) != horizon:
        raise InputError("eps schedule length mismatch")
    return steps[:horizon], eps_schedule


def run_ips(
    spec,
    n_particles: int,
    seed: int,
    *,
    horizon: int | None = None,
    eps: object = "auto",
    replicate: int = 0,
) -> IpsRun:
    """Simulate the particle approximation of a flow.

    ``spec`` is a finite :class:`~fkips.flow.FlowSpec` or any object exposing
    ``initial`` (law or sampler), ``steps`` (iterable of (potential, kernel)
    pairs) and ``horizon``.  ``eps`` is an eps policy (see
    :func:`resolve_eps`) or a per-step sequence of policies.
    """
    steps, eps_schedule = _schedule(spec, horizon, eps)

    def rule(n, ens):
        potential, kernel = steps[n]
        gv_max = float(_potential_values(potential, ens.states).max())
        return potential, resolve_eps(eps_schedule[n], gv_max), kernel

    ens = init_ensemble(spec.initial, n_particles, seed, replicate)
    return IpsRun(*_particle_loop(ens, len(steps), rule))


def _particle_loop(ens, horizon, rule):
    """Select and mutate ``ens`` for ``horizon`` steps by the (potential, eps,
    kernel) that ``rule(n, ens)`` returns; gives the ensembles and diagnostics."""
    ensembles, diagnostics = [ens], []
    for n in range(horizon):
        potential, eps_n, kernel = rule(n, ens)
        outcome = selection_step(ens, potential, eps_n)
        ens = mutation_step(outcome.ensemble, kernel)
        ensembles.append(ens)
        diagnostics.append(StepDiagnostics(
            step=n + 1, mean_potential=outcome.mean_potential, kept_fraction=outcome.kept_fraction,
            ess=outcome.ess, log_gamma1=ens.log_gamma1,
        ))
    return tuple(ensembles), tuple(diagnostics)


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
    spec,
    n_particles: int,
    seed: int,
    *,
    replicates: int = 1,
    horizon: int | None = None,
    eps: object = "auto",
) -> CountRun:
    """Simulate R replicates of the particle approximation of a finite flow
    through their per-state occupation counts.

    On a finite space the transition of :func:`run_ips` depends on the
    particles only through their counts c, so one step draws, exactly in
    law: the kept particles ``Binomial(c_x, eps G(x))`` per state, the
    ``N - sum K`` redraws ``Multinomial(N - sum K, c G / sum c G)`` and the
    moves ``sum_x Multinomial(c'_x, M(x, .))``.  The moves are drawn that
    way, at O(d^2) per replicate and step whatever N is, when N >= d^2, and
    as one inverse-CDF draw per particle, at O(N log d), when N < d^2 (see
    :func:`_transition`); the rule reads only N and d, so a config always
    takes the same path.  ``eps`` is as in :func:`run_ips`; ``auto`` is
    resolved per replicate.

    Replicates are drawn in blocks of :data:`BLOCK` rows: each step of block
    ``b = r // BLOCK`` makes one numpy call per purpose, reading the
    (seed, b, step, purpose) slot.  numpy fills the rows of a call in
    replicate order, so a partial last block draws exactly the leading rows
    of a full one: replicate r depends on (seed, r) only, not on R nor on
    the order in which blocks run.  The draws differ from :func:`run_ips`'s,
    so the two engines agree in law, not draw for draw.
    """
    plan = _classic_plan(spec, n_particles, replicates, horizon, eps)
    return _run_blocks(*plan, n_particles, seed)


def _classic_plan(spec, n_particles, replicates, horizon, eps):
    """The empty run, initial weights and step rule of :func:`run_counts`."""
    finite = isinstance(spec.initial, FiniteDistribution) and all(
        isinstance(g, PotentialVector) and isinstance(m, KernelMatrix) for g, m in spec.steps
    )
    if not finite:
        raise InputError("the count engine needs a finite flow; run_ips takes samplers")
    steps, eps_schedule = _schedule(spec, horizon, eps)
    run = CountRun._allocate(n_particles, replicates, len(steps), spec.initial.dim)

    def rule(n, rows, c):
        potential, kernel = steps[n]
        g, occupied = potential.values, c > 0
        if np.any(occupied & (g < 0)):
            raise InputError("selection potential must be non-negative")
        g_max = np.where(occupied, g, -np.inf).max(axis=1)
        if np.any(g_max <= 0):   # every occupied state has G = 0
            raise ExtinctionError(n)
        mode = eps_schedule[n]
        # only "auto" depends on the ensemble; the other policies are constants
        eps_n = 1.0 / g_max if mode == "auto" else np.full(len(c), resolve_eps(mode, 0.0))
        if np.any(eps_n < 0):
            raise InputError("eps must be >= 0")
        if np.any(eps_n * g_max > 1.0 + 1e-12):
            raise InputError("eps * max potential exceeds 1 on this ensemble")
        return g, np.clip(eps_n[:, None] * g, 0.0, 1.0), kernel.rows

    return run, spec.initial.weights, rule


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
