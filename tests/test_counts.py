"""Occupation-count engine: equal in law to the exact finite-N law of the
particle system and to the exact flow, and the block-level stream contract
that makes a replicate's row a function of (seed, replicate) only."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fkips.adaptive import AdaptiveConfig, _adaptive_plan
from fkips.engine import (
    BLOCK,
    Purpose,
    _classic_plan,
    _count_block,
    _move_particles,
    _run_blocks,
    _SlotStream,
    run_counts,
)
from fkips.errors import InputError
from fkips.flow import FlowSpec
from fkips.measures import KernelMatrix, law, normalized_law, uniform_law

from .instances import adaptive_problem, repeated_flow
from .oracles import (
    composition_index,
    lattice_law,
    pooled_chisquare,
    random_kernel_rows,
    substream,
)

U64 = st.integers(0, 2**64 - 1)


def rotating_flow(horizon=4):
    """Three states whose fittest state moves every step, so selection
    shapes every law along the way."""
    pots = ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0])
    return FlowSpec(
        law([0.5, 0.3, 0.2]),
        [pots[n % 3] for n in range(horizon)],
        np.broadcast_to(KernelMatrix.lazy_ring(3, 0.6).rows, (horizon, 3, 3)),
    )


def ring_flow(dim, horizon=4):
    """``dim`` states on a lazy ring, so every kernel row is zero off three
    entries, whose fittest state moves every step."""
    ramp = 1.0 + 2.0 * np.arange(dim) / (dim - 1)
    return FlowSpec(
        normalized_law(ramp[::-1]),
        [np.roll(ramp, n) for n in range(horizon)],
        np.broadcast_to(KernelMatrix.lazy_ring(dim, 0.6).rows, (horizon, dim, dim)),
    )


class TestLawAgainstLatticeOracle:
    """The counts at every step against the exact law of the N-particle
    system (:func:`~tests.oracles.lattice_law`), on both move paths: N = 8
    below d^2 = 9, where each particle draws its own move, and N = 12 above."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _law(eps, n_particles):
        return lattice_law(rotating_flow(), n_particles, eps)

    @pytest.mark.parametrize("n_particles", [8, 12], ids=["N8", "N12"])
    @pytest.mark.parametrize("eps", ["auto", "multinomial", 0.2])
    def test_counts_at_every_step(self, eps, n_particles):
        # each step's counts against pi_n, then the pair (c_1, c_2) against
        # pi_1(c) P_2(c, c')
        spec, reps = rotating_flow(), 20_000
        states, laws, steps, _ = self._law(eps, n_particles)
        run = run_counts(spec, n_particles, seed=32, replicates=reps, eps=eps)
        index = [composition_index(states, run.counts[:, n]) for n in range(len(laws))]
        for n, law in enumerate(laws):
            cells = np.bincount(index[n], minlength=len(states))
            assert pooled_chisquare(cells, law) > 1e-3, n
        pairs = np.bincount(index[1] * len(states) + index[2], minlength=len(states) ** 2)
        assert pooled_chisquare(pairs, (laws[1][:, None] * steps[1]).ravel()) > 1e-3

    @pytest.mark.parametrize("n_particles", [8, 12], ids=["N8", "N12"])
    @pytest.mark.parametrize("eps", ["auto", "multinomial", 0.2])
    def test_exact_mass_is_unbiased(self, eps, n_particles):
        # E[gamma^N_T] summed over the lattice law is the flow's mass
        spec = rotating_flow()
        mass = self._law(eps, n_particles)[3]
        assert mass == pytest.approx(spec.trace.gamma1[spec.horizon], rel=1e-12)


class TestLawAgainstExactOracle:
    # Population sizes at or above d^2, where moves are one multinomial per
    # occupied state; the subclass below reruns every test below d^2.
    histogram_case = staticmethod(lambda: (rotating_flow(), 100_000))
    mass_particles = 50
    constant_particles = 64
    two_state_particles = 10

    def test_mean_histogram_matches_eta(self):
        # the O(1/N) bias of eta^N sits far below the standard error at this N
        (spec, n_particles), reps = self.histogram_case(), 1000
        hists = run_counts(spec, n_particles, seed=33, replicates=reps).histograms
        for n, eta in enumerate(spec.trace.etas):
            se = hists[:, n].std(axis=0, ddof=1) / math.sqrt(reps)
            z = np.abs(hists[:, n].mean(axis=0) - eta) / se
            assert np.all(z <= 4.0), (n, z)

    @pytest.mark.parametrize("eps", ["auto", "multinomial"])
    def test_mass_estimator_unbiased(self, eps):
        spec, reps = rotating_flow(), 4000
        gammas = np.exp(
            run_counts(spec, self.mass_particles, seed=34, replicates=reps, eps=eps).log_gamma1
        )
        for n in range(1, spec.horizon + 1):
            se = gammas[:, n].std(ddof=1) / math.sqrt(reps)
            assert abs(gammas[:, n].mean() - spec.trace.gamma1[n]) <= 4 * se, n

    def test_constant_potential_mass_is_deterministic(self):
        spec = repeated_flow(
            uniform_law(2), np.full(2, 2.5), KernelMatrix.uniform(2).rows, 3
        )
        run = run_counts(spec, self.constant_particles, seed=13, replicates=3)
        assert np.allclose(run.log_gamma1[:, 3], 3 * math.log(2.5), rtol=1e-12)
        assert np.all(run.kept_fraction == 1.0)
        assert np.allclose(run.ess, self.constant_particles)

    def test_two_state_transition_law(self):
        # N particles from (1/2, 1/2), weights (1, 3), eps = 1/3: a state-1
        # particle is always kept, a state-0 particle is recycled with
        # probability 2/3 into the pool (c0, 3 c1) / (c0 + 3 c1), then every
        # particle moves by M.  The exact law of the final state-1 count is
        # enumerated and compared by a chi-square test over 10^4 replicates.
        n_particles, reps = self.two_state_particles, 10_000
        kernel = np.array([[0.8, 0.2], [0.4, 0.6]])
        spec = FlowSpec(uniform_law(2), [[1.0, 3.0]], [kernel])
        pmf = np.zeros(n_particles + 1)
        for c1 in range(n_particles + 1):
            c0 = n_particles - c1
            q = (2.0 / 3.0) * 3 * c1 / (c0 + 3 * c1)
            for moved in range(c0 + 1):
                s1 = c1 + moved
                w = stats.binom.pmf(c1, n_particles, 0.5) * stats.binom.pmf(moved, c0, q)
                from0 = stats.binom.pmf(np.arange(n_particles - s1 + 1), n_particles - s1, 0.2)
                from1 = stats.binom.pmf(np.arange(s1 + 1), s1, 0.6)
                pmf += w * np.convolve(from0, from1)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        run = run_counts(spec, n_particles, seed=77, eps=1.0 / 3.0, replicates=reps)
        finals = run.counts[:, 1, 1]
        expected = reps * pmf
        assert expected.min() >= 5.0   # every cell fit for the chi-square
        observed = np.bincount(finals, minlength=n_particles + 1)
        assert stats.chisquare(observed, expected).pvalue > 1e-3



class TestLawAgainstExactOraclePerParticle(TestLawAgainstExactOracle):
    """The same laws at N < d^2, where every particle draws its own move."""

    histogram_case = staticmethod(lambda: (ring_flow(32), 1000))
    mass_particles = 8
    constant_particles = 3
    two_state_particles = 3


def _two_sample(a, b):
    """p-value of a chi-square test that two count samples share a law,
    over the cells either sample reaches."""
    table = np.array([a, b])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


# Fixed movers of six rows of N = 12 < d^2 particles on d = 5 states.
MOVERS = np.array([
    [3, 0, 5, 2, 2], [12, 0, 0, 0, 0], [0, 0, 0, 0, 12],
    [1, 2, 3, 4, 2], [0, 6, 0, 6, 0], [2, 2, 2, 2, 4],
])


class TestPerParticleMoves:
    @pytest.mark.parametrize("stacked", [False, True], ids=["kernel", "stack"])
    def test_two_sample_against_multinomial_moves(self, stacked):
        # 4000 draws of the fixed movers by each sampler, as rows of one
        # call: the landed totals per (row, state) and the law of one cell
        rng, reps = np.random.default_rng(8), 4000
        k, d = MOVERS.shape
        if stacked:
            kernel = np.stack([random_kernel_rows(rng, d) for _ in range(k)])
            kernels = np.tile(kernel, (reps, 1, 1))
        else:
            kernel = kernels = random_kernel_rows(rng, d)
        movers = np.tile(MOVERS, (reps, 1))
        multi = substream(1, 0, 1, Purpose.MUTATE).multinomial(movers, kernels).sum(axis=1)
        each = _move_particles(substream(2, 0, 1, Purpose.MUTATE), movers, kernels)
        assert np.array_equal(each.sum(axis=1), movers.sum(axis=1))
        multi, each = multi.reshape(reps, k, d), each.reshape(reps, k, d)
        assert _two_sample(multi.sum(axis=0).ravel(), each.sum(axis=0).ravel()) > 1e-3
        for row, state in ((0, 2), (3, 4)):
            cell = [np.bincount(x[:, row, state], minlength=13) for x in (multi, each)]
            assert _two_sample(*cell) > 1e-3

    @pytest.mark.parametrize("stacked", [False, True], ids=["kernel", "stack"])
    def test_no_particle_lands_on_a_zero_probability_state(self, stacked):
        # BLOCK rows of 1000 particles, every row on one source state
        kernel = np.array([
            [0.0, 0.5, 0.0, 0.5, 0.0],
            [0.2, 0.0, 0.8, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.3, 0.3, 0.0, 0.4, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ])
        sources = np.arange(BLOCK) % 5
        movers = 1000 * np.eye(5, dtype=np.int64)[sources]
        kernels = kernel[sources][:, None, :].repeat(5, axis=1) if stacked else kernel
        landed = _move_particles(substream(9, 0, 1, Purpose.MUTATE), movers, kernels)
        assert landed.sum() >= 10**5 and np.all(landed.sum(axis=1) == 1000)
        assert np.all(landed[kernel[sources] == 0] == 0)
        for x in (0, 1, 3):   # the rows with more than one live entry
            got = landed[sources == x].sum(axis=0)
            live = kernel[x] > 0
            assert stats.chisquare(got[live], got.sum() * kernel[x, live]).pvalue > 1e-3

    def test_uniforms_at_the_ends_land_on_positive_states(self):
        # a total rounded below the largest uniform lands on the last
        # positive state, not on the zero tail; u = 0 skips a zero head
        class Ends:
            def random(self, size):
                return np.resize([0.0, np.nextafter(1.0, 0.0)], size)

        kernel = np.array([
            [0.0, 0.25, 0.75 - 2.0**-52, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ])
        landed = _move_particles(Ends(), 2 * np.eye(4, dtype=np.int64), kernel)
        assert np.array_equal(landed, [[0, 1, 1, 0], [0, 0, 1, 1], [0, 2, 0, 0], [1, 0, 0, 1]])


def _fields(run):
    """Every per-replicate array of a count run, a subclass's records included."""
    values = (getattr(run, f.name) for f in dataclasses.fields(run))
    return tuple(v for v in values if isinstance(v, np.ndarray))


def _same_rows(run, other, rows):
    return all(np.array_equal(a[rows], b[rows]) for a, b in zip(_fields(run), _fields(other)))


# The block draws of one step, each reading a slot as run_counts does:
# rows of counts and probabilities in, one row of draws per replicate out.
_BLOCK_DRAWS = {
    "init": lambda g, c, p, m: g.multinomial(int(c[0, 0]) + 1, p[0] / p[0].sum(), size=len(c)),
    "keep": lambda g, c, p, m: g.binomial(c, p),
    "redraw": lambda g, c, p, m: g.multinomial(c.sum(axis=1), p / p.sum(axis=1, keepdims=True)),
    "move": lambda g, c, p, m: g.multinomial(c, m),
    "move-particles": lambda g, c, p, m: _move_particles(g, c, m),
    "move-particles-stack": lambda g, c, p, m: _move_particles(
        g, c, np.broadcast_to(m, (len(c),) + m.shape)
    ),
}


# Population size of each engine's plan: the "-sparse" plans run at N < d^2
# (d = 3 classic, d = 6 adaptive), where moves are drawn per particle.
_PLAN_PARTICLES = {
    "classic": 200, "adaptive-theoretical": 200, "adaptive-adaptive": 200,
    "classic-sparse": 8, "adaptive-adaptive-sparse": 20,
}


def _plan(engine):
    """The empty run, initial weights and step rule of one count engine:
    three steps and 3 BLOCK + 5 replicates."""
    replicates, n_particles = 3 * BLOCK + 5, _PLAN_PARTICLES[engine]
    if engine.startswith("classic"):
        return _classic_plan(rotating_flow(3), n_particles, replicates, None, "auto")
    mode = engine.split("-")[1]
    cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=2, mutation_mode=mode)
    return _adaptive_plan(adaptive_problem(6), cfg, n_particles, 3, replicates, None)


@functools.lru_cache(maxsize=None)
def _in_block_order(engine):
    return _run_blocks(*_plan(engine), _PLAN_PARTICLES[engine], 5)


class TestStreamContract:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=U64,
        index=U64,
        step=U64,
        purpose=st.sampled_from(list(Purpose)),
        kind=st.sampled_from(["random", *_BLOCK_DRAWS]),
    )
    def test_rekeyed_stream_equals_substream(self, seed, index, step, purpose, kind):
        rng = np.random.default_rng(seed % 1000)
        c, p = rng.integers(0, 60, (5, 4)), rng.random((5, 4))
        m = rng.dirichlet(np.ones(4), size=4)
        draw = (lambda g: g.random(9)) if kind == "random" else (
            lambda g: _BLOCK_DRAWS[kind](g, c, p, m)
        )
        streams = _SlotStream(seed)
        # leave a half-used buffer and a cached 32-bit word behind first
        streams.at(index ^ 1, step, purpose).integers(0, 2**32, 3, dtype=np.uint32)
        got = draw(streams.at(index, step, purpose))
        assert np.array_equal(got, draw(substream(seed, index, step, purpose)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        rows=st.integers(1, BLOCK - 1),
        kind=st.sampled_from(list(_BLOCK_DRAWS)),
    )
    def test_partial_block_draws_the_leading_rows(self, seed, rows, kind):
        # the fact the block contract rests on: numpy fills rows in order
        rng = np.random.default_rng(seed)
        c, p = rng.integers(0, 200, (BLOCK, 6)), rng.random((BLOCK, 6))
        m = rng.dirichlet(np.ones(6), size=6)
        full = _BLOCK_DRAWS[kind](substream(seed, 0, 1, Purpose.KEEP), c, p, m)
        part = _BLOCK_DRAWS[kind](substream(seed, 0, 1, Purpose.KEEP), c[:rows], p[:rows], m)
        assert np.array_equal(full[:rows], part)

    @settings(max_examples=25, deadline=None)
    @given(
        replicate=st.integers(0, 3 * BLOCK),
        extra=st.integers(1, 2 * BLOCK),
        eps=st.sampled_from(["auto", "multinomial", 0.2]),
    )
    def test_row_independent_of_replicate_count(self, replicate, extra, eps):
        spec = rotating_flow(3)
        short = run_counts(spec, 200, seed=5, replicates=replicate + 1, eps=eps)
        long = run_counts(spec, 200, seed=5, replicates=replicate + 1 + extra, eps=eps)
        assert _same_rows(short, long, slice(replicate + 1))

    @pytest.mark.parametrize("engine", list(_PLAN_PARTICLES))
    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_rows_independent_of_replicate_order(self, engine, order):
        # blocks of replicates filled in any order give the same rows, for
        # the classic step rule and the adaptive one in both mutation modes,
        # with multinomial moves and, at N < d^2, per-particle ones
        run, initial, rule = _plan(engine)
        streams = _SlotStream(5)
        for block in order:
            _count_block(run, block, initial, rule, _PLAN_PARTICLES[engine], streams)
        assert _same_rows(_in_block_order(engine), run, slice(None))

    @settings(max_examples=40, deadline=None)
    @given(
        horizon=st.integers(0, 5),
        extra=st.integers(1, 4),
        replicates=st.integers(1, 2 * BLOCK + 1),
        eps=st.sampled_from(["auto", "multinomial", 0.2]),
    )
    def test_prefix_stable_in_horizon(self, horizon, extra, replicates, eps):
        spec = rotating_flow(horizon + extra)
        short = run_counts(spec, 300, seed=6, horizon=horizon, eps=eps, replicates=replicates)
        long = run_counts(
            spec, 300, seed=6, horizon=horizon + extra, eps=eps, replicates=replicates
        )
        assert np.array_equal(short.counts, long.counts[:, : horizon + 1])
        assert np.array_equal(short.log_gamma1, long.log_gamma1[:, : horizon + 1])
        for name in ("mean_potential", "kept_fraction", "ess"):
            assert np.array_equal(getattr(short, name), getattr(long, name)[:, :horizon])


class TestInputs:
    def test_rejects_samplers(self):
        class Sampled:
            initial = staticmethod(lambda n, rng: np.zeros(n))
            steps = ()

        with pytest.raises(InputError):
            run_counts(Sampled(), 10, seed=0)

    def test_rejects_empty_population(self):
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 0, seed=0)
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 10, seed=0, replicates=0)

    def test_rejects_non_numeric_eps_by_name(self):
        message = "eps must be 'auto', 'multinomial' or a number, got 'bogus'"
        with pytest.raises(InputError, match=message):
            run_counts(rotating_flow(), 10, 0, eps="bogus")
        with pytest.raises(InputError, match="eps"):
            run_counts(rotating_flow(), 10, 0, eps=None)

    def test_eps_cap_enforced_on_occupied_states(self):
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 100, seed=0, eps=0.5)
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 100, seed=0, eps=-0.1)
        # max G is taken over occupied states only: state 2 is empty
        spec = FlowSpec(law([0.5, 0.5, 0.0]), [[1.0, 2.0, 4.0]], [np.eye(3)])
        run = run_counts(spec, 100, seed=0, eps=0.5, replicates=BLOCK + 1)
        assert np.all(run.counts[:, 1, 2] == 0)
