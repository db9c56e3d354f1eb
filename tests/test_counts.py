"""Occupation-count engine: equal in law to the particle engine and to the
exact oracle, and the counter-based stream contract the two engines share."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fkips.engine import Purpose, _SlotStream, run_counts, run_ips, substream
from fkips.errors import InputError
from fkips.flow import FlowSpec
from fkips.measures import FiniteDistribution, KernelMatrix, PotentialVector

U64 = st.integers(0, 2**64 - 1)


def rotating_flow(horizon=4):
    """Three states whose fittest state moves every step, so selection
    shapes every law along the way."""
    pots = ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0])
    return FlowSpec(
        FiniteDistribution([0.5, 0.3, 0.2]),
        tuple(
            (PotentialVector(pots[n % 3]), KernelMatrix.lazy_ring(3, 0.6)) for n in range(horizon)
        ),
    )


F = np.array([0.0, 1.0, 2.0])


class TestLawAgainstParticleEngine:
    @pytest.mark.parametrize("eps", ["auto", "multinomial", 0.2])
    def test_two_sample_final_estimate_and_log_mass(self, eps):
        spec, n_particles, reps = rotating_flow(), 50, 400
        ips = [run_ips(spec, n_particles, seed=31, replicate=r, eps=eps) for r in range(reps)]
        cnt = [run_counts(spec, n_particles, seed=32, replicate=r, eps=eps) for r in range(reps)]
        est_ips = [run.final.histogram(3).weights @ F for run in ips]
        est_cnt = [run.histograms[-1] @ F for run in cnt]
        assert stats.ks_2samp(est_ips, est_cnt).pvalue > 1e-3
        gam_ips = [run.final.log_gamma1 for run in ips]
        gam_cnt = [run.log_gamma1[-1] for run in cnt]
        assert stats.ks_2samp(gam_ips, gam_cnt).pvalue > 1e-3
        kept_ips = [np.mean([d.kept_fraction for d in run.diagnostics]) for run in ips]
        kept_cnt = [np.mean([d.kept_fraction for d in run.diagnostics]) for run in cnt]
        assert stats.ks_2samp(kept_ips, kept_cnt).pvalue > 1e-3


class TestLawAgainstExactOracle:
    def test_mean_histogram_matches_eta(self):
        # the O(1/N) bias of eta^N sits far below the standard error at this N
        spec, n_particles, reps = rotating_flow(), 100_000, 1000
        hists = np.array(
            [run_counts(spec, n_particles, seed=33, replicate=r).histograms for r in range(reps)]
        )
        for n, eta in enumerate(spec.trace.etas):
            se = hists[:, n].std(axis=0, ddof=1) / math.sqrt(reps)
            z = np.abs(hists[:, n].mean(axis=0) - eta.weights) / se
            assert np.all(z <= 4.0), (n, z)

    @pytest.mark.parametrize("eps", ["auto", "multinomial"])
    def test_mass_estimator_unbiased(self, eps):
        spec, reps = rotating_flow(), 4000
        gammas = np.exp(
            [run_counts(spec, 50, seed=34, replicate=r, eps=eps).log_gamma1 for r in range(reps)]
        )
        for n in range(1, spec.horizon + 1):
            se = gammas[:, n].std(ddof=1) / math.sqrt(reps)
            assert abs(gammas[:, n].mean() - spec.trace.gamma1[n]) <= 4 * se, n

    def test_constant_potential_mass_is_deterministic(self):
        spec = FlowSpec(
            FiniteDistribution.uniform(2),
            ((PotentialVector.constant(2, 2.5), KernelMatrix.uniform(2)),) * 3,
        )
        run = run_counts(spec, 64, seed=13)
        assert run.log_gamma1[3] == pytest.approx(3 * math.log(2.5), rel=1e-12)
        assert all(d.kept_fraction == 1.0 and d.ess == pytest.approx(64.0) for d in run.diagnostics)

    def test_two_state_transition_law(self):
        # N = 10 from (1/2, 1/2), weights (1, 3), eps = 1/3: a state-1
        # particle is always kept, a state-0 particle is recycled with
        # probability 2/3 into the pool (c0, 3 c1) / (c0 + 3 c1), then every
        # particle moves by M.  The exact law of the final state-1 count is
        # enumerated and compared by a chi-square test over 10^4 replicates.
        n_particles, reps = 10, 10_000
        kernel = np.array([[0.8, 0.2], [0.4, 0.6]])
        spec = FlowSpec(
            FiniteDistribution.uniform(2),
            ((PotentialVector([1.0, 3.0]), KernelMatrix(kernel)),),
        )
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
        finals = [
            run_counts(spec, n_particles, seed=77, eps=1.0 / 3.0, replicate=r).counts[1, 1]
            for r in range(reps)
        ]
        expected = reps * pmf
        assert expected.min() >= 5.0   # every cell fit for the chi-square
        observed = np.bincount(finals, minlength=n_particles + 1)
        assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestStreamContract:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=U64,
        replicate=U64,
        step=U64,
        purpose=st.sampled_from(list(Purpose)),
        kind=st.sampled_from(["random", "binomial", "multinomial"]),
    )
    def test_rekeyed_stream_equals_substream(self, seed, replicate, step, purpose, kind):
        draws = {
            "random": lambda g: g.random(9),
            "binomial": lambda g: g.binomial([0, 3, 50, 1000], [0.5, 0.1, 0.9, 0.37]),
            "multinomial": lambda g: g.multinomial(
                [7, 0, 400], [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.6, 0.3, 0.1]]
            ),
        }[kind]
        streams = _SlotStream(seed)
        # leave a half-used buffer and a cached 32-bit word behind first
        streams.at(replicate ^ 1, step, purpose).integers(0, 2**32, 3, dtype=np.uint32)
        got = draws(streams.at(replicate, step, purpose))
        assert np.array_equal(got, draws(substream(seed, replicate, step, purpose)))

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(range(6)))
    def test_rows_independent_of_replicate_order(self, order):
        spec = rotating_flow(3)
        base = [run_counts(spec, 200, seed=5, replicate=r).counts for r in range(6)]
        shuffled = {r: run_counts(spec, 200, seed=5, replicate=r).counts for r in order}
        assert all(np.array_equal(base[r], shuffled[r]) for r in range(6))

    @settings(max_examples=40, deadline=None)
    @given(
        horizon=st.integers(0, 5),
        extra=st.integers(1, 4),
        replicate=st.integers(0, 1000),
        eps=st.sampled_from(["auto", "multinomial", 0.2]),
    )
    def test_prefix_stable_in_horizon(self, horizon, extra, replicate, eps):
        spec = rotating_flow(horizon + extra)
        short = run_counts(spec, 300, seed=6, horizon=horizon, eps=eps, replicate=replicate)
        long = run_counts(spec, 300, seed=6, horizon=horizon + extra, eps=eps, replicate=replicate)
        assert np.array_equal(short.counts, long.counts[: horizon + 1])
        assert np.array_equal(short.log_gamma1, long.log_gamma1[: horizon + 1])


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

    def test_eps_cap_enforced_on_occupied_states(self):
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 100, seed=0, eps=0.5)
        with pytest.raises(InputError):
            run_counts(rotating_flow(), 100, seed=0, eps=-0.1)
        # max G is taken over occupied states only: state 2 is empty
        spec = FlowSpec(
            FiniteDistribution([0.5, 0.5, 0.0]),
            ((PotentialVector([1.0, 2.0, 4.0]), KernelMatrix.identity(3)),),
        )
        run = run_counts(spec, 100, seed=0, eps=0.5)
        assert run.counts[1, 2] == 0
