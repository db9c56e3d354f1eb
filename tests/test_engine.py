"""Particle engine: stream determinism, the initial draw, the selection
and mutation laws, the mass estimator and the replicate-level statistical
contracts, all read from :func:`~fkips.engine.run_counts`.  A selection law
is read after an identity kernel and a mutation law after a constant
potential kept in full."""

import math

import numpy as np
import pytest
from scipy import stats

from fkips.engine import BLOCK, run_counts
from fkips.errors import InputError
from fkips.flow import FlowSpec, run_flow, stability_sums
from fkips.measures import KernelMatrix, law, uniform_law
from fkips.bounds import bp_constant
from fkips.testfns import osc1_dictionary

from .instances import repeated_flow
from .oracles import substream


def small_flow(horizon=5):
    kernel = KernelMatrix.lazy_ring(3, 0.4).rows
    return repeated_flow(uniform_law(3), [1.0, 2.0, 3.0], kernel, horizon)


def one_step(initial, potential, kernel):
    return FlowSpec(initial, [potential], [kernel])


def empty_flow(initial):
    d = len(initial)
    return FlowSpec(initial, np.empty((0, d)), np.empty((0, d, d)))


def initial_counts(initial, n_particles, seed, replicates=1):
    return run_counts(empty_flow(initial), n_particles, seed, replicates=replicates).counts[:, 0]


def estimate(run, n, f):
    """Empirical mean of a test function at step n of every replicate."""
    return run.counts[:, n] @ np.asarray(f, dtype=np.float64) / run.counts[0, n].sum()


class TestStreams:
    def test_disjoint_slots_differ(self):
        a = substream(1, 0, 0, 0).random(4)
        b = substream(1, 0, 0, 1).random(4)
        c = substream(1, 0, 1, 0).random(4)
        d = substream(1, 1, 0, 0).random(4)
        e = substream(2, 0, 0, 0).random(4)
        batches = [a, b, c, d, e]
        for i in range(len(batches)):
            for j in range(i + 1, len(batches)):
                assert not np.array_equal(batches[i], batches[j])

    def test_same_slot_reproduces(self):
        assert np.array_equal(substream(7, 3, 2, 1).random(16), substream(7, 3, 2, 1).random(16))


class TestInit:
    def test_single_particle(self):
        run = run_counts(small_flow(), 1, seed=0, horizon=0)
        assert run.counts.shape == (1, 1, 3) and run.counts.sum() == 1
        assert np.all(run.log_gamma1 == 0.0)

    def test_point_mass(self):
        counts = initial_counts(law(np.eye(4)[2]), 50, seed=0, replicates=3)
        assert np.all(counts == [0, 0, 50, 0])

    def test_uniform_frequencies_within_four_sigma(self):
        n = 100_000
        freqs = initial_counts(uniform_law(4), n, seed=5)[0] / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freqs - 0.25) <= 4 * sigma)

    def test_rejects_empty_population(self):
        with pytest.raises(InputError):
            initial_counts(uniform_law(2), 0, seed=0)

    def test_sampler_initializer(self):
        # a sampler is not a finite law: refused when the flow is built
        with pytest.raises(InputError):
            FlowSpec(lambda n, rng: rng.standard_normal(n), np.empty((0, 1)), np.empty((0, 1, 1)))


class TestSelection:
    def test_unit_potential_keeps_everything(self):
        spec = one_step(
            uniform_law(3), np.ones(3), np.eye(3)
        )
        run = run_counts(spec, 200, seed=2, eps=1.0, replicates=3)
        assert np.array_equal(run.counts[:, 1], run.counts[:, 0])
        assert np.all(run.kept_fraction == 1.0)
        assert np.all(run.log_gamma1 == 0.0)

    def test_single_particle_is_its_own_pool(self):
        spec = one_step(
            law(np.eye(3)[1]), [1.0, 0.5, 2.0], np.eye(3)
        )
        run = run_counts(spec, 1, seed=3, eps="multinomial", replicates=3)
        assert np.all(run.counts[:, 1] == [0, 1, 0])

    def test_multinomial_mode_always_resamples(self):
        spec = one_step(
            uniform_law(2), np.ones(2), np.eye(2)
        )
        run = run_counts(spec, 500, seed=4, eps="multinomial", replicates=3)
        assert np.all(run.kept_fraction == 0.0)

    def test_eps_cap_enforced_on_ensemble(self):
        spec = one_step(
            uniform_law(2), [1.0, 3.0], np.eye(2)
        )
        with pytest.raises(InputError, match="exceeds 1"):
            run_counts(spec, 100, seed=5, eps=0.5)

    def test_extinction_detected(self):
        # a potential that could leave every particle at G = 0 is refused
        # when the flow is built, so no run goes extinct
        with pytest.raises(InputError, match="strictly positive"):
            one_step(law(np.eye(2)[0]), [0.0, 1.0], np.eye(2))

    def test_two_state_transition_law(self):
        # weights (1, 3), eps = 1/3: keep probabilities are 1/3 and 1 for
        # states 0/1 and the recycled pool is (c0, 3 c1) / (c0 + 3 c1), so
        # given the initial counts c the state-1 count after selection is
        # c1 + Binomial(c0, (2/3) p) with p = 3 c1 / (c0 + 3 c1).  The sum
        # over replicates of its deviation from that mean is compared with
        # its conditional standard error.
        spec = one_step(
            uniform_law(2), [1.0, 3.0], np.eye(2)
        )
        reps = 10_000
        run = run_counts(spec, 1000, seed=77, eps=1.0 / 3.0, replicates=reps)
        c0, c1 = run.counts[:, 0, 0], run.counts[:, 0, 1]
        q = (2.0 / 3.0) * 3 * c1 / (c0 + 3 * c1)
        dev = (run.counts[:, 1, 1] - (c1 + c0 * q)).sum()
        assert abs(dev) <= 4 * math.sqrt((c0 * q * (1.0 - q)).sum())

    def test_mass_update_uses_pre_selection_mean(self):
        # per step, from the run's own counts: mean G = c.G/N,
        # ESS = (c.G)^2 / c.G^2, and log gamma rises by log(mean G)
        spec, n_particles = small_flow(4), 50
        run = run_counts(spec, n_particles, seed=1, replicates=BLOCK + 1)
        for n, g in enumerate(spec.potentials):
            c = run.counts[:, n]
            np.testing.assert_allclose(run.mean_potential[:, n], c @ g / n_particles, rtol=1e-15)
            np.testing.assert_allclose(run.ess[:, n], (c @ g) ** 2 / (c @ g**2), rtol=1e-14)
            np.testing.assert_allclose(
                run.log_gamma1[:, n + 1] - run.log_gamma1[:, n],
                np.log(run.mean_potential[:, n]), rtol=1e-12, atol=1e-15,
            )


class TestMutation:
    # a constant potential at eps = "auto" keeps every particle
    def test_identity_kernel(self):
        spec = one_step(
            uniform_law(3), np.ones(3), np.eye(3)
        )
        for n_particles in (5, 100):   # moves per particle below d^2, per state above
            run = run_counts(spec, n_particles, seed=8, replicates=3)
            assert np.array_equal(run.counts[:, 1], run.counts[:, 0])

    def test_constant_kernel(self):
        spec = one_step(uniform_law(3), np.ones(3), np.tile(np.eye(3)[0], (3, 1)))
        for n_particles in (5, 100):
            run = run_counts(spec, n_particles, seed=9, replicates=3)
            assert np.all(run.counts[:, 1] == [n_particles, 0, 0])

    def test_stationary_law_preserved_within_four_sigma(self):
        # two-state chain with stationary law (2/3, 1/3)
        kernel = KernelMatrix([[0.8, 0.2], [0.4, 0.6]])
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])
        n = 100_000
        spec = one_step(law(pi), np.ones(2), kernel.rows)
        run = run_counts(spec, n, seed=10)
        freq = run.counts[0, 1, 0] / n
        sigma = math.sqrt(pi[0] * pi[1] / n)
        assert abs(freq - pi[0]) <= 4 * sigma

    def test_sampler_kernel(self):
        # a sampler is not a kernel matrix: refused when the flow is built
        with pytest.raises(InputError):
            one_step(
                uniform_law(2), np.ones(2),
                lambda states, rng: states + rng.standard_normal(states.shape[0]),
            )


class TestRunIps:
    def test_zero_horizon(self):
        run = run_counts(small_flow(), 50, seed=12, horizon=0)
        assert run.counts.shape == (1, 1, 3) and run.mean_potential.shape == (1, 0)

    def test_constant_potential_mass_is_deterministic(self):
        spec = repeated_flow(
            uniform_law(2), np.full(2, 2.5), KernelMatrix.uniform(2).rows, 3
        )
        run = run_counts(spec, 64, seed=13)
        assert math.exp(run.log_gamma1[0, 3]) == pytest.approx(2.5**3, rel=1e-12)

    def test_bit_identical_reruns(self):
        r1 = run_counts(small_flow(), 300, seed=14, replicates=3)
        r2 = run_counts(small_flow(), 300, seed=14, replicates=3)
        assert np.array_equal(r1.counts, r2.counts)
        assert np.array_equal(r1.ess, r2.ess)

    def test_replicates_decorrelate(self):
        run = run_counts(small_flow(), 300, seed=14, replicates=2)
        assert not np.array_equal(run.counts[0, -1], run.counts[1, -1])

    def test_eps_policies(self):
        # G = 4 everywhere: "auto" keeps with 1/4 * 4 = 1, "multinomial"
        # with 0, and 0.1 with 0.4 per particle
        spec = one_step(
            uniform_law(2), np.full(2, 4.0), KernelMatrix.uniform(2).rows,
        )
        kept = {
            eps: run_counts(spec, 100, seed=15, eps=eps, replicates=400).kept_fraction
            for eps in ("auto", "multinomial", 0.1)
        }
        assert np.all(kept["auto"] == 1.0) and np.all(kept["multinomial"] == 0.0)
        assert abs(kept[0.1].mean() - 0.4) <= 4 * math.sqrt(0.4 * 0.6 / (100 * 400))
        with pytest.raises(InputError, match="eps must be >= 0"):
            run_counts(spec, 100, seed=15, eps=-0.1)

    def test_mass_estimator_unbiased(self):
        spec = small_flow(4)
        oracle = run_flow(spec).gamma1[4]
        reps = 400
        for mode in ("auto", "multinomial"):
            vals = np.exp(run_counts(spec, 100, seed=16, replicates=reps, eps=mode).log_gamma1[:, 4])
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - oracle) <= 4 * se, mode

    def test_l2_error_within_stability_sum_bound(self):
        # sqrt(E |emp(f) - law(f)|^2) <= B_2 / sqrt(N) * sum_k g_kn b_kn
        # for sup-norm-1 test functions, every step
        spec = small_flow(4)
        trace = run_flow(spec)
        sums = stability_sums(spec)
        fdict = 2.0 * osc1_dictionary(3, 8)   # sup norm 1
        n_particles, reps = 200, 300
        hists = run_counts(spec, n_particles, seed=17, replicates=reps).histograms
        exact = np.array([[float(eta @ f) for f in fdict] for eta in trace.etas])
        devs = hists @ fdict.T - exact
        l2 = np.sqrt(np.mean(np.square(devs), axis=0)).max(axis=1)
        cap = bp_constant(2) / math.sqrt(n_particles)
        for n in range(5):
            assert l2[n] <= cap * sums[n] + 1e-12

    def test_exchangeability_two_sample_ks(self):
        # relabelling the states (the initial law, every potential and both
        # kernel axes) must leave the law of every scalar estimate unchanged
        # (two-sample KS at level 1e-3), on both move paths
        spec = small_flow(3)
        f = np.array([0.0, 1.0, 2.0])
        perm = np.array([2, 0, 1])
        relabelled = FlowSpec(
            law(spec.initial[perm]),
            spec.potentials[:, perm],
            spec.kernels[:, perm][:, :, perm],
        )
        f_perm = f[perm]
        for n_particles in (200, 5):
            base = run_counts(spec, n_particles, seed=18, eps="multinomial", replicates=300)
            other = run_counts(
                relabelled, n_particles, seed=19, eps="multinomial", replicates=300
            )
            result = stats.ks_2samp(estimate(base, 3, f), estimate(other, 3, f_perm))
            assert result.pvalue > 1e-3, n_particles


class TestEstimate:
    def test_unit_function(self):
        run = run_counts(small_flow(), 40, seed=19, horizon=0)
        assert estimate(run, 0, [1.0, 1.0, 1.0])[0] == 1.0

    def test_point_ensemble(self):
        run = run_counts(empty_flow(law(np.eye(3)[2])), 40, seed=20)
        assert estimate(run, 0, [5.0, 6.0, 7.0])[0] == 7.0

    def test_uniform_two_state_within_four_sigma(self):
        n = 10_000
        run = run_counts(empty_flow(uniform_law(2)), n, seed=21)
        val = estimate(run, 0, [0.0, 1.0])[0]
        assert abs(val - 0.5) <= 4 * math.sqrt(0.25 / n)
