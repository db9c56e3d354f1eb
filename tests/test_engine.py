"""Particle engine: stream determinism, selection/mutation laws, mass
estimator, and the replicate-level statistical contracts."""

import math

import numpy as np
import pytest
from scipy import stats

from fkips.engine import (
    ParticleEnsemble,
    init_ensemble,
    estimate,
    mutation_step,
    resolve_eps,
    run_ips,
    selection_step,
    substream,
)
from fkips.errors import ExtinctionError, InputError
from fkips.flow import FlowSpec, run_flow, stability_sums
from fkips.measures import (
    BoundedFunction,
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
)
from fkips.bounds import bp_constant
from fkips.testfns import osc1_dictionary


def small_flow(horizon=5):
    return FlowSpec(
        FiniteDistribution.uniform(3),
        ((PotentialVector([1.0, 2.0, 3.0]), KernelMatrix.lazy_ring(3, 0.4)),) * horizon,
    )


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
        ens = init_ensemble(FiniteDistribution.uniform(4), 1, seed=0)
        assert ens.size == 1 and ens.log_gamma1 == 0.0

    def test_point_mass(self):
        ens = init_ensemble(FiniteDistribution.dirac(4, 2), 50, seed=0)
        assert np.all(ens.states == 2)

    def test_uniform_frequencies_within_four_sigma(self):
        n = 100_000
        ens = init_ensemble(FiniteDistribution.uniform(4), n, seed=5)
        sigma = math.sqrt(0.25 * 0.75 / n)
        freqs = np.bincount(ens.states, minlength=4) / n
        assert np.all(np.abs(freqs - 0.25) <= 4 * sigma)

    def test_rejects_empty_population(self):
        with pytest.raises(InputError):
            init_ensemble(FiniteDistribution.uniform(2), 0, seed=0)

    def test_sampler_initializer(self):
        ens = init_ensemble(lambda n, rng: rng.standard_normal(n), 10, seed=1)
        assert ens.states.shape == (10,)


class TestSelection:
    def test_unit_potential_keeps_everything(self):
        ens = init_ensemble(FiniteDistribution.uniform(3), 200, seed=2)
        out = selection_step(ens, PotentialVector.constant(3), 1.0)
        assert np.array_equal(out.ensemble.states, ens.states)
        assert out.kept_fraction == 1.0
        assert out.ensemble.log_gamma1 == pytest.approx(0.0)

    def test_single_particle_is_its_own_pool(self):
        ens = init_ensemble(FiniteDistribution.dirac(3, 1), 1, seed=3)
        out = selection_step(ens, PotentialVector([1.0, 0.5, 2.0]), 0.0)
        assert out.ensemble.states[0] == 1

    def test_multinomial_mode_always_resamples(self):
        ens = init_ensemble(FiniteDistribution.uniform(2), 500, seed=4)
        out = selection_step(ens, PotentialVector([1.0, 1.0]), 0.0)
        assert out.kept_fraction == 0.0

    def test_eps_cap_enforced_on_ensemble(self):
        ens = init_ensemble(FiniteDistribution.uniform(2), 100, seed=5)
        with pytest.raises(InputError):
            selection_step(ens, PotentialVector([1.0, 3.0]), 0.5)

    def test_extinction_detected(self):
        ens = init_ensemble(FiniteDistribution.uniform(2), 100, seed=6)
        with pytest.raises(ExtinctionError):
            selection_step(ens, lambda states: np.zeros(states.shape[0]), 0.0)

    def test_two_state_transition_law(self):
        # 500/500 split, weights (1, 3), eps = 1/3: keep probabilities are
        # 1/3 and 1 for states 0/1 and the recycled pool is (1/4, 3/4), so
        #   P(0 -> 1) = (2/3)(3/4) = 1/2,   P(1 -> 1) = 1,
        # giving expected post-selection fraction at state 1 of 3/4 with
        # per-replicate variance 500 * (1/2)(1/2) / 1000^2 (state-1
        # particles are deterministic).
        states = np.array([0] * 500 + [1] * 500)
        potential = PotentialVector([1.0, 3.0])
        reps = 10_000
        fractions = np.empty(reps)
        for rep in range(reps):
            ens = ParticleEnsemble(
                states=states, step=0, log_gamma1=0.0, seed=77, replicate=rep
            )
            out = selection_step(ens, potential, 1.0 / 3.0)
            fractions[rep] = (out.ensemble.states == 1).mean()
        expected = 0.75
        var_single = (500 * 0.5 * 0.5) / 1000**2
        se = math.sqrt(var_single / reps)
        assert abs(fractions.mean() - expected) <= 4 * se

    def test_mass_update_uses_pre_selection_mean(self):
        states = np.array([0, 0, 1, 1])
        ens = ParticleEnsemble(states=states, step=0, log_gamma1=0.0, seed=1)
        out = selection_step(ens, PotentialVector([1.0, 3.0]), 0.0)
        assert out.ensemble.log_gamma1 == pytest.approx(math.log(2.0))
        assert out.ess == pytest.approx((8.0**2) / (2 * 1 + 2 * 9))


class TestMutation:
    def test_identity_kernel(self):
        ens = init_ensemble(FiniteDistribution.uniform(3), 100, seed=8)
        out = mutation_step(ens, KernelMatrix.identity(3))
        assert np.array_equal(out.states, ens.states)
        assert out.step == ens.step + 1

    def test_constant_kernel(self):
        ens = init_ensemble(FiniteDistribution.uniform(3), 100, seed=9)
        out = mutation_step(ens, KernelMatrix.constant(FiniteDistribution.dirac(3, 0)))
        assert np.all(out.states == 0)

    def test_stationary_law_preserved_within_four_sigma(self):
        # two-state chain with stationary law (2/3, 1/3)
        kernel = KernelMatrix([[0.8, 0.2], [0.4, 0.6]])
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])
        n = 100_000
        ens = init_ensemble(FiniteDistribution(pi), n, seed=10)
        out = mutation_step(ens, kernel)
        freq = (out.states == 0).mean()
        sigma = math.sqrt(pi[0] * pi[1] / n)
        assert abs(freq - pi[0]) <= 4 * sigma

    def test_sampler_kernel(self):
        ens = init_ensemble(lambda n, rng: np.zeros(n), 50, seed=11)
        out = mutation_step(ens, lambda states, rng: states + rng.standard_normal(states.shape[0]))
        assert out.states.shape == (50,)
        assert not np.allclose(out.states, 0.0)


class TestRunIps:
    def test_zero_horizon(self):
        run = run_ips(small_flow(), 50, seed=12, horizon=0)
        assert len(run.ensembles) == 1 and run.diagnostics == ()

    def test_constant_potential_mass_is_deterministic(self):
        spec = FlowSpec(
            FiniteDistribution.uniform(2),
            ((PotentialVector.constant(2, 2.5), KernelMatrix.uniform(2)),) * 3,
        )
        run = run_ips(spec, 64, seed=13)
        assert run.gamma1(3) == pytest.approx(2.5**3, rel=1e-12)

    def test_bit_identical_reruns(self):
        r1 = run_ips(small_flow(), 300, seed=14)
        r2 = run_ips(small_flow(), 300, seed=14)
        for a, b in zip(r1.ensembles, r2.ensembles):
            assert np.array_equal(a.states, b.states)
        assert [d.ess for d in r1.diagnostics] == [d.ess for d in r2.diagnostics]

    def test_replicates_decorrelate(self):
        r1 = run_ips(small_flow(), 300, seed=14, replicate=0)
        r2 = run_ips(small_flow(), 300, seed=14, replicate=1)
        assert not np.array_equal(r1.final.states, r2.final.states)

    def test_eps_policies(self):
        assert resolve_eps("auto", 4.0) == 0.25
        assert resolve_eps("multinomial", 4.0) == 0.0
        assert resolve_eps(0.1, 4.0) == 0.1
        run = run_ips(small_flow(2), 100, seed=15, eps="multinomial")
        assert all(d.kept_fraction == 0.0 for d in run.diagnostics)

    def test_mass_estimator_unbiased(self):
        spec = small_flow(4)
        oracle = run_flow(spec).gamma1[4]
        reps = 400
        for mode in ("auto", "multinomial"):
            vals = np.array(
                [run_ips(spec, 100, seed=16, replicate=r, eps=mode).gamma1(4) for r in range(reps)]
            )
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
        devs = np.zeros((reps, 5, fdict.shape[0]))
        for r in range(reps):
            run = run_ips(spec, n_particles, seed=17, replicate=r)
            for n in range(5):
                hist = run.ensembles[n].histogram(3).weights
                devs[r, n] = hist @ fdict.T - np.array(
                    [trace.etas[n].expect(f) for f in fdict]
                )
        l2 = np.sqrt(np.mean(np.square(devs), axis=0)).max(axis=1)
        cap = bp_constant(2) / math.sqrt(n_particles)
        for n in range(5):
            assert l2[n] <= cap * sums[n] + 1e-12

    def test_exchangeability_two_sample_ks(self):
        # permuting the initial particle assignment must leave the law of
        # every scalar estimate unchanged (two-sample KS at level 1e-3)
        spec = small_flow(3)
        f = BoundedFunction([0.0, 1.0, 2.0])
        reps = 300
        perm = np.random.Generator(np.random.Philox(key=np.uint64(99))).permutation(200)

        def run_variant(rep, permute):
            ens = init_ensemble(spec.initial, 200, seed=18, replicate=rep)
            if permute:
                ens = ParticleEnsemble(
                    states=ens.states[perm],
                    step=0,
                    log_gamma1=0.0,
                    seed=18,
                    replicate=rep + 1_000_000,
                )
            for potential, kernel in spec.steps:
                out = selection_step(ens, potential, 0.0)
                ens = mutation_step(out.ensemble, kernel)
            return estimate(ens, f)

        base = np.array([run_variant(r, False) for r in range(reps)])
        permuted = np.array([run_variant(r, True) for r in range(reps)])
        result = stats.ks_2samp(base, permuted)
        assert result.pvalue > 1e-3


class TestEstimate:
    def test_unit_function(self):
        ens = init_ensemble(FiniteDistribution.uniform(3), 40, seed=19)
        assert estimate(ens, BoundedFunction([1.0, 1.0, 1.0])) == 1.0

    def test_point_ensemble(self):
        ens = init_ensemble(FiniteDistribution.dirac(3, 2), 40, seed=20)
        assert estimate(ens, BoundedFunction([5.0, 6.0, 7.0])) == 7.0

    def test_uniform_two_state_within_four_sigma(self):
        n = 10_000
        ens = init_ensemble(FiniteDistribution.uniform(2), n, seed=21)
        val = estimate(ens, BoundedFunction([0.0, 1.0]))
        assert abs(val - 0.5) <= 4 * math.sqrt(0.25 / n)
