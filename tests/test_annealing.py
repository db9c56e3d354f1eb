"""Annealing layer: finite problems, kernel invariance, minorization
certificates, the mixing estimate, tuned flow assembly and the optimizer."""

import math

import numpy as np
import pytest

from fkips import bounds
from fkips.annealing import (
    GibbsProblem,
    MinorizationCert,
    TemperatureSchedule,
    build_isa_flow,
    gibbs_measure,
    metropolis_kernel,
    minorize,
    optimize,
)
from fkips.errors import InputError, NoMinorizationError
from fkips.flow import fk_step, run_flow
from fkips.measures import (
    BoundedFunction,
    FiniteDistribution,
    KernelMatrix,
    dobrushin,
)

from .instances import double_well_problem, random_reversible_problem
from .oracles import max_climb_by_paths


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _isa(problem, schedule, k0, a=0.5):
    return build_isa_flow(problem, schedule, minorize(problem, k0), a)


class TestProblem:
    def test_reversibility_is_required(self):
        with pytest.raises(InputError, match="not reversible w.r.t. the reference"):
            GibbsProblem(
                energy=BoundedFunction([0.0, 1.0]),
                reference=FiniteDistribution([0.9, 0.1]),
                proposal=KernelMatrix([[0.5, 0.5], [0.5, 0.5]]),
            )

    @pytest.mark.parametrize("field", ["energy", "reference", "proposal"])
    def test_callables_are_refused(self, field):
        # a problem is finite by type: a sampler or an energy callable in
        # any field fails at construction
        fields = dict(
            energy=BoundedFunction([0.0, 1.0]),
            reference=FiniteDistribution.uniform(2),
            proposal=KernelMatrix.uniform(2),
        )
        fields[field] = lambda *args: np.zeros(2)
        with pytest.raises(InputError, match=field):
            GibbsProblem(**fields)

    def test_random_reversible_construction(self):
        rng = rng_for(1)
        for _ in range(20):
            prob = random_reversible_problem(rng, int(rng.integers(2, 7)))
            flux = prob.reference.weights[:, None] * prob.proposal.rows
            assert np.abs(flux - flux.T).max() <= 1e-12

    def test_sublevel_mass(self):
        prob = double_well_problem()
        assert prob.sublevel_mass(0.25) == pytest.approx(0.25)  # states 0 and 4


class TestMetropolisKernel:
    def test_zero_temperature_returns_proposal(self):
        prob = double_well_problem()
        k0 = metropolis_kernel(prob, 0.0)
        assert np.allclose(k0.rows, prob.proposal.rows, atol=1e-15)

    def test_flat_energy_returns_proposal(self):
        prob = GibbsProblem(
            energy=BoundedFunction([1.0, 1.0, 1.0]),
            reference=FiniteDistribution.uniform(3),
            proposal=KernelMatrix.lazy_ring(3, 0.4),
        )
        for beta in (0.0, 1.0, 10.0):
            assert np.allclose(metropolis_kernel(prob, beta).rows, prob.proposal.rows)

    def test_three_state_invariance(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 0.7, 1.3]),
            reference=FiniteDistribution.uniform(3),
            proposal=KernelMatrix.lazy_ring(3, 0.2),
        )
        mu = gibbs_measure(prob, 2.0)
        assert np.abs(mu.push(metropolis_kernel(prob, 2.0)).weights - mu.weights).max() <= 1e-12


class TestGibbsMeasure:
    def test_zero_temperature_is_reference(self):
        prob = double_well_problem()
        assert np.allclose(gibbs_measure(prob, 0.0).weights, prob.reference.weights)

    def test_two_state_example(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 1.0]),
            reference=FiniteDistribution.uniform(2),
            proposal=KernelMatrix.uniform(2),
        )
        w = gibbs_measure(prob, math.log(2.0)).weights
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_concentrates_on_unique_minimizer(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 0.4, 1.0, 0.7]),
            reference=FiniteDistribution.uniform(4),
            proposal=KernelMatrix.uniform(4),
        )
        assert gibbs_measure(prob, 50.0).weights[0] > 1.0 - 1e-8


class TestMinorization:
    def test_rank_one_proposal(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 1.0, 2.0]),
            reference=FiniteDistribution.uniform(3),
            proposal=KernelMatrix.uniform(3),
        )
        cert = minorize(prob, 1)
        assert cert.delta == pytest.approx(1.0)
        assert np.allclose(cert.nu.weights, prob.proposal.rows[0])

    def test_identity_proposal_has_no_certificate(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 1.0]),
            reference=FiniteDistribution.uniform(2),
            proposal=KernelMatrix.identity(2),
        )
        for k0 in (1, 2, 3):
            with pytest.raises(NoMinorizationError):
                minorize(prob, k0)

    def test_climb_matches_path_enumeration(self):
        from fkips.annealing import _max_climb

        prob = double_well_problem()
        support = prob.proposal.rows > 0
        for k0 in (1, 2, 3, 4):
            dp = _max_climb(support, prob.v_values, k0)
            oracle = max_climb_by_paths(support, prob.v_values, k0)
            assert dp == pytest.approx(oracle, abs=1e-12)
        # the ring needs four moves to share mass from every state
        for k0 in (1, 2, 3):
            with pytest.raises(NoMinorizationError):
                minorize(prob, k0)
        cert = minorize(prob, 4)
        assert cert.delta > 0
        assert cert.gap_k0 == pytest.approx(
            max_climb_by_paths(support, prob.v_values, 4), abs=1e-12
        )

    def test_mixing_estimate_on_ring(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        for beta in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
            exact = dobrushin(metropolis_kernel(prob, beta).power(cert.k0))
            assert exact <= cert.mixing_bound(beta) + 1e-12

    def test_certificate_validation(self):
        with pytest.raises(InputError):
            MinorizationCert(k0=0, delta=0.5, gap_k0=1.0)
        with pytest.raises(InputError):
            MinorizationCert(k0=1, delta=1.5, gap_k0=1.0)


class TestSchedule:
    def test_constant_step_constructor(self):
        sched = TemperatureSchedule.constant_step(0.0, 0.5, 4)
        assert sched.betas == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert sched.deltas == (0.5,) * 4
        assert sched.tuning_mode == "bounded"

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            TemperatureSchedule((0.0, 0.5, 0.4), "constant-step")

    def test_bounded_cap_enforced(self):
        with pytest.raises(InputError):
            TemperatureSchedule((0.0, 1.0), "bounded-increment", declared_delta=0.5)

    def test_decreasing_increments_enforced(self):
        with pytest.raises(InputError):
            TemperatureSchedule((0.0, 0.1, 0.5), "decreasing-increment")


class TestBuildFlow:
    def test_zero_increment_is_pure_mcmc(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        sched = TemperatureSchedule.constant_step(1.0, 0.0, 3)
        isa = build_isa_flow(prob, sched, cert, 0.5)
        for potential, _ in isa.flow.steps:
            assert np.allclose(potential.values, 1.0)
        trace = run_flow(isa.flow)
        mu = gibbs_measure(prob, 1.0)
        for eta in trace.etas:
            assert np.abs(eta.weights / mu.weights - 1.0).max() <= 1e-10

    def test_flow_reproduces_gibbs_laws_per_entry(self):
        # annealed flow laws equal the exact targets, relative error 1e-10
        prob = double_well_problem()
        cert = minorize(prob, 4)
        sched = TemperatureSchedule.constant_step(0.0, 0.5, 6)
        isa = build_isa_flow(prob, sched, cert, 0.5)
        trace = run_flow(isa.flow)
        for n in range(1, 7):
            target = gibbs_measure(prob, sched.betas[n]).weights
            assert np.abs(trace.etas[n].weights / target - 1.0).max() <= 1e-10

    def test_one_step_maps_gibbs_to_gibbs(self):
        prob = GibbsProblem(
            energy=BoundedFunction([0.0, 0.5, 1.0]),
            reference=FiniteDistribution.uniform(3),
            proposal=KernelMatrix.lazy_ring(3, 0.2),
        )
        cert = minorize(prob, 2)
        sched = TemperatureSchedule.constant_step(0.3, 0.4, 1)
        isa = build_isa_flow(prob, sched, cert, 0.5)
        potential, kernel = isa.flow.steps[0]
        out = fk_step(gibbs_measure(prob, 0.3), potential, kernel)
        assert np.abs(out.weights - gibbs_measure(prob, 0.7).weights).max() <= 1e-10

    def test_tuned_kernels_meet_the_regime_condition(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        a = 0.5
        sched = TemperatureSchedule.constant_step(0.0, 0.5, 5)
        isa = build_isa_flow(prob, sched, cert, a)
        trace = run_flow(isa.flow)
        for g_n, b_n in zip(trace.g, trace.b):
            assert b_n <= a / (a + g_n) + 1e-12

    def test_iteration_counts_grow_with_beta(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        isa = build_isa_flow(
            prob, TemperatureSchedule.constant_step(0.0, 0.5, 5), cert, 0.5
        )
        iters = isa.mcmc_iters
        assert all(b >= a for a, b in zip(iters, iters[1:]))


class TestOptimize:
    def test_flat_energy_has_empty_tail(self):
        prob = GibbsProblem(
            energy=BoundedFunction([1.0, 1.0, 1.0, 1.0]),
            reference=FiniteDistribution.uniform(4),
            proposal=KernelMatrix.lazy_ring(4, 0.25),
        )
        result = optimize(
            _isa(prob, TemperatureSchedule.constant_step(0.0, 0.2, 3), k0=2),
            200,
            seed=4,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        assert np.all(result.proportions == 0.0)
        assert all(r.proportion_exact == 0.0 for r in result.rows)

    def test_sublevel_mass_matches_direct_sum(self):
        prob = double_well_problem()
        result = optimize(
            _isa(prob, TemperatureSchedule.constant_step(0.0, 0.5, 2), k0=4),
            100,
            seed=5,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        direct = float(
            prob.reference.weights[prob.v_values <= prob.v_min + 0.25].sum()
        )
        assert result.report.values["m_eps_prime"] == pytest.approx(direct)

    def test_exact_mass_sits_below_the_gibbs_term(self):
        prob = double_well_problem()
        result = optimize(
            _isa(prob, TemperatureSchedule.constant_step(0.0, 0.5, 6), k0=4),
            200,
            seed=6,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        for row in result.rows:
            assert row.proportion_exact <= row.gibbs_term + 1e-12

    @pytest.mark.parametrize(
        "schedule",
        [
            TemperatureSchedule.constant_step(0.0, 0.5, 4),
            TemperatureSchedule((0.0, 0.5, 0.9, 1.2, 1.4), "decreasing-increment"),
        ],
        ids=["bounded", "decreasing"],
    )
    def test_thresholds_add_the_regime_deviation_term(self, schedule):
        # the composite bound is the Gibbs term plus (r_i N + r_j y) / N^2,
        # with the uniform (r1*, r2*) at g_sup = exp(Delta osc V) or the
        # decreasing (r3*(n), r4*(n)) over the ratios exp(Delta_p osc V)
        prob = double_well_problem()
        a, n_particles, ys = 0.5, 150, (0.0, 1.0, 2.5)
        result = optimize(
            _isa(prob, schedule, k0=4, a=a), n_particles, seed=8,
            epsilon_level=0.5, eps_prime=0.25, y_values=ys,
        )
        assert result.report.inputs["mode"] == schedule.tuning_mode
        g_sched = [math.exp(d * prob.v_osc) for d in schedule.deltas]
        for row in result.rows:
            if schedule.tuning_mode == "bounded":
                g_sup = math.exp(schedule.delta_cap * prob.v_osc)
                r_i, r_j = bounds.r_star_bounded(bounds.RegimeParams(a, g_sup, n_particles))
            else:
                r_i, r_j = bounds.r_star_decreasing(g_sched, a, n_particles, row.step)[:2]
            for y in ys:
                expected = row.gibbs_term + bounds.eta_deviation_threshold(r_i, r_j, n_particles, y)
                assert row.thresholds[y] == expected

    def test_threshold_ordering(self):
        with pytest.raises(InputError):
            optimize(
                _isa(double_well_problem(), TemperatureSchedule.constant_step(0.0, 0.5, 2), k0=4),
                50,
                seed=7,
                epsilon_level=0.25,
                eps_prime=0.5,
            )
