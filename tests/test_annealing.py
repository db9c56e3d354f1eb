"""Annealing layer: finite problems, kernel invariance, minorization
certificates, the mixing estimate, tuned flow assembly and the optimizer."""

import math
import warnings

import numpy as np
import pytest

from fkips import bounds
from fkips.annealing import (
    GibbsProblem,
    MinorizationCert,
    annealed_flow,
    build_isa_flow,
    gibbs_measure,
    metropolis_kernels,
    minorize,
    optimize,
)
from fkips.errors import InputError, NoMinorizationError
from fkips.flow import fk_step, run_flow
from fkips.measures import KernelMatrix, kernel_powers, law, uniform_law

from .instances import double_well_problem, random_reversible_problem
from .oracles import dobrushin, max_climb_by_paths, metropolis_rows_by_entries, power_by_squaring


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _grid(beta0, delta, steps):
    """The constant-step schedule beta0 + k delta, k = 0..steps."""
    return beta0 + np.arange(steps + 1) * delta


def _isa(problem, betas, k0, mode="constant", a=0.5):
    return build_isa_flow(problem, betas, mode, minorize(problem, k0), a)


class TestProblem:
    def test_reversibility_is_required(self):
        with pytest.raises(InputError, match="not reversible w.r.t. the reference"):
            GibbsProblem(
                v_values=[0.0, 1.0],
                reference=law([0.9, 0.1]),
                proposal=KernelMatrix([[0.5, 0.5], [0.5, 0.5]]),
            )

    @pytest.mark.parametrize("field", ["energy", "reference", "proposal"])
    def test_callables_are_refused(self, field):
        # a problem is finite by type: a sampler or an energy callable in
        # any field fails at construction
        fields = dict(
            v_values=[0.0, 1.0],
            reference=uniform_law(2),
            proposal=KernelMatrix.uniform(2),
        )
        fields[{"energy": "v_values"}.get(field, field)] = lambda *args: np.zeros(2)
        with pytest.raises(InputError, match=field):
            GibbsProblem(**fields)

    def test_arrays_are_read_only_copies_kept_as_given(self):
        v, m = np.array([0.0, 1.0]), np.array([0.5 + 2e-13, 0.5])
        prob = GibbsProblem(v_values=v, reference=m, proposal=KernelMatrix.uniform(2))
        v[0], m[0] = 5.0, 1.0
        assert prob.v_values.tolist() == [0.0, 1.0]
        assert prob.reference.tolist() == [0.5 + 2e-13, 0.5]
        for arr in (prob.v_values, prob.reference):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("v_values", [0.0, np.inf], "energy values must contain only finite values"),
            ("v_values", [[0.0, 1.0]], "energy values must be a non-empty 1-d vector"),
            ("v_values", [0.0, 1.0, 2.0], "problem dimension mismatch"),
            ("reference", [0.5, 0.6], "reference weights sum to"),
            ("reference", [1.5, -0.5], "reference weights must be non-negative"),
            ("reference", [1.0], "problem dimension mismatch"),
        ],
    )
    def test_arrays_are_validated(self, field, value, message):
        fields = dict(
            v_values=[0.0, 1.0], reference=uniform_law(2), proposal=KernelMatrix.uniform(2)
        )
        fields[field] = value
        with pytest.raises(InputError, match=message):
            GibbsProblem(**fields)

    def test_gibbs_measure_divides_twice(self):
        # exp(-beta V) m divided by its total, then by the sum of that
        prob = double_well_problem()
        w = np.exp(-1.5 * prob.v_values - (-1.5 * prob.v_values).max()) * prob.reference
        once = w / w.sum()
        got = gibbs_measure(prob, 1.5)
        assert got.tobytes() == (once / once.sum()).tobytes()
        assert not got.flags.writeable

    def test_random_reversible_construction(self):
        rng = rng_for(1)
        for _ in range(20):
            prob = random_reversible_problem(rng, int(rng.integers(2, 7)))
            flux = prob.reference[:, None] * prob.proposal.rows
            assert np.abs(flux - flux.T).max() <= 1e-12

    def test_sublevel_mass(self):
        prob = double_well_problem()
        assert prob.sublevel_mass(0.25) == pytest.approx(0.25)  # states 0 and 4


class TestMetropolisKernels:
    def test_zero_temperature_returns_proposal(self):
        prob = double_well_problem()
        assert np.allclose(metropolis_kernels(prob, [0.0])[0], prob.proposal.rows, atol=1e-15)

    def test_flat_energy_returns_proposal(self):
        prob = GibbsProblem(
            v_values=[1.0, 1.0, 1.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.4),
        )
        for rows in metropolis_kernels(prob, [0.0, 1.0, 10.0]):
            assert np.allclose(rows, prob.proposal.rows)

    def test_three_state_invariance(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.7, 1.3],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.2),
        )
        mu = gibbs_measure(prob, 2.0)
        pushed = law(mu @ metropolis_kernels(prob, [2.0])[0])
        assert np.abs(pushed - mu).max() <= 1e-12

    def test_stack_is_bit_identical_to_one_kernel_at_a_time(self):
        # 40 inverse temperatures, beta = 0 among them, on random reversible
        # problems; each matrix's powers too, at exponents past 2^34
        rng = rng_for(40)
        for d in (2, 3, 4, 6, 9, 16, 24, 32, 33):
            prob = random_reversible_problem(rng, d)
            betas = np.concatenate([[0.0], 10.0 ** rng.uniform(-3, 2, 39)])
            stack = metropolis_kernels(prob, betas)
            expected = [KernelMatrix(metropolis_rows_by_entries(prob, b)).rows for b in betas]
            assert np.array_equal(stack, np.stack(expected)), d
            exps = [int(e) for e in rng.integers(0, 2**34, len(betas))]
            exps[:4] = [0, 1, 3, 2**34]
            powers = [KernelMatrix(power_by_squaring(k, e)).rows for k, e in zip(stack, exps)]
            assert np.array_equal(kernel_powers(stack, exps), np.stack(powers)), d

    def test_negative_temperature_is_refused(self):
        with pytest.raises(InputError, match="inverse temperature must be >= 0"):
            metropolis_kernels(double_well_problem(), [0.5, -1e-9])

    def test_huge_temperature_rejects_every_climb_without_a_warning(self):
        # beta V past float64 accepts an uphill move with probability 0,
        # silently, and the bits still match the entrywise reference
        prob = double_well_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = metropolis_kernels(prob, [1e300, 1.7e308])
        with np.errstate(over="ignore"):   # the reference overflows to min(1, inf)
            expected = [metropolis_rows_by_entries(prob, b) for b in (1e300, 1.7e308)]
        assert np.array_equal(stack, np.stack([KernelMatrix(e).rows for e in expected]))


class TestGibbsMeasure:
    def test_zero_temperature_is_reference(self):
        prob = double_well_problem()
        assert np.allclose(gibbs_measure(prob, 0.0), prob.reference)

    def test_two_state_example(self):
        prob = GibbsProblem(
            v_values=[0.0, 1.0],
            reference=uniform_law(2),
            proposal=KernelMatrix.uniform(2),
        )
        w = gibbs_measure(prob, math.log(2.0))
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_concentrates_on_unique_minimizer(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.4, 1.0, 0.7],
            reference=uniform_law(4),
            proposal=KernelMatrix.uniform(4),
        )
        assert gibbs_measure(prob, 50.0)[0] > 1.0 - 1e-8


class TestMinorization:
    def test_rank_one_proposal(self):
        prob = GibbsProblem(
            v_values=[0.0, 1.0, 2.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.uniform(3),
        )
        cert = minorize(prob, 1)
        assert cert.delta == pytest.approx(1.0)

    def test_identity_proposal_has_no_certificate(self):
        prob = GibbsProblem(
            v_values=[0.0, 1.0],
            reference=uniform_law(2),
            proposal=KernelMatrix(np.eye(2)),
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
            kernel = KernelMatrix(metropolis_kernels(prob, [beta])[0])
            exact = dobrushin(kernel.power(cert.k0).rows)
            assert exact <= cert.mixing_bound(beta) + 1e-12

    def test_certificate_validation(self):
        with pytest.raises(InputError):
            MinorizationCert(k0=0, delta=0.5, gap_k0=1.0)
        with pytest.raises(InputError):
            MinorizationCert(k0=1, delta=1.5, gap_k0=1.0)


class TestSchedule:
    @pytest.fixture
    def build(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        return lambda betas, mode, **kw: build_isa_flow(prob, betas, mode, cert, 0.5, **kw)

    def test_constant_grid(self, build):
        isa = build(_grid(0.0, 0.5, 4), "constant")
        assert isa.betas.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert not isa.betas.flags.writeable
        assert isa.rule == "bounded" and isa.delta_cap == 0.5

    def test_constant_cap_is_the_largest_computed_increment(self, build):
        # beta_{k+1} - beta_k is not delta in the last bits
        betas = _grid(0.1, 0.7, 6)
        assert np.diff(betas).max() != 0.7
        assert build(betas, "constant").delta_cap == np.diff(betas).max()

    def test_rule_and_cap_of_each_mode(self, build):
        betas = (0.0, 0.5, 0.9, 1.2)
        bounded = build(betas, "bounded")
        assert (bounded.rule, bounded.delta_cap) == ("bounded", 0.5)
        declared = build(betas, "bounded", declared_delta=0.75)
        assert (declared.rule, declared.delta_cap) == ("bounded", 0.75)
        decreasing = build(betas, "decreasing")
        assert (decreasing.rule, decreasing.delta_cap) == ("decreasing", 0.5)

    def test_monotonicity_enforced(self, build):
        with pytest.raises(InputError, match="inverse temperatures must be non-decreasing"):
            build((0.0, 0.5, 0.4), "constant")

    def test_bounded_cap_enforced(self, build):
        with pytest.raises(InputError, match="an increment exceeds the declared cap"):
            build((0.0, 1.0), "bounded", declared_delta=0.5)

    def test_decreasing_increments_enforced(self, build):
        with pytest.raises(InputError, match="increments must be non-increasing"):
            build((0.0, 0.1, 0.5), "decreasing")

    def test_constant_increments_enforced(self, build):
        with pytest.raises(InputError, match="constant-step increments must be equal"):
            build((0.0, 0.5, 1.2), "constant")

    def test_empty_schedule_and_unknown_mode_are_refused(self, build):
        with pytest.raises(InputError, match="schedule needs at least beta_0"):
            build((), "constant")
        with pytest.raises(InputError, match="unknown schedule mode 'constant-step'"):
            build((0.0, 0.5), "constant-step")

    @pytest.mark.parametrize("mode", ["constant", "decreasing"])
    def test_declared_cap_is_read_in_bounded_mode_only(self, build, mode):
        with pytest.raises(InputError, match=f"declared_delta is read in bounded mode, not {mode}"):
            build((0.0, 0.5), mode, declared_delta=0.5)


class TestBuildFlow:
    def test_zero_increment_is_pure_mcmc(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        isa = build_isa_flow(prob, _grid(1.0, 0.0, 3), "constant", cert, 0.5)
        assert np.allclose(isa.flow.potentials, 1.0)
        trace = run_flow(isa.flow)
        mu = gibbs_measure(prob, 1.0)
        for eta in trace.etas:
            assert np.abs(eta / mu - 1.0).max() <= 1e-10

    def test_flow_reproduces_gibbs_laws_per_entry(self):
        # annealed flow laws equal the exact targets, relative error 1e-10
        prob = double_well_problem()
        cert = minorize(prob, 4)
        isa = build_isa_flow(prob, _grid(0.0, 0.5, 6), "constant", cert, 0.5)
        trace = run_flow(isa.flow)
        for n in range(1, 7):
            target = gibbs_measure(prob, isa.betas[n])
            assert np.abs(trace.etas[n] / target - 1.0).max() <= 1e-10

    def test_one_step_maps_gibbs_to_gibbs(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.5, 1.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.2),
        )
        cert = minorize(prob, 2)
        isa = build_isa_flow(prob, _grid(0.3, 0.4, 1), "constant", cert, 0.5)
        out = fk_step(gibbs_measure(prob, 0.3), isa.flow.potentials[0], isa.flow.kernels[0])
        assert np.abs(out - gibbs_measure(prob, 0.7)).max() <= 1e-10

    def test_tuned_kernels_meet_the_regime_condition(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        a = 0.5
        isa = build_isa_flow(prob, _grid(0.0, 0.5, 5), "constant", cert, a)
        trace = run_flow(isa.flow)
        for g_n, b_n in zip(trace.g, trace.b):
            assert b_n <= a / (a + g_n) + 1e-12

    def test_empty_schedule_builds_an_empty_flow(self):
        # beta_0 alone: no step, so an empty stack of kernels
        prob = double_well_problem()
        isa = build_isa_flow(prob, (0.5,), "constant", minorize(prob, 4), 0.5)
        assert isa.flow.kernels.shape == (0, prob.dim, prob.dim)
        assert isa.flow.potentials.shape == (0, prob.dim)
        assert isa.mcmc_iters == ()

    def test_kernels_are_the_tuned_powers_one_step_at_a_time(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        isa = build_isa_flow(prob, _grid(0.0, 0.5, 6), "constant", cert, 0.5)
        for n, m_n in enumerate(isa.mcmc_iters, start=1):
            rows = KernelMatrix(metropolis_rows_by_entries(prob, float(isa.betas[n]))).rows
            expected = KernelMatrix(power_by_squaring(rows, cert.k0 * m_n)).rows
            assert np.array_equal(isa.flow.kernels[n - 1], expected), n

    def test_annealed_flow_reweights_and_moves_the_gibbs_law(self):
        # the flow of any (betas, deltas, iterations), here increments summed
        # into betas as the adaptive reference schedule sums them
        prob = random_reversible_problem(rng_for(7), 5)
        deltas = [0.3, 0.1, 0.7]
        betas = [0.2]
        for delta in deltas:
            betas.append(betas[-1] + delta)
        flow = annealed_flow(prob, betas, deltas, [1, 4, 2**40])
        assert np.array_equal(flow.initial, gibbs_measure(prob, 0.2))
        assert np.array_equal(flow.potentials, np.exp(-np.array(deltas)[:, None] * prob.v_values))
        for n, m in enumerate((1, 4, 2**40), start=1):
            rows = KernelMatrix(metropolis_rows_by_entries(prob, betas[n])).rows
            expected = KernelMatrix(power_by_squaring(rows, m)).rows
            assert np.array_equal(flow.kernels[n - 1], expected), n
        for n in range(1, 4):
            assert np.abs(run_flow(flow).etas[n] - gibbs_measure(prob, betas[n])).max() <= 1e-12

    def test_iteration_counts_grow_with_beta(self):
        prob = double_well_problem()
        cert = minorize(prob, 4)
        isa = build_isa_flow(prob, _grid(0.0, 0.5, 5), "constant", cert, 0.5)
        iters = isa.mcmc_iters
        assert all(b >= a for a, b in zip(iters, iters[1:]))


class TestOptimize:
    def test_flat_energy_has_empty_tail(self):
        prob = GibbsProblem(
            v_values=[1.0, 1.0, 1.0, 1.0],
            reference=uniform_law(4),
            proposal=KernelMatrix.lazy_ring(4, 0.25),
        )
        result = optimize(
            _isa(prob, _grid(0.0, 0.2, 3), k0=2),
            200,
            seed=4,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        assert np.all(result.proportions == 0.0)
        assert np.all(result.exact_mass == 0.0)

    def test_sublevel_mass_matches_direct_sum(self):
        # the Gibbs term reads the eps' sub-level mass of the reference
        prob = double_well_problem()
        betas = _grid(0.0, 0.5, 2)
        result = optimize(
            _isa(prob, betas, k0=4),
            100,
            seed=5,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        direct = float(
            prob.reference[prob.v_values <= prob.v_min + 0.25].sum()
        )
        assert result.gibbs_term[-1] == bounds.gibbs_tail_bound(
            betas[-1], 0.5, 0.25, direct
        )

    def test_exact_mass_sits_below_the_gibbs_term(self):
        prob = double_well_problem()
        result = optimize(
            _isa(prob, _grid(0.0, 0.5, 6), k0=4),
            200,
            seed=6,
            epsilon_level=0.5,
            eps_prime=0.25,
        )
        assert result.exact_mass.shape == result.gibbs_term.shape == (6,)
        assert np.all(result.exact_mass <= result.gibbs_term + 1e-12)

    @pytest.mark.parametrize(
        "betas, mode",
        [(_grid(0.0, 0.5, 4), "constant"), ((0.0, 0.5, 0.9, 1.2, 1.4), "decreasing")],
        ids=["bounded", "decreasing"],
    )
    def test_thresholds_add_the_regime_deviation_term(self, betas, mode):
        # the composite bound is the Gibbs term plus (r_i N + r_j y) / N^2,
        # with the uniform (r1*, r2*) at g_sup = exp(Delta osc V) or the
        # decreasing (r3*(n), r4*(n)) over the ratios exp(Delta_p osc V)
        prob = double_well_problem()
        a, n_particles, ys = 0.5, 150, (0.0, 1.0, 2.5)
        result = optimize(
            _isa(prob, betas, k0=4, mode=mode, a=a), n_particles, seed=8,
            epsilon_level=0.5, eps_prime=0.25, y_values=ys,
        )
        g_sched = [math.exp(d * prob.v_osc) for d in np.diff(betas)]
        horizon = len(betas) - 1
        assert result.thresholds.shape == (len(ys), horizon)
        for n in range(1, horizon + 1):
            if mode == "constant":
                g_sup = math.exp(max(np.diff(betas)) * prob.v_osc)
                r_i, r_j = bounds.r_star_bounded(a, g_sup, n_particles)
            else:
                r_i, r_j = bounds.r_star_decreasing(g_sched, a, n_particles, n)
            for i, y in enumerate(ys):
                deviation = bounds.eta_deviation_threshold(r_i, r_j, n_particles, y)
                assert result.thresholds[i, n - 1] == result.gibbs_term[n - 1] + deviation

    def test_rising_ratios_are_refused_before_any_replicate(self, monkeypatch):
        # increments equal within build_isa_flow's 1e-12 whose ratios rise
        # by more than the decreasing regime's 1e-15
        from fkips import annealing

        isa = _isa(double_well_problem(), (0.0, 0.5, 1.0000000000005), k0=4, mode="decreasing")
        monkeypatch.setattr(annealing, "run_counts", lambda *a, **k: pytest.fail("replicates ran"))
        with pytest.raises(InputError, match="non-increasing"):
            optimize(isa, 50, seed=7, epsilon_level=0.5, eps_prime=0.25)

    def test_threshold_ordering(self):
        with pytest.raises(InputError):
            optimize(
                _isa(double_well_problem(), _grid(0.0, 0.5, 2), k0=4),
                50,
                seed=7,
                epsilon_level=0.25,
                eps_prime=0.5,
            )
