"""Adaptive temperature machinery: increment solving, the deterministic
reference, the count engine's adaptive rule against the exact finite-N law,
and the verification procedures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fkips import adaptive
from fkips.adaptive import (
    TOL_FLOOR,
    AdaptiveConfig,
    LambdaCurve,
    concentration_check,
    kappa_solve,
    khintchine_conditional_check,
    l2_error_check,
    perturbation_check,
    run_adaptive_counts,
    theoretical_adaptive_flow,
)
from fkips.annealing import GibbsProblem, gibbs_measure, metropolis_kernels
from fkips.bounds import bp_constant
from fkips.engine import BLOCK
from fkips.errors import InputError, SolverError
from fkips.flow import run_flow
from fkips.measures import KernelMatrix, kernel_powers, uniform_law
from fkips.testfns import osc1_dictionary

from .instances import adaptive_problem
from .oracles import (
    dobrushin,
    adaptive_lattice_law,
    composition_index,
    frozen_step_replay,
    metropolis_rows_by_entries,
    pooled_chisquare,
    potential_ratio,
    power_by_squaring,
)


class TestLambdaCurve:
    def test_normalization_at_zero(self):
        curve = LambdaCurve(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
        assert curve.value(0.0) == pytest.approx(1.0)

    def test_strictly_decreasing_and_convex(self):
        curve = LambdaCurve(np.array([0.2, 0.7, 1.0]), np.array([0.2, 0.3, 0.5]))
        xs = np.linspace(0.0, 5.0, 30)
        vals = [curve.value(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        mids = [curve.value((x + y) / 2) for x, y in zip(xs, xs[2:])]
        assert all(m <= (vals[i] + vals[i + 2]) / 2 + 1e-12 for i, m in enumerate(mids))

    def test_rejects_negative_energy(self):
        with pytest.raises(InputError):
            LambdaCurve(np.array([-0.1, 1.0]), np.array([0.5, 0.5]))


class TestKappaSolve:
    def test_unit_target_boundary(self):
        curve = LambdaCurve(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        res = kappa_solve(curve, 1.0)
        assert res.delta == 0.0 and not res.saturated

    def test_single_atom_analytic_inverse(self):
        curve = LambdaCurve(np.array([1.0]), np.array([1.0]))
        res = kappa_solve(curve, math.exp(-1.0), tol=1e-12)
        assert res.delta == pytest.approx(1.0, abs=1e-9)

    def test_two_atom_root_matches_high_precision_solver(self):
        curve = LambdaCurve(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        res = kappa_solve(curve, 0.5, tol=1e-12)
        oracle = brentq(
            lambda x: 0.5 * (math.exp(-x) + math.exp(-2 * x)) - 0.5, 0.0, 5.0, xtol=1e-14
        )
        assert oracle == pytest.approx(0.4812118250596035, abs=1e-12)
        assert res.delta == pytest.approx(oracle, abs=1e-6)

    def test_saturation_when_mass_sits_at_zero_energy(self):
        curve = LambdaCurve(np.array([0.0, 1.0]), np.array([0.6, 0.4]))
        res = kappa_solve(curve, 0.5, delta_max=30.0)
        assert res.saturated and res.delta == 30.0

    def test_target_validation(self):
        curve = LambdaCurve(np.array([1.0]), np.array([1.0]))
        with pytest.raises(InputError):
            kappa_solve(curve, 0.0)
        with pytest.raises(InputError):
            kappa_solve(curve, 1.5)

    def test_monotone_in_target(self):
        curve = LambdaCurve(np.array([0.5, 0.8, 1.0]), np.array([0.3, 0.3, 0.4]))
        deltas = [kappa_solve(curve, eps, tol=1e-12).delta for eps in (0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))


class TestNewtonRows:
    def test_rows_match_one_row_solves(self):
        rng = np.random.default_rng(3)
        v = np.array([0.1, 0.4, 0.55, 0.7, 1.0, 0.25])
        counts = rng.integers(0, 200, (BLOCK + 3, v.size))
        block = kappa_solve(LambdaCurve(v, counts), 0.6, tol=1e-12)
        for r in (0, 5, BLOCK + 2):
            one = kappa_solve(LambdaCurve(v, counts[r]), 0.6, tol=1e-12)
            assert block.delta[r] == one.delta and block.iterations[r] == one.iterations
        assert np.all(np.abs(block.lam - 0.6) <= 1e-12)

    def test_few_iterations_from_zero(self):
        # quadratic convergence: a handful of iterations reach 1e-12
        curve = LambdaCurve(np.array([0.2, 1.0, 3.0]), np.array([0.5, 0.3, 0.2]))
        for eps in (0.3, 0.75, 0.95):
            res = kappa_solve(curve, eps, tol=1e-12)
            assert 1 <= res.iterations <= 8 and abs(res.lam - eps) <= 1e-12

    def test_saturated_rows_are_frozen_at_the_cap(self):
        curve = LambdaCurve(np.array([0.0, 1.0]), np.array([[0.6, 0.4], [0.2, 0.8], [1.0, 0.0]]))
        res = kappa_solve(curve, 0.5, delta_max=30.0)
        assert res.saturated.tolist() == [True, False, True]
        assert res.delta[0] == res.delta[2] == 30.0
        assert abs(res.lam[1] - 0.5) <= 1e-10

    def test_unconverged_solve_raises_with_step_delta_and_residual(self, monkeypatch):
        monkeypatch.setattr(adaptive, "MAX_ITERATIONS", 2)
        curve = LambdaCurve(np.array([0.2, 1.0, 3.0]), np.array([0.5, 0.3, 0.2]))
        with pytest.raises(SolverError) as info:
            kappa_solve(curve, 0.3, step=7)
        msg = str(info.value)
        assert "step 7" in msg and "Delta = " in msg and "|lambda(Delta) - epsilon|" in msg
        assert info.value.step == 7 and info.value.residual > 1e-10

    def test_tolerance_floor(self):
        curve = LambdaCurve(np.array([1.0]), np.array([1.0]))
        assert kappa_solve(curve, 0.5, tol=TOL_FLOOR).iterations > 0
        with pytest.raises(InputError):
            kappa_solve(curve, 0.5, tol=TOL_FLOOR / 10)
        with pytest.raises(InputError, match="tol"):
            AdaptiveConfig(epsilon=0.5, tol=1e-14)


class TestTheoreticalFlow:
    def test_mass_ratios_hit_the_target(self):
        prob = adaptive_problem(4)
        ref = theoretical_adaptive_flow(prob, 0.75, 6, mcmc_iters=3)
        trace = run_flow(ref.flow)
        for n in range(6):
            assert trace.gamma1[n + 1] / trace.gamma1[n] == pytest.approx(0.75, abs=1e-8)

    def test_flow_laws_match_reference(self):
        prob = adaptive_problem(4)
        ref = theoretical_adaptive_flow(prob, 0.7, 5, mcmc_iters=2)
        trace = run_flow(ref.flow)
        assert ref.etas.shape == trace.etas.shape == (6, 4)
        assert not ref.etas.flags.writeable
        assert np.abs(trace.etas - ref.etas).max() <= 1e-9
        # the reference laws are the Gibbs laws at the solved temperatures
        betas = np.cumsum((0.0,) + ref.deltas)
        for eta, beta in zip(ref.etas, betas):
            assert eta.tobytes() == gibbs_measure(prob, beta).tobytes()

    def test_single_energy_level_constant_increment(self):
        prob = GibbsProblem(
            v_values=[0.8, 0.8, 0.8],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.25),
        )
        ref = theoretical_adaptive_flow(prob, 0.6, 4)
        expected = -math.log(0.6) / 0.8
        for delta in ref.deltas:
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_larger_target_gives_smaller_increments(self):
        prob = adaptive_problem(4)
        refs = {eps: theoretical_adaptive_flow(prob, eps, 4) for eps in (0.6, 0.75, 0.9)}
        for n in range(4):
            ds = [refs[eps].deltas[n] for eps in (0.6, 0.75, 0.9)]
            assert ds[0] > ds[1] > ds[2]

    def test_rejects_zero_energy_atom(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.5, 1.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.25),
        )
        with pytest.raises(InputError):
            theoretical_adaptive_flow(prob, 0.7, 3)

    def test_envelope_recursion(self):
        # the adaptive-l2 rows bound step n by B_2 e~_n / sqrt(N), with
        # e~_n = 1 + g_n b_n (1 + c_n) e~_{n-1} over the reference's steps
        prob = adaptive_problem(4)
        ref = theoretical_adaptive_flow(prob, 0.75, 5, mcmc_iters=3)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        rows = l2_error_check(prob, cfg, 100, 5, seed=1, replicates=4).rows
        trace = ref.flow.trace
        acc = 1.0
        for n in range(5):
            acc = 1.0 + trace.g[n] * trace.b[n] * (1.0 + ref.c[n]) * acc
            assert rows[n + 1].rhs == pytest.approx(bp_constant(2) * acc / 10.0, rel=1e-14)

    def test_step_constants_are_those_of_the_emitted_flow(self):
        prob = adaptive_problem(4)
        ref = theoretical_adaptive_flow(prob, 0.75, 5, mcmc_iters=3)
        trace = ref.flow.trace
        # step n moves by 3 Metropolis moves at beta_n = Delta_1 + ... + Delta_n
        kernels = []
        for beta in np.cumsum(ref.deltas):
            rows = KernelMatrix(metropolis_rows_by_entries(prob, beta)).rows
            kernels.append(KernelMatrix(power_by_squaring(rows, 3)))
        assert ref.flow.kernels.tobytes() == np.array([k.rows for k in kernels]).tobytes()
        assert trace.b == tuple(dobrushin(kernel.rows) for kernel in kernels)
        assert trace.g == tuple(potential_ratio(g) for g in ref.flow.potentials)


class TestRunAdaptive:
    def test_single_particle_never_resampled(self):
        # one particle is its own pool, so lambda^N(Delta) = exp(-Delta v(x))
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.7, mutation_mode="adaptive", mcmc_iters=1)
        run = run_adaptive_counts(prob, cfg, 1, 3, seed=1, replicates=20)
        v_before = prob.v_values[run.counts[:, :-1].argmax(axis=2)]
        assert np.allclose(run.delta, -math.log(0.7) / v_before, rtol=0.0, atol=1e-8)

    def test_solver_residuals_within_tolerance(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, tol=1e-10, mcmc_iters=3)
        run = run_adaptive_counts(prob, cfg, 300, 6, seed=2)
        assert not run.saturated.any()
        assert np.all(run.lambda_residual <= 1e-10)

    def test_kept_fraction_targets_epsilon(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        reps = 500
        n_particles = 1000
        ref = theoretical_adaptive_flow(prob, 0.75, 3, mcmc_iters=3)
        kept = run_adaptive_counts(
            prob, cfg, n_particles, 3, seed=3, replicates=reps, reference=ref
        ).kept_fraction
        # keep variance per replicate is at most 1/(4 N)
        se = math.sqrt(0.25 / n_particles / reps)
        for n in range(3):
            assert abs(kept[:, n].mean() - 0.75) <= 4 * se + 1e-3

    def test_saturation_flag_on_zero_energy_states(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.0, 1.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.25),
        )
        cfg = AdaptiveConfig(
            epsilon=0.5, mutation_mode="adaptive", mcmc_iters=1, delta_max=10.0
        )
        run = run_adaptive_counts(prob, cfg, 60, 2, seed=4)
        # two thirds of the mass never decays below 1/2: the solver saturates
        assert run.saturated.any()
        assert np.all(run.delta <= 10.0)

    @pytest.mark.parametrize("mode", ["theoretical", "adaptive"])
    def test_step_diagnostics(self, mode):
        # the mean potential is lambda^N(Delta^N), which the solve pins to
        # epsilon; the mass estimate accumulates its logarithm
        prob = adaptive_problem(6)
        cfg = AdaptiveConfig(epsilon=0.75, tol=1e-10, mcmc_iters=2, mutation_mode=mode)
        n_particles = 300
        run = run_adaptive_counts(prob, cfg, n_particles, 5, seed=12, replicates=BLOCK + 1)
        assert run.mean_potential.shape == run.delta.shape == (BLOCK + 1, 5)
        assert not run.saturated.any()
        assert np.all(np.abs(run.mean_potential - cfg.epsilon) <= cfg.tol)
        assert np.all((run.ess >= 1.0) & (run.ess <= n_particles))
        assert np.all(run.log_gamma1[:, 0] == 0.0)
        np.testing.assert_allclose(
            run.log_gamma1[:, 1:], np.cumsum(np.log(run.mean_potential), axis=1), rtol=1e-12
        )

    def test_adaptive_mutation_mode_runs(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.7, mutation_mode="adaptive", mcmc_iters=2)
        run = run_adaptive_counts(prob, cfg, 200, 4, seed=5)
        assert run.counts.shape == (1, 5, 4)
        # with no reference schedule, c reads eta(V) from each row's own counts
        v, v_max = prob.v_values, float(prob.v_values.max())
        eta_v = (run.counts[:, :-1] * v).sum(axis=2) / 200
        expected = v_max * np.exp(run.delta * v_max) / (cfg.epsilon * eta_v)
        np.testing.assert_array_equal(run.c, expected)
        assert np.all(np.diff(run.beta, axis=1) > 0)

    def test_config_validation(self):
        with pytest.raises(InputError):
            AdaptiveConfig(epsilon=1.2)
        with pytest.raises(InputError):
            AdaptiveConfig(epsilon=0.5, mutation_mode="bogus")


class TestVerificationProcedures:
    def test_perturbation_estimates_hold(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        report = perturbation_check(prob, cfg, 300, 3, seed=6, replicates=150)
        assert all(r.status == "pass" for r in report.rows)
        names = {r.name for r in report.rows}
        assert names == {
            "reweighting-control",
            "reweighting-control-combined",
            "one-step-stability",
        }

    def test_l2_envelope_holds(self):
        prob = adaptive_problem(6)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=4)
        report = l2_error_check(prob, cfg, 400, 4, seed=7, replicates=150)
        assert all(r.status == "pass" for r in report.rows)
        # e~_0 = 1, so the step-0 envelope is B_2 / sqrt(N) itself
        assert report.rows[0].rhs == bp_constant(2) / math.sqrt(400)

    def test_khintchine_conditional_step(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        report = khintchine_conditional_check(prob, cfg, 400, 2, seed=8)
        (row,) = report.rows
        assert row.status == "pass"
        assert row.rhs == bp_constant(2) / math.sqrt(400)

    @pytest.mark.parametrize(
        "dim, n_particles",
        [
            pytest.param(4, 400, id="multinomial-moves"),   # N >= d^2
            pytest.param(8, 40, id="per-particle-moves"),   # N < d^2
        ],
    )
    def test_khintchine_closed_form_matches_the_replay(self, dim, n_particles):
        # the closed-form variance of each dictionary entry against R =
        # 20 000 replays of the engine's transition from the same frozen
        # counts, within 5 standard errors of their mean square
        prob = adaptive_problem(dim)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        ref = theoretical_adaptive_flow(prob, 0.75, 3, mcmc_iters=3)
        frozen = run_adaptive_counts(prob, cfg, n_particles, 2, seed=8, reference=ref).counts[0, -1]
        res = kappa_solve(
            LambdaCurve(prob.v_values, frozen), 0.75, tol=cfg.tol,
            delta_max=cfg.resolved_delta_max(prob.v_osc),
        )
        g = np.exp(-res.delta * prob.v_values)
        kernel_rows = ref.flow.kernels[2]
        fdict = osc1_dictionary(dim)
        var = adaptive._conditional_variances(frozen, g, kernel_rows, fdict)
        (row,) = khintchine_conditional_check(prob, cfg, n_particles, 2, seed=8).rows
        assert row.lhs == math.sqrt(var.max()) / n_particles

        replicates = 20_000
        hists = frozen_step_replay(frozen, g, kernel_rows, n_particles, replicates, seed=9)
        pool = frozen * g
        target = (pool / pool.sum()) @ kernel_rows
        sq = np.square((hists - target) @ fdict.T * n_particles)
        se = sq.std(axis=0, ddof=1) / math.sqrt(replicates)
        assert np.all(np.abs(sq.mean(axis=0) - var) <= 5.0 * se)

    def test_concentration_refuses_on_failed_hypothesis(self):
        # a barely-mixing kernel pushes b g (1+c) far above the level
        prob = GibbsProblem(
            v_values=[0.5, 0.65, 0.8, 1.0],
            reference=uniform_law(4),
            proposal=KernelMatrix.lazy_ring(4, 0.9),
        )
        cfg = AdaptiveConfig(epsilon=0.5, mcmc_iters=1)
        report = concentration_check(
            prob, cfg, (100,), 3, 50, 0.3, (0.1,), (1.0,), seed=9
        )
        levels = theoretical_adaptive_flow(prob, 0.5, 3).hypothesis_levels()
        first_bad = next(n for n, lvl in enumerate(levels, start=1) if lvl > 0.3)
        (row,) = report.rows
        assert (row.status, row.scope) == ("hypothesis-unmet", f"step={first_bad}")
        assert row.lhs == max(levels)

    def test_concentration_bounds_hold_under_hypothesis(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        report = concentration_check(
            prob, cfg, (200,), 3, 300, 0.6, (0.0, 0.1, 0.25), (1.0, 2.0), seed=10
        )
        assert all(r.status == "pass" for r in report.rows)
        zero_rows = [
            r for r in report.rows
            if r.name == "adaptive-tail-shape" and r.scope.endswith(",level=0")
        ]
        assert len(zero_rows) == 3
        # the bound is 1 at s = 0, and its binomial allowance is 0
        assert all(r.rhs == 1.0 for r in zero_rows)

    def test_concentration_check_without_steps(self):
        # a horizon of 0 has no hypothesis level and no exceedance rows
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        report = concentration_check(
            adaptive_problem(4), cfg, (40,), 0, 5, 0.6, (0.1,), (1.0,), seed=10
        )
        (row,) = report.rows
        assert (row.name, row.scope, row.lhs, row.rhs) == ("adaptive-hypothesis", "all", 0.0, 0.6)
        assert row.status == "pass"


def _count_fields(run):
    return (
        run.counts, run.log_gamma1, run.kept_fraction, run.mean_potential, run.ess,
        run.delta, run.beta, run.c, run.saturated, run.lambda_residual, run.iterations,
    )


# Three states with energies (0.5, 0.75, 1), so the increment always has a root.
LATTICE_PROBLEM = GibbsProblem(
    v_values=[0.5, 0.75, 1.0],
    reference=uniform_law(3),
    proposal=KernelMatrix.lazy_ring(3, 0.25),
)


class TestCountEngineLaw:
    """The adaptive count engine against the exact finite-N law and the
    exact reference, in law."""

    @pytest.mark.parametrize(
        "mode, n_particles, horizon",
        [("theoretical", 8, 3), ("theoretical", 12, 3), ("adaptive", 6, 2), ("adaptive", 12, 1)],
        ids=["theoretical-N8", "theoretical-N12", "adaptive-N6", "adaptive-N12"],
    )
    def test_counts_follow_the_lattice_law(self, mode, n_particles, horizon):
        # the counts at every step against the law of (c, beta), marginal
        # in beta; N = 6 and 8 sit below d^2 = 9, where each particle draws
        # its own move.  In adaptive mode the (c, beta) states multiply per
        # step, so that mode stays at N <= 6 or at one step.
        prob, reps = LATTICE_PROBLEM, 5000
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=2, mutation_mode=mode)
        if mode == "theoretical":
            kernels = theoretical_adaptive_flow(prob, 0.75, horizon, mcmc_iters=2).flow.kernels

            def kernel(n, beta):
                return kernels[n]
        else:
            def kernel(n, beta):
                return kernel_powers(metropolis_kernels(prob, [beta]), [2])[0]

        states, laws = adaptive_lattice_law(
            prob.v_values, gibbs_measure(prob, 0.0), 0.75, n_particles, horizon, kernel,
            realized=mode == "adaptive",
        )
        run = run_adaptive_counts(prob, cfg, n_particles, horizon, seed=42, replicates=reps)
        for n, law in enumerate(laws):
            marginal = np.zeros(len(states))
            for (i, _), p in law.items():
                marginal[i] += p
            cells = np.bincount(composition_index(states, run.counts[:, n]), minlength=len(states))
            assert pooled_chisquare(cells, marginal) > 1e-3, n

    def test_mean_histogram_matches_reference_eta(self):
        # the O(1/N) bias of eta^N sits far below the standard error at this N
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
        n_particles, horizon, reps = 100_000, 4, 1000
        ref = theoretical_adaptive_flow(prob, 0.75, horizon, mcmc_iters=3)
        hists = run_adaptive_counts(
            prob, cfg, n_particles, horizon, seed=43, replicates=reps, reference=ref
        ).histograms
        for n, eta in enumerate(ref.etas):
            se = hists[:, n].std(axis=0, ddof=1) / math.sqrt(reps)
            z = np.abs(hists[:, n].mean(axis=0) - eta) / se
            assert np.all(z <= 4.0), (n, z)

    @pytest.mark.parametrize("mode", ["theoretical", "adaptive"])
    def test_mean_kept_fraction_is_epsilon(self, mode):
        # given the counts, the expected kept count is N lambda(Delta) = N eps
        prob = adaptive_problem(6)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3, mutation_mode=mode)
        reps = 2000
        run = run_adaptive_counts(prob, cfg, 1000, 5, seed=44, replicates=reps)
        assert not run.saturated.any() and np.all(run.lambda_residual <= cfg.tol)
        kept = run.kept_fraction
        z = np.abs(kept.mean(axis=0) - 0.75) / (kept.std(axis=0, ddof=1) / math.sqrt(reps))
        assert np.all(z <= 4.0), z

    def test_solver_records_iterations_and_residuals(self):
        prob = adaptive_problem(6)
        cfg = AdaptiveConfig(epsilon=0.75, tol=1e-10, mcmc_iters=3)
        run = run_adaptive_counts(prob, cfg, 1000, 6, seed=45, replicates=BLOCK + 1)
        assert run.iterations.shape == (BLOCK + 1, 6)
        assert np.all((run.iterations >= 1) & (run.iterations <= 8))
        assert np.all(run.lambda_residual <= 1e-10)

    def test_saturation_flag_on_zero_energy_states(self):
        prob = GibbsProblem(
            v_values=[0.0, 0.0, 1.0],
            reference=uniform_law(3),
            proposal=KernelMatrix.lazy_ring(3, 0.25),
        )
        cfg = AdaptiveConfig(epsilon=0.5, mutation_mode="adaptive", delta_max=10.0)
        run = run_adaptive_counts(prob, cfg, 60, 2, seed=4, replicates=20)
        assert run.saturated.any() and np.all(run.delta <= 10.0)
        assert np.array_equal(run.delta[run.saturated], np.full(run.saturated.sum(), 10.0))

    def test_inputs(self):
        prob = adaptive_problem(4)
        cfg = AdaptiveConfig(epsilon=0.75)
        with pytest.raises(InputError):
            run_adaptive_counts(prob, cfg, 0, 2, seed=0)
        with pytest.raises(InputError):
            run_adaptive_counts(prob, cfg, 10, 2, seed=0, replicates=0)
        short = theoretical_adaptive_flow(prob, 0.75, 1)
        with pytest.raises(InputError):
            run_adaptive_counts(prob, cfg, 10, 2, seed=0, reference=short)


class TestCountEngineContract:
    @settings(max_examples=15, deadline=None)
    @given(
        replicate=st.integers(0, 2 * BLOCK),
        extra=st.integers(1, 2 * BLOCK),
        mode=st.sampled_from(["theoretical", "adaptive"]),
    )
    def test_row_independent_of_replicate_count(self, replicate, extra, mode):
        prob = adaptive_problem(6)
        cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=2, mutation_mode=mode)
        short = run_adaptive_counts(prob, cfg, 300, 3, seed=5, replicates=replicate + 1)
        long = run_adaptive_counts(prob, cfg, 300, 3, seed=5, replicates=replicate + 1 + extra)
        rows = slice(replicate + 1)
        for a, b in zip(_count_fields(short), _count_fields(long)):
            assert np.array_equal(a[rows], b[rows])
