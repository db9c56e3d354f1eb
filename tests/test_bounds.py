"""Constant calculators: spec'd examples, frozen derived values, and the
structural properties (monotonicity, determinism, guards)."""

import itertools
import math

import numpy as np
import pytest

from fkips import bounds
from fkips.bounds import (
    BoundReport,
    CheckRow,
    RegimeParams,
    adaptive_deviation_threshold,
    adaptive_tail_bound,
    bp_constant,
    condition_bounded,
    condition_decreasing,
    critical_delta_beta,
    deviation_thresholds,
    eta_deviation_threshold,
    gamma_log_ratio_threshold_bounded,
    gamma_log_ratio_threshold_decreasing,
    gibbs_tail_bound,
    h0,
    h1,
    lp_uniform_bound,
    r_star_bounded,
    r_star_decreasing,
    r_tilde_bounded,
    r_tilde_decreasing,
    tune_mcmc_iters,
    u_sequences,
)
from fkips.errors import BudgetExceededError, InputError
from fkips.flow import worst_excess

from .instances import table_check_flows
from .oracles import composed_cap_records
from .test_flow import assert_batch_is_records


class TestMomentConstants:
    def test_low_orders(self):
        assert bp_constant(1) == pytest.approx(1.0, abs=1e-14)
        assert bp_constant(2) == pytest.approx(1.0, abs=1e-14)
        assert bp_constant(4) == pytest.approx(3.0**0.25, rel=1e-14)

    def test_odd_order_formula(self):
        # B_3^3 = 3!/(2 * 1! * sqrt(3))
        assert bp_constant(3) == pytest.approx((6.0 / (2.0 * math.sqrt(3.0))) ** (1 / 3), rel=1e-14)

    def test_large_order_stays_finite(self):
        val = bp_constant(400)
        assert math.isfinite(val) and val > 1.0

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            bp_constant(0)


class TestTailShapes:
    def test_at_zero(self):
        assert h0(0.0) == 0.0 and h1(0.0) == 0.0

    def test_point_values(self):
        assert h0(1.0) == pytest.approx(4.0, abs=1e-15)
        assert h1(2.0) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_monotone(self):
        xs = np.linspace(0.0, 5.0, 40)
        assert all(h0(b) >= h0(a) for a, b in zip(xs, xs[1:]))
        assert all(h1(b) >= h1(a) for a, b in zip(xs, xs[1:]))

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            h0(-0.1)
        with pytest.raises(InputError):
            h1(-0.1)


class TestUniformRegimeConstants:
    def test_infinite_population_limit(self):
        r1, r2 = r_star_bounded(RegimeParams(a=0.5, g_sup=1.0, n_particles=10**18))
        # closed form with the 1/sqrt(N) term zeroed:
        # 4.5 * 1.5^2 / 0.5 + sqrt(8 / sqrt(0.75)) = 23.28934274...
        assert r1 == pytest.approx(23.289342742606372, rel=1e-8)
        assert r2 == pytest.approx(84.039342742606377, rel=1e-8)

    def test_regression_pin_n_100(self):
        r1, r2 = r_star_bounded(RegimeParams(a=0.5, g_sup=1.0, n_particles=100))
        assert r1 == pytest.approx(23.895216633759098, rel=1e-13)
        assert r2 == pytest.approx(84.6452166337591, rel=1e-13)

    def test_second_constant_dominates_on_a_grid(self):
        for a in (0.1, 0.5, 0.9):
            for g in (1.0, 2.0, 5.0):
                for n in (1, 100, 10**6):
                    r1, r2 = r_star_bounded(RegimeParams(a=a, g_sup=g, n_particles=n))
                    assert r2 >= r1 > 0

    def test_mass_ratio_constants(self):
        rt1, rt2 = r_tilde_bounded(RegimeParams(a=0.5, g_sup=1.0, n_particles=100))
        assert rt1 == pytest.approx(36.0, rel=1e-14)
        assert rt2 == pytest.approx(8.0, rel=1e-14)

    def test_mass_ratio_small_a_limit(self):
        rt1, rt2 = r_tilde_bounded(RegimeParams(a=1e-9, g_sup=1.0, n_particles=100))
        assert rt1 == pytest.approx(8.0, rel=1e-6)
        assert rt2 == pytest.approx(4.0, rel=1e-6)

    def test_monotone_in_ratio_cap(self):
        grid = np.linspace(1.0, 6.0, 20)
        vals = [
            r_tilde_bounded(RegimeParams(a=0.3, g_sup=g, n_particles=50))[0] for g in grid
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_degree(self):
        with pytest.raises(InputError):
            RegimeParams(a=1.0, g_sup=1.0, n_particles=10)


class TestDecreasingRegimeConstants:
    def test_flat_schedule_collapses(self):
        u1, u2, u3 = u_sequences([1.0] * 10, 0.5, 10)
        assert u1 == pytest.approx(1.0, abs=1e-12)
        assert u2 == pytest.approx(1.0, abs=1e-15)
        assert u3 == pytest.approx(1.0, abs=1e-15)

    def test_constant_schedule_cesaro_value(self):
        # alpha = 1 at a = 0.5, so the Cesaro mean of g^(3+2 alpha) is g^5
        g = 1.3
        _, u2, _ = u_sequences([g] * 8, 0.5, 8)
        assert u2 == pytest.approx(g**5, rel=1e-13)

    def test_halving_schedule_frozen_values(self):
        # g_p = 1 + 2^-p, a = 0.5, n = 10, computed by direct summation
        # (u2 sits marginally above 2: the mean of (1 + 2^-p)^5 is 2.0123)
        g10 = [1 + 2.0 ** (-k) for k in range(1, 11)]
        u1, u2, u3 = u_sequences(g10, 0.5, 10)
        assert u1 == pytest.approx(1.0155290664577021, rel=1e-12)
        assert u2 == pytest.approx(2.012261016700907, rel=1e-12)
        assert u3 == pytest.approx(1.1104674641988344, rel=1e-12)
        # supplying g_11 refines the one clamped index
        g11 = [1 + 2.0 ** (-k) for k in range(1, 12)]
        u1_ext, _, _ = u_sequences(g11, 0.5, 10)
        assert u1_ext == pytest.approx(1.0145503565602494, rel=1e-12)

    def test_deviation_constants_frozen(self):
        g10 = [1 + 2.0 ** (-k) for k in range(1, 11)]
        dec = r_star_decreasing(g10, 0.5, 400, 10)
        assert dec.r3 == pytest.approx(12.325916093250706, rel=1e-12)
        assert dec.r4 == pytest.approx(39.74520088760867, rel=1e-12)
        rt3, rt4, rt5 = r_tilde_decreasing(g10, 0.5, 10)
        assert rt3 == pytest.approx(64.39235253442902, rel=1e-12)
        assert rt4 == pytest.approx(3.5555572509765625, rel=1e-12)
        assert rt5 == pytest.approx(12.563505187552408, rel=1e-12)

    def test_rejects_increasing_schedule(self):
        with pytest.raises(InputError):
            u_sequences([1.0, 1.5], 0.5, 2)

    def test_rejects_sub_unit_ratio(self):
        with pytest.raises(InputError):
            u_sequences([0.9], 0.5, 1)


class TestMixingConditions:
    def test_bounded_examples(self):
        assert condition_bounded(1.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert condition_bounded(9.0, 0.9) == pytest.approx(0.9 / 9.9, rel=1e-15)
        assert condition_bounded(1e12, 0.5) < 1e-12

    def test_decreasing_limit_flag(self):
        level = condition_decreasing(1.0, 0.5)
        assert level.value == 0.5 and level.at_limit

    def test_decreasing_example(self):
        level = condition_decreasing(2.0, 0.5)
        assert level.value == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert not level.at_limit

    def test_near_one_stability(self):
        # expm1/log1p evaluation vs direct powers at g = 1.01, a = 0.5
        level = condition_decreasing(1.01, 0.5)
        direct = min((1.01 - 1.0) / (1.01**2 - 1.0), 0.5 / 1.01**2)
        assert level.value == pytest.approx(direct, rel=1e-12)
        assert level.value == pytest.approx(0.4901480247034604, rel=1e-12)
        # approaches the limit smoothly
        closer = condition_decreasing(1.0 + 1e-12, 0.5)
        assert closer.value == pytest.approx(0.5, abs=1e-9)


class TestIterationTuning:
    def test_bounded_example(self):
        # keep-spread ln 2, a = 0.5, beta = 0, unit minorization:
        # ceil(log((2 + 0.5)/0.5)) = ceil(ln 5) = 2
        m = tune_mcmc_iters(0.0, 1.0, 1.0, 0.5, "bounded", delta_osc=math.log(2.0))
        assert m == 2

    def test_decreasing_example(self):
        m = tune_mcmc_iters(0.0, 1.0, 1.0, 1.0 / math.e, "decreasing", delta_p_osc=0.0)
        assert m == 1

    def test_exponential_growth_in_beta(self):
        base = tune_mcmc_iters(1.0, 0.5, 1.0, 0.5, "bounded", delta_osc=0.5)
        doubled = tune_mcmc_iters(2.0, 0.5, 1.0, 0.5, "bounded", delta_osc=0.5)
        raw = math.log((math.exp(0.5) + 0.5) / 0.5) / 0.5
        assert base == math.ceil(raw * math.e)
        assert doubled == math.ceil(raw * math.e**2)

    def test_budget_error_carries_raw_value(self):
        with pytest.raises(BudgetExceededError) as err:
            tune_mcmc_iters(100.0, 1e-3, 1.0, 0.5, "bounded", delta_osc=0.5)
        assert err.value.raw > 2.0**63

    def test_mode_validation(self):
        with pytest.raises(InputError):
            tune_mcmc_iters(0.0, 1.0, 1.0, 0.5, "bogus", delta_osc=0.1)
        with pytest.raises(InputError):
            tune_mcmc_iters(0.0, 1.0, 1.0, 0.5, "bounded")


class TestCriticalIncrement:
    def test_unit_case(self):
        assert critical_delta_beta(1.0 / math.e, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_quarter_case(self):
        assert critical_delta_beta(1.0 / math.e, 4.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_scaling_homogeneity(self):
        base = critical_delta_beta(0.3, 1.2, 0.7)
        for c in (2.0, 5.0, 11.0):
            assert critical_delta_beta(0.3, c * 1.2, 0.7) == pytest.approx(
                base / math.sqrt(c), rel=1e-12
            )

    def test_rejects_unit_degree(self):
        with pytest.raises(InputError):
            critical_delta_beta(1.0, 1.0, 1.0)


class TestGibbsTail:
    def test_zero_temperature(self):
        assert gibbs_tail_bound(0.0, 1.0, 0.5, 0.25) == pytest.approx(4.0)

    def test_ordering_enforced(self):
        with pytest.raises(InputError):
            gibbs_tail_bound(1.0, 0.5, 0.5, 0.25)

    def test_monotone_in_beta(self):
        vals = [gibbs_tail_bound(b, 1.5, 0.5, 0.25) for b in np.linspace(0.0, 5.0, 30)]
        assert all(y <= x for x, y in zip(vals, vals[1:]))


class TestThresholdHelpers:
    def test_eta_threshold_shape(self):
        assert bounds.eta_deviation_threshold(10.0, 5.0, 100, 2.0) == pytest.approx(
            (10.0 * 100 + 5.0 * 2.0) / 100**2
        )

    def test_gamma_threshold_bounded_decomposition(self):
        val = gamma_log_ratio_threshold_bounded(36.0, 8.0, 4, 200, 2.0)
        assert val == pytest.approx(36.0 / 200 * h0(2.0) + 8.0 * h1(2.0 / 800), rel=1e-14)

    def test_lp_uniform_bound_value(self):
        assert lp_uniform_bound(2, 0.5, 400) == pytest.approx(1.0 / 20.0, rel=1e-14)

    def test_adaptive_tail_trivial_below_unit_scale(self):
        # below s = 1/((1-a) sqrt(N)) only the trivial bound is available
        assert adaptive_tail_bound(0.0, 400, 0.5) == 1.0
        assert adaptive_tail_bound(0.05, 400, 0.5) == 1.0

    def test_adaptive_tail_decay(self):
        vals = [adaptive_tail_bound(s, 400, 0.5) for s in (0.1, 0.2, 0.4, 0.8)]
        assert vals[0] == pytest.approx(1.0)  # u = 1 exactly
        assert all(y < x for x, y in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(8.0 * math.exp(0.5 * (1.0 - 64.0)), rel=1e-12)

    def test_adaptive_threshold_example(self):
        # y = 1: threshold is 2 r / sqrt(N) with r = 2/(1-a)
        a, n = 0.4, 256
        assert adaptive_deviation_threshold(1.0, n, a) == pytest.approx(
            2.0 * (2.0 / (1.0 - a)) / math.sqrt(n), rel=1e-14
        )
        with pytest.raises(InputError):
            adaptive_deviation_threshold(0.5, n, a)

    def test_regime_thresholds_equal_the_formula_chain(self):
        # deviation_thresholds picks each regime's formulas; every value is
        # the chain it replaces, bit for bit
        g_sched = [1.0 + 2.0**-p for p in range(1, 11)]   # decreasing, not constant
        grid = itertools.product((0.1, 0.5, 0.9), (1, 50, 1000), range(1, 11), (0.0, 1.0, 2.5))
        for a, n_particles, n, y in grid:
            for g_sup in (1.0, 1.7):
                params = RegimeParams(a=a, g_sup=g_sup, n_particles=n_particles)
                expected = (
                    eta_deviation_threshold(*r_star_bounded(params), n_particles, y),
                    gamma_log_ratio_threshold_bounded(
                        *r_tilde_bounded(params), n, n_particles, y
                    ),
                )
                got = deviation_thresholds("bounded", a, g_sup, n_particles, n, y)
                assert got == expected, (a, n_particles, n, y, g_sup)
            dec = r_star_decreasing(g_sched, a, n_particles, n)
            expected = (
                eta_deviation_threshold(dec.r3, dec.r4, n_particles, y),
                gamma_log_ratio_threshold_decreasing(
                    *r_tilde_decreasing(g_sched, a, n), n, n_particles, y
                ),
            )
            got = deviation_thresholds("decreasing", a, g_sched, n_particles, n, y)
            assert got == expected, (a, n_particles, n, y)
        with pytest.raises(InputError):
            deviation_thresholds("uniform", 0.5, 1.0, 100, 1, 1.0)


class TestReports:
    def test_bit_identical_repeat_calls(self):
        p = RegimeParams(a=0.37, g_sup=2.2, n_particles=123)
        assert r_star_bounded(p) == r_star_bounded(p)
        g = [1 + 2.0 ** (-k) for k in range(1, 9)]
        assert r_star_decreasing(g, 0.37, 123, 8) == r_star_decreasing(g, 0.37, 123, 8)

    def test_report_rendering(self):
        rep = BoundReport(
            name="demo", inputs={"a": 0.5}, values={"r1": 1.25}, formula_ref="r1 = ..."
        )
        text = rep.as_key_values()
        assert "name=demo" in text and "r1=1.25" in text
        assert rep.as_csv_rows() == [["demo", "r1", "1.25"]]

    def test_report_rejects_bad_values(self):
        with pytest.raises(InputError):
            BoundReport(name="bad", inputs={}, values={"x": float("nan")})
        with pytest.raises(InputError):
            BoundReport(name="bad", inputs={}, values={"x": -1.0})


class TestExceedanceRows:
    def test_frequency_is_count_over_replicates(self):
        exceeds = np.array([True, False, True, False, False, False, True])
        row = CheckRow.exceedance("x", "n=1", exceeds, 0.25)
        assert (row.name, row.scope, row.lhs) == ("x", "n=1", 3 / 7)
        assert row.rhs == 0.25 + 3.0 * math.sqrt(0.25 * 0.75 / 7)

    @pytest.mark.parametrize("level", [1.0, 1.5])
    def test_allowance_is_zero_at_level_one_and_above(self, level):
        row = CheckRow.exceedance("x", "all", np.ones(9, dtype=bool), level)
        assert (row.lhs, row.rhs, row.status) == (1.0, level, "pass")

    def test_passes_exactly_when_lhs_at_most_rhs(self):
        rng = np.random.default_rng(3)
        seen = set()
        for level in (0.0, 0.01, math.exp(-2.0), 0.5, 1.0):
            for r in (1, 7, 40):
                for count in range(r + 1):
                    exceeds = rng.permutation(np.arange(r) < count)
                    row = CheckRow.exceedance("x", "all", exceeds, level)
                    assert row.status == ("pass" if row.lhs <= row.rhs else "fail")
                    seen.add(row.status)
        assert seen == {"pass", "fail"}
        # the boundary: no allowance at level 0, so one exceedance fails
        assert CheckRow.exceedance("x", "all", np.zeros(5, dtype=bool), 0.0).status == "pass"
        assert CheckRow.exceedance("x", "all", np.eye(5, dtype=bool)[0], 0.0).status == "fail"


class TestRawEstimates:
    def test_exact_tables_below_regime_simplifications(self):
        # under the uniform-regime hypothesis the raw estimate sums are
        # dominated by their closed-form simplifications:
        #   r_n <= 4 (g+a)^2/(1-a),  beta_bar^2 <= 4/(1-a^2),  b* <= 2,
        #   tau* <= 4 g / (n (1-a)),  r_bar <= 8 g (g+a)^2 / (1-a)
        from fkips.flow import raw_concentration_estimates

        from .instances import bounded_regime_flow

        a, g_sup = 0.5, math.exp(0.5)
        flow = bounded_regime_flow(8, a=a, g_cap=g_sup, seed=321)
        for n in (1, 4, 8):
            est = raw_concentration_estimates(flow, n)
            assert est.r_n <= 4.0 * (g_sup + a) ** 2 / (1.0 - a) + 1e-10
            assert est.beta_bar_sq <= 4.0 / (1.0 - a * a) + 1e-10
            assert est.b_star <= 2.0 + 1e-12
            assert est.tau_star <= 4.0 * g_sup / (n * (1.0 - a)) + 1e-10
            assert est.r_bar <= 8.0 * g_sup * (g_sup + a) ** 2 / (1.0 - a) + 1e-10
            assert 0.0 < est.sigma_bar_sq <= n + 1e-12

    def test_raw_eta_tail_level_shrinks_in_eps(self):
        levels = [
            bounds.raw_eta_tail_level(2.0, 3.0, 1.5, 400, eps) for eps in (0.0, 0.1, 0.2)
        ]
        assert levels[0] == 1.0
        assert levels[0] > levels[1] > levels[2]

    def test_raw_gamma_threshold_composition(self):
        val = bounds.raw_gamma_threshold(10.0, 0.5, 3.0, 200, 2.0)
        assert val == pytest.approx(
            10.0 / 200 * h0(2.0) + 0.5 * 3.0 * h1(2.0 / 600.0), rel=1e-14
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestComposedCapChecks:
    @pytest.mark.parametrize("regime", ["bounded", "decreasing"])
    @pytest.mark.parametrize(
        "flow", [pytest.param(flow, id=name) for name, flow in table_check_flows()]
    )
    def test_cap_excess_is_the_per_pair_records(self, flow, regime):
        from fkips.harness import composed_cap_excess, composed_caps

        a, g_sup = 0.5, max(flow.trace.g, default=1.0)
        batch = composed_cap_excess(flow, regime, a, g_sup)
        assert_batch_is_records(batch, composed_cap_records(flow, regime, a, g_sup))
        assert composed_caps(flow, regime, a, g_sup) == worst_excess(*batch)

    def test_uniform_caps_on_conditioned_random_flows(self):
        from fkips.harness import composed_caps

        from .instances import bounded_regime_flow

        a, g_sup = 0.5, math.exp(0.5)
        for seed in (11, 22, 33, 44):
            flow = bounded_regime_flow(6, a=a, g_cap=g_sup, seed=seed)
            ok, worst, scope = composed_caps(flow, "bounded", a, g_sup)
            assert ok, (seed, worst, scope)

    def test_decreasing_caps_on_conditioned_random_flows(self):
        from fkips.harness import composed_caps

        from .instances import decreasing_regime_flow

        for seed in (55, 66, 77):
            flow = decreasing_regime_flow(8, seed=seed)
            ok, worst, scope = composed_caps(flow, "decreasing", 0.5)
            assert ok, (seed, worst, scope)

    def test_caps_report_the_closest_pair_with_p_below_n(self):
        # a p = n pair is the identity g b = 1 = a^0 with excess exactly 0,
        # which would pin every passing row at lhs 0, scope p=0,n=0; the
        # worst excess is taken over p < n, and at horizon 0 the identity,
        # the only pair, stays
        from fkips.flow import FlowSpec
        from fkips.harness import composed_caps
        from fkips.measures import FiniteDistribution

        from .instances import bounded_regime_flow, decreasing_regime_flow

        a, g_sup = 0.5, math.exp(0.5)
        for flow, caps in (
            (bounded_regime_flow(6, a=a, g_cap=g_sup, seed=11),
             lambda f: composed_caps(f, "bounded", a, g_sup)),
            (decreasing_regime_flow(8, seed=55), lambda f: composed_caps(f, "decreasing", a)),
        ):
            ok, worst, scope = caps(flow)
            g, b = flow.table.g, flow.table.b
            stability = max(
                g[p, n] * b[p, n] / a ** (n - p) - 1.0
                for n in range(flow.horizon + 1) for p in range(n)
            )
            p, n = (int(part.split("=")[1]) for part in scope.split(",")[1:])
            assert ok and stability <= worst < 0 and p < n, scope
            assert caps(FlowSpec(flow.initial, ())) == (True, 0.0, "g_pn*b_pn,p=0,n=0")

    def test_caps_are_relative_below_one(self):
        # constant potentials and M = 0.5 * 1 pi + 0.5 * Perm give
        # b_{p,n} = 0.5^(n-p) exactly; a cap a^(n-p) with a = 0.5 (1 - 1e-10)
        # is missed by about (n-p) * 1e-10 relative, which an absolute slack
        # of 1e-10 cannot see at any n-p
        from fkips.flow import FlowSpec
        from fkips.harness import composed_caps
        from fkips.measures import FiniteDistribution, KernelMatrix, PotentialVector

        dim, horizon = 4, 30
        kernel = KernelMatrix(0.5 / dim + 0.5 * np.roll(np.eye(dim), 1, axis=1))
        flow = FlowSpec(
            FiniteDistribution.uniform(dim), ((PotentialVector.constant(dim), kernel),) * horizon
        )
        ok, worst, scope = composed_caps(flow, "bounded", 0.5 * (1.0 - 1e-10), 1.0)
        assert not ok
        assert worst == pytest.approx(horizon * 1e-10, rel=1e-3)
        assert scope == f"g_pn*b_pn,p=0,n={horizon}"
        ok, worst, _ = composed_caps(flow, "bounded", 0.5, 1.0)
        assert ok and worst <= 1e-13

    def test_stacked_mcmc_mixing_rule(self):
        # adding m chain iterations after a mutation kernel multiplies the
        # coefficient caps: dob(M . K^m) <= dob(M) dob(K)^m
        import numpy as np

        from fkips.measures import KernelMatrix, dobrushin

        from .oracles import random_kernel_rows

        rng = np.random.Generator(np.random.Philox(key=np.uint64(88)))
        for _ in range(100):
            d = int(rng.integers(2, 7))
            m_kernel = KernelMatrix(random_kernel_rows(rng, d))
            k_kernel = KernelMatrix(random_kernel_rows(rng, d))
            m = int(rng.integers(1, 5))
            lhs = dobrushin(m_kernel.compose(k_kernel.power(m)))
            assert lhs <= dobrushin(m_kernel) * dobrushin(k_kernel) ** m + 1e-12
