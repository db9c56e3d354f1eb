"""Exact flow oracle: step semantics, mass identities, composed operators
and the stability estimates."""

import hashlib
import math

import numpy as np
import pytest

from fkips import flow
from fkips.errors import InputError
from fkips.flow import (
    FlowSpec,
    check_semigroup_lemmas,
    fk_step,
    run_flow,
    semigroup_lemma_excess,
    stability_sums,
)
from fkips.measures import (
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
    total_variation,
)

from .instances import bounded_regime_flow, decreasing_regime_flow, random_flow, table_check_flows
from .oracles import (
    composed_by_product,
    composed_table_by_product,
    gamma_by_recursion,
    kernel_potential_smoothing,
    random_distribution,
    random_kernel_rows,
    random_potential_values,
    semigroup_lemma_records,
    weights_by_recursion,
    worst_record,
)


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def raw_steps(spec):
    return [(g.values, m.rows) for g, m in spec.steps]


class TestFkStep:
    def test_identity_maps(self):
        mu = FiniteDistribution([0.2, 0.8])
        out = fk_step(mu, PotentialVector.constant(2), KernelMatrix.identity(2))
        assert np.allclose(out.weights, mu.weights, atol=1e-15)

    def test_reweighting_only(self):
        out = fk_step(
            FiniteDistribution([0.5, 0.5]),
            PotentialVector([1.0, 3.0]),
            KernelMatrix.identity(2),
        )
        assert np.allclose(out.weights, [0.25, 0.75], atol=1e-15)

    def test_pure_pushforward(self):
        out = fk_step(
            FiniteDistribution([1.0, 0.0]),
            PotentialVector.constant(2),
            KernelMatrix([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert np.allclose(out.weights, [0.0, 1.0])


class TestRunFlow:
    def test_empty_horizon(self):
        spec = FlowSpec(FiniteDistribution.uniform(3), ())
        trace = run_flow(spec)
        assert trace.horizon == 0
        assert trace.gamma1 == (1.0,)

    def test_constant_potential_mass(self):
        spec = FlowSpec(
            FiniteDistribution.uniform(2),
            ((PotentialVector.constant(2, 1.7), KernelMatrix.uniform(2)),) * 5,
        )
        trace = run_flow(spec)
        for n in range(6):
            assert trace.gamma1[n] == pytest.approx(1.7**n, rel=1e-14)

    def test_mass_recursion_matches_raw_weight_recursion(self):
        rng = rng_for(11)
        for _ in range(25):
            spec = random_flow(rng)
            trace = run_flow(spec)
            steps = raw_steps(spec)
            for n in range(spec.horizon + 1):
                expected = gamma_by_recursion(spec.initial.weights, steps[:n])
                assert trace.gamma1[n] == pytest.approx(expected, rel=1e-12)

    def test_normalized_law_matches_mass_ratio(self):
        # eta_n(f) = gamma_n(f) / gamma_n(1) on a fixed random flow
        rng = rng_for(12)
        spec = random_flow(rng, dim=3, horizon=4)
        trace = run_flow(spec)
        steps = raw_steps(spec)
        f = rng.standard_normal(3)
        num = gamma_by_recursion(spec.initial.weights, steps, f)
        den = gamma_by_recursion(spec.initial.weights, steps)
        assert trace.etas[4].expect(f) == pytest.approx(num / den, rel=1e-12)


class TestSemigroup:
    """``spec.table`` against plain products of ``diag(G_k) K_k``."""

    def test_endpoint_is_identity(self):
        rng = rng_for(13)
        spec = random_flow(rng, dim=4, horizon=3)
        # Q_{2,2} = I: h = 1 and P_{2,2} = I, whose coefficient is 1
        assert spec.table.g[2, 2] == 1.0
        assert spec.table.b[2, 2] == 1.0
        assert spec.table.mass[2, 2] == pytest.approx(spec.trace.gamma1[2], rel=1e-14)

    def test_single_step_transition_is_the_kernel(self):
        # P_{p,p+1} row-normalizes diag(G) K back to K; a rank-one kernel
        # therefore gives a zero coefficient
        spec = FlowSpec(
            FiniteDistribution.uniform(3),
            ((PotentialVector([1.0, 2.0, 3.0]), KernelMatrix.uniform(3)),),
        )
        assert spec.table.b[0, 1] == 0.0
        rng = rng_for(13)
        spec = random_flow(rng, dim=5, horizon=4)
        for p in range(4):
            assert spec.table.b[p, p + 1] == pytest.approx(spec.trace.b[p], abs=1e-14)
            assert spec.table.g[p, p + 1] == pytest.approx(spec.trace.g[p], rel=1e-14)

    def test_two_route_law_evaluation(self):
        # composed-operator evaluation equals three chained steps
        rng = rng_for(14)
        spec = random_flow(rng, dim=4, horizon=3)
        mu = FiniteDistribution(random_distribution(rng, 4))
        f = rng.standard_normal(4)
        q, h, _ = composed_by_product(raw_steps(spec), 0, 3, 4)
        via_operator = float(mu.weights @ (q @ f)) / float(mu.weights @ h)
        stepped = mu
        for g, m in spec.steps:
            stepped = fk_step(stepped, g, m)
        assert via_operator == pytest.approx(stepped.expect(f), rel=1e-11)

    def test_mass_identity_every_split(self):
        rng = rng_for(15)
        spec = random_flow(rng, dim=3, horizon=4)
        trace, steps = run_flow(spec), raw_steps(spec)
        f = rng.standard_normal(3)
        for n in range(5):
            direct = trace.etas[n].expect(f) * trace.gamma1[n]
            for p in range(n + 1):
                q, _, _ = composed_by_product(steps, p, n, 3)
                split = float(weights_by_recursion(spec.initial.weights, steps[:p]) @ (q @ f))
                assert split == pytest.approx(direct, rel=1e-10)
                assert spec.table.mass[p, n] == pytest.approx(trace.gamma1[n], rel=1e-10)

    def test_table_matches_pointwise_builds(self):
        # every entry of the table against its own explicit product
        rng = rng_for(16)
        for _ in range(20):
            spec = random_flow(rng, dim=int(rng.integers(2, 6)), horizon=int(rng.integers(1, 5)))
            g, b, mass = composed_table_by_product(spec.initial.weights, raw_steps(spec))
            table = spec.table
            np.testing.assert_array_equal(np.isnan(table.g), np.isnan(g))
            upper = ~np.isnan(g)
            np.testing.assert_allclose(table.g[upper], g[upper], rtol=1e-12, atol=0)
            np.testing.assert_allclose(table.b[upper], b[upper], rtol=0, atol=1e-12)
            np.testing.assert_allclose(table.mass[upper], mass[upper], rtol=1e-12, atol=0)

    def test_underflow_guard(self):
        # four annealing steps at beta = 200 drive the composed potential
        # minimum to exp(-800) < 1e-300; the table rescales each step and
        # keeps its scale in log space, so g stays finite and the mass
        # identity holds
        step = (PotentialVector.boltzmann([0.5, 1.0], 200.0), KernelMatrix.identity(2))
        spec = FlowSpec(FiniteDistribution.uniform(2), (step,) * 4)
        table, trace = spec.table, spec.trace
        for n in range(5):
            for p in range(n + 1):
                assert math.isfinite(table.g[p, n])
                assert table.g[p, n] == pytest.approx(math.exp(100.0 * (n - p)), rel=1e-10)
                assert table.mass[p, n] == pytest.approx(trace.gamma1[n], rel=1e-10)

    def test_index_validation(self):
        # the table has an entry exactly for 0 <= p <= n <= horizon
        rng = rng_for(17)
        spec = random_flow(rng, dim=3, horizon=2)
        for arr in (spec.table.g, spec.table.b, spec.table.mass):
            assert arr.shape == (3, 3)
            assert not arr.flags.writeable
            np.testing.assert_array_equal(np.isnan(arr), np.tri(3, k=-1, dtype=bool))

    def test_table_bytes_pinned(self):
        # sha256 of the g, b and mass bytes of one seeded d = 64, T = 12
        # table.  Re-pinned when b_{n-1,n} came to be read from the trace:
        # against the earlier pin only those b entries moved (10 of 12, by at
        # most 1.6e-15 relative), from the centred product's roundoff to
        # dobrushin(M_n) itself
        table = bounded_regime_flow(12, dim=64, seed=13).table
        digest = hashlib.sha256()
        for arr in (table.g, table.b, table.mass):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "5f9de93b223eaa4a656b1b4c098c12d42a09ff27fd80690483d7b63b6d626a1c"
        )

    def test_one_step_coefficient_is_the_trace_value(self):
        # h_{n,n} = 1 makes R_n = M_n, so b_{n-1,n} is dobrushin(M_n) bit for
        # bit, on every flow the shared instances build
        rng = rng_for(19)
        specs = [
            bounded_regime_flow(12, dim=64, seed=13),
            bounded_regime_flow(8),
            decreasing_regime_flow(8, dim=6),
            *(random_flow(rng) for _ in range(10)),
        ]
        for spec in specs:
            b, trace_b = spec.table.b, spec.trace.b
            assert [b[n - 1, n] for n in range(1, spec.horizon + 1)] == list(trace_b)

    def test_table_is_independent_of_the_stack_cap(self, monkeypatch):
        # a cap below one matrix reduces the trace's coefficients one kernel
        # at a time and each end time's column in stacks of two
        spec = bounded_regime_flow(12, dim=16, seed=5)
        trace_b, table = spec.trace.b, spec.table
        monkeypatch.setattr(flow, "_STACK_BYTES", 1)
        capped = FlowSpec(spec.initial, spec.steps)
        assert capped.trace.b == trace_b
        for name in ("g", "b", "mass"):
            np.testing.assert_array_equal(getattr(capped.table, name), getattr(table, name))

    def test_closed_form_coefficients(self):
        # M = 0.8 * 1 pi + 0.2 * Perm with constant potentials: P_{p,n} =
        # M^(n-p) and its coefficient is 0.2^(n-p) exactly, down to 1e-42
        dim, beta, horizon = 16, 0.2, 60
        perm = np.roll(np.eye(dim), 1, axis=1)
        kernel = KernelMatrix((1.0 - beta) / dim + beta * perm)
        spec = FlowSpec(
            FiniteDistribution.uniform(dim), ((PotentialVector.constant(dim), kernel),) * horizon
        )
        table = spec.table
        for n in range(horizon + 1):
            for p in range(n + 1):
                assert table.b[p, n] == pytest.approx(beta ** (n - p), rel=1e-10, abs=0), (p, n)
                assert table.g[p, n] == pytest.approx(1.0, rel=1e-12)


def assert_batch_is_records(batch, records):
    """An array batch of excesses holds the per-pair records, in their order
    and bit for bit, and reduces to the records' (ok, worst, scope)."""
    excesses, checked, scope = batch
    index = [tuple(int(i) for i in at) for at in np.argwhere(checked)]
    assert [scope(*at) for at in index] == [f"{name},p={p},n={n}" for name, p, n, _ in records]
    got = np.array([excesses[at] for at in index])
    assert got.tobytes() == np.array([r[3] for r in records]).tobytes()
    ok, worst, where = flow.worst_excess(*batch)
    want_ok, want_worst, want_where = worst_record(records)
    assert (ok, where) == (want_ok, want_where)
    assert np.float64(worst).tobytes() == np.float64(want_worst).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStabilityEstimates:
    @pytest.mark.parametrize(
        "spec", [pytest.param(spec, id=name) for name, spec in table_check_flows()]
    )
    def test_lemma_excess_is_the_per_pair_records(self, spec):
        assert_batch_is_records(semigroup_lemma_excess(spec), semigroup_lemma_records(spec))
        assert check_semigroup_lemmas(spec) == flow.worst_excess(*semigroup_lemma_excess(spec))

    def test_lemma_report_on_fixed_flows(self):
        rng = rng_for(18)
        for _ in range(30):
            ok, worst, scope = check_semigroup_lemmas(
                random_flow(rng, horizon=int(rng.integers(1, 5)))
            )
            assert ok, (worst, scope)

    def test_identity_kernels_everywhere(self):
        spec = FlowSpec(
            FiniteDistribution.uniform(3),
            ((PotentialVector([1.0, 2.0, 0.5]), KernelMatrix.identity(3)),) * 3,
        )
        assert check_semigroup_lemmas(spec)[0]

    def test_rank_one_kernels_everywhere(self):
        spec = FlowSpec(
            FiniteDistribution.uniform(3),
            ((PotentialVector([1.0, 2.0, 0.5]), KernelMatrix.uniform(3)),) * 3,
        )
        assert check_semigroup_lemmas(spec)[0]
        # composed transitions collapse immediately: b_{p,n} = 0 exactly
        # for p < n, so the mixing bounds with rhs = 0 hold with no slack
        upper = np.triu(np.ones((4, 4), dtype=bool), k=1)
        assert np.all(spec.table.b[upper] == 0.0)

    def test_flat_potentials_and_near_rank_one_kernels(self):
        # relative comparisons where rhs < 1 must not read float resolution
        # as a failure: constant potentials make the potential-ratio sum
        # bound 0 and g_{p,n} - 1 roundoff, and a kernel 1e-9 from rank one
        # knows b_k only to a relative 1e-7
        rng = rng_for(22)
        for _ in range(20):
            d, horizon = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            flat, near = [], []
            for _ in range(horizon):
                rows = random_kernel_rows(rng, d)
                target = random_distribution(rng, d)
                flat.append((PotentialVector.constant(d, 0.5 + rng.random()), KernelMatrix(rows)))
                near.append((
                    PotentialVector(random_potential_values(rng, d)),
                    KernelMatrix((1.0 - 1e-9) * np.tile(target, (d, 1)) + 1e-9 * rows),
                ))
            for steps in (flat, near):
                spec = FlowSpec(FiniteDistribution.uniform(d), tuple(steps))
                ok, worst, scope = check_semigroup_lemmas(spec)
                assert ok, (worst, scope)

    def test_excess_is_relative_below_one(self):
        # an inequality holds when lhs - rhs <= tolerance * min(1, rhs)
        def holds(lhs, rhs):
            return flow.excess(lhs, rhs) <= 1e-10

        assert holds(1.0 + 0.9e-10, 1.0) and not holds(1.0 + 1.1e-10, 1.0)
        assert holds(4.0 + 0.9e-10, 4.0)
        assert holds(1e-12 * (1.0 + 0.9e-10), 1e-12)
        assert not holds(1e-12 * (1.0 + 1.1e-10), 1e-12)
        assert not holds(2e-12, 1e-12)   # within an absolute 1e-10
        assert holds(0.0, 0.0) and not holds(1e-300, 0.0)
        assert flow.excess(3e-12, 1e-12) == pytest.approx(2.0)

    def test_sum_form_with_bare_b_products_is_falsified(self):
        # Regression pin: carrying bare b_j products inside the potential
        # ratio sum (instead of g_j b_j) is NOT implied by the backward
        # recursion and fails on this 3-state instance.
        spec = FlowSpec(
            FiniteDistribution.uniform(3),
            ((PotentialVector([1.0, 2.0, 3.0]), KernelMatrix.lazy_ring(3, 0.4)),) * 2,
        )
        g, b = spec.table.g, spec.table.b
        step_g, step_b = np.diagonal(g, 1).tolist(), np.diagonal(b, 1).tolist()

        def worst_sum_excess(weights):
            # 1 + sum_{k=p+1..n} (g_k - 1) prod_{j=p+1..k-1} weights_j, every p <= n
            worst = -math.inf
            for n in range(spec.horizon + 1):
                for p in range(n + 1):
                    rhs, prod = 0.0, 1.0
                    for k in range(p, n):   # step k + 1
                        rhs += (step_g[k] - 1.0) * prod
                        prod *= weights[k]
                    worst = max(worst, float(flow.excess(g[p, n], 1.0 + rhs)))
            return worst

        assert worst_sum_excess(step_b) > 0.1
        assert worst_sum_excess([x * y for x, y in zip(step_g, step_b)]) <= 1e-10

    def test_kernel_potential_smoothing(self):
        lhs, rhs = kernel_potential_smoothing(KernelMatrix.uniform(3).rows, np.ones(3))
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
        lhs, rhs = kernel_potential_smoothing(np.eye(2), [1.0, 4.0])
        assert lhs == pytest.approx(4.0) and rhs == pytest.approx(4.0)
        rng = rng_for(19)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            lhs, rhs = kernel_potential_smoothing(
                random_kernel_rows(rng, d), random_potential_values(rng, d)
            )
            assert rhs - lhs >= -1e-12

    def test_composed_map_contracts_total_variation(self):
        # tv(phi(mu), phi(nu)) <= g_{0,3} b_{0,3} tv(mu, nu) for the
        # normalized composed map phi(mu) = mu Q / mu Q 1
        rng = rng_for(20)
        for _ in range(100):
            spec = random_flow(rng, dim=int(rng.integers(2, 6)), horizon=3)
            q, h, _ = composed_by_product(raw_steps(spec), 0, 3, spec.dim)
            mu = FiniteDistribution(random_distribution(rng, spec.dim))
            nu = FiniteDistribution(random_distribution(rng, spec.dim))
            phi_mu = (mu.weights @ q) / (mu.weights @ h)
            phi_nu = (nu.weights @ q) / (nu.weights @ h)
            lhs = 0.5 * np.abs(phi_mu - phi_nu).sum()
            constant = spec.table.g[0, 3] * spec.table.b[0, 3]
            assert lhs <= constant * total_variation(mu, nu) + 1e-12

    def test_stability_sums_match_tables(self):
        rng = rng_for(21)
        spec = random_flow(rng, dim=3, horizon=4)
        sums = stability_sums(spec)
        g, b, _ = composed_table_by_product(spec.initial.weights, raw_steps(spec))
        for n in range(5):
            expected = sum(g[p, n] * b[p, n] for p in range(n + 1))
            assert sums[n] == pytest.approx(expected, rel=1e-12)


class TestSpecLimits:
    def test_dimension_cap(self):
        with pytest.raises(InputError):
            FlowSpec(FiniteDistribution.uniform(5000), ())

    def test_mismatched_step_dimension(self):
        with pytest.raises(InputError):
            FlowSpec(
                FiniteDistribution.uniform(2),
                ((PotentialVector.constant(3), KernelMatrix.identity(3)),),
            )
