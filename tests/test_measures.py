"""Measure algebra: the law builders' contracts, the spec'd examples, and
the contraction properties that everything downstream leans on.  Total
variation, Boltzmann-Gibbs reweighting, the potential ratio and the
Dobrushin coefficient are test references in :mod:`tests.oracles`; their
laws are checked here too, the last one on the stacked reduction
``_max_row_l1`` that the package computes it with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkips import measures
from fkips.errors import DegenerateMeasureError, InputError
from fkips.flow import FlowSpec
from fkips.measures import (
    KernelMatrix,
    _max_row_l1,
    kernel_powers,
    law,
    normalized_law,
    osc,
    uniform_law,
)

from .oracles import (
    bg_transform,
    dobrushin,
    dobrushin_by_enumeration,
    potential_ratio,
    power_by_squaring,
    random_distribution,
    random_kernel_rows,
    random_potential_values,
    total_variation,
    tv_by_subsets,
)


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def coefficient(rows) -> float:
    """The package's Dobrushin coefficient of one kernel's rows: half the
    stacked reduction on a stack of one."""
    return 0.5 * float(_max_row_l1(np.asarray(rows, dtype=np.float64)[None])[0])


class TestConstructors:
    def test_distribution_normalizes_exactly(self):
        mu = law([0.3, 0.7 + 1e-10])
        assert mu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(InputError, match="expected 1 within"):
            law([0.3, 0.8])

    def test_distribution_rejects_negative(self):
        with pytest.raises(InputError, match="weights must be non-negative"):
            law([-0.1, 1.1])
        with pytest.raises(InputError, match="weights must be non-negative"):
            normalized_law([-0.1, 1.1])

    def test_distribution_rejects_bad_shape_and_values(self):
        for bad in ([], [[0.5, 0.5]]):
            with pytest.raises(InputError, match="weights must be a non-empty 1-d vector"):
                law(bad)
        with pytest.raises(InputError, match="weights must contain only finite values"):
            law([np.nan, 1.0])

    def test_weights_are_frozen(self):
        for mu in (law([0.5, 0.5]), normalized_law([1.0, 3.0]), uniform_law(2)):
            with pytest.raises(ValueError):
                mu[0] = 1.0

    def test_law_copies_its_input(self):
        weights = np.array([0.5, 0.5])
        mu = law(weights)
        weights[0] = 1.0
        assert mu.tolist() == [0.5, 0.5]

    def test_from_unnormalized(self):
        mu = normalized_law([2.0, 6.0])
        assert np.allclose(mu, [0.25, 0.75])
        with pytest.raises(DegenerateMeasureError):
            normalized_law([0.0, 0.0])

    def test_uniform(self):
        assert uniform_law(4).tolist() == [0.25] * 4
        with pytest.raises(InputError, match="dim must be >= 1"):
            uniform_law(0)

    def test_divisions_by_the_sum(self):
        # law divides once by the sum, normalized_law twice (by the total,
        # then by law) and uniform_law once: the bits the flows are built on
        w = np.array([0.1, 0.2, 0.3 + 3e-10, 0.4])
        assert law(w).tobytes() == (w / w.sum()).tobytes()
        once = w / w.sum()
        assert normalized_law(w).tobytes() == (once / once.sum()).tobytes()
        third = np.full(3, 1.0 / 3.0)
        assert uniform_law(3).tobytes() == (third / third.sum()).tobytes()

    def test_kernel_rows_stochastic(self):
        with pytest.raises(InputError):
            KernelMatrix([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(InputError):
            KernelMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_potential_strictly_positive(self):
        # a flow's potential table is validated by FlowSpec
        with pytest.raises(InputError, match="strictly positive"):
            FlowSpec(uniform_law(2), [[1.0, 0.0]], np.eye(2)[None])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            total_variation(law([1.0]), law([0.5, 0.5]))


class TestTotalVariation:
    def test_identical_measures(self):
        mu = law([0.3, 0.7])
        assert total_variation(mu, mu) == 0.0

    def test_disjoint_diracs(self):
        assert total_variation(law([1, 0]), law([0, 1])) == 1.0

    def test_half_l1_equals_subset_sup(self):
        mu = law([0.5, 0.5])
        nu = law([0.9, 0.1])
        assert total_variation(mu, nu) == pytest.approx(0.4, abs=1e-15)
        assert total_variation(mu, nu) == pytest.approx(tv_by_subsets(mu, nu), abs=1e-15)

    def test_subset_oracle_agrees_on_random_instances(self):
        rng = rng_for(1)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            w1, w2 = random_distribution(rng, d), random_distribution(rng, d)
            assert total_variation(law(w1), law(w2)) == pytest.approx(
                tv_by_subsets(w1, w2), abs=1e-12
            )


class TestDobrushin:
    def test_identity_kernel(self):
        assert coefficient(np.eye(2)) == 1.0

    def test_rank_one_kernel(self):
        assert coefficient(KernelMatrix.uniform(3).rows) == 0.0

    def test_two_state_example(self):
        k = KernelMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert coefficient(k.rows) == pytest.approx(0.7, abs=1e-15)
        assert coefficient(k.rows) == pytest.approx(dobrushin_by_enumeration(k.rows), abs=1e-15)

    def test_enumeration_oracle_on_random_kernels(self):
        rng = rng_for(2)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            rows = random_kernel_rows(rng, d)
            assert coefficient(KernelMatrix(rows).rows) == pytest.approx(
                dobrushin_by_enumeration(rows), abs=1e-12
            )

    def test_row_blocks_match_pairwise_total_variation(self):
        # at d = 200 one shift's row differences take 320 KB, over the
        # block cap, so the 100 shifts run in 100 blocks
        rng = rng_for(12)
        d = 200
        k = KernelMatrix(random_kernel_rows(rng, d))
        rows = [law(row) for row in k.rows]
        expected = max(
            total_variation(rows[x], rows[y]) for x in range(d) for y in range(x + 1, d)
        )
        assert coefficient(k.rows) == pytest.approx(expected, abs=1e-15)

    def test_stacked_reduction_is_bit_identical_to_row_pairs(self):
        # d = 128 and 129 spread their candidate pairs over several blocks
        # under the default cap; 10 000 matrices at d = 2 and 3, the shape a
        # long horizon's table reduces at each lag, span many blocks of rows
        self._check_reduction_against_row_pairs((1, 2, 3, 8, 9, 33, 64, 65, 128, 129))
        rng = rng_for(23)
        for d in (2, 3):
            self._check(self._mixed_rows(rng, d, 10_000))

    def test_one_row_per_block_is_bit_identical_to_row_pairs(self, monkeypatch):
        # a cap of one row per block spreads every matrix's candidate pairs
        # over many blocks
        monkeypatch.setattr(measures, "_DOBRUSHIN_BLOCK_BYTES", 8)
        self._check_reduction_against_row_pairs((1, 2, 3, 8, 9, 33, 64, 65))

    def test_pruning_margin_covers_rounding_of_tight_pairs(self):
        # the triangle bound is exact in real arithmetic here, so whether a
        # pair survives pruning turns on the last bits of its sums; with
        # seed 6, three of these matrices lose their maximum if the margin
        # is dropped
        rng = rng_for(6)
        stack = np.stack([self._tight_rows(rng, 64, 4) for _ in range(24)])
        self._check(stack)

    def test_non_contiguous_stacks(self):
        rng = rng_for(22)
        for d in (3, 9, 64):
            stack = self._cases(rng, d)
            self._check(np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1))
            self._check(stack[::-2])

    @classmethod
    def _check_reduction_against_row_pairs(cls, dims):
        rng = rng_for(21)
        for d in dims:
            stack = cls._cases(rng, d)
            expected = cls._check(stack)
            assert [0.5 * _max_row_l1(m[None])[0] for m in stack] == expected, d
            kernel = KernelMatrix(stack[0])
            assert coefficient(kernel.rows) == dobrushin(kernel.rows), d

    @staticmethod
    def _check(stack):
        """Compare the stacked reduction with the row-pair oracle, matrix by
        matrix and bit for bit; returns the oracle's values."""
        expected = [dobrushin(matrix) for matrix in stack]
        assert (0.5 * _max_row_l1(stack)).tolist() == expected, stack.shape
        return expected

    @classmethod
    def _cases(cls, rng, d):
        """A stack that mixes every kind of (d, d) matrix the reduction must
        get exact: random kernels, centred signed matrices like the table's,
        rank-one + 0.2 permutation rows (the exact-verify workload's kernels,
        in which every pair ties), the same with one row 1 ulp off the tie,
        tight triangle bounds, and rows scaled into the subnormal range."""
        kernel = random_kernel_rows(rng, d)
        tied = 0.8 * random_kernel_rows(rng, d)[0] + 0.2 * np.eye(d)[rng.permutation(d)]
        nudged = tied.copy()
        x = int(rng.integers(d))
        nudged[x] = np.nextafter(nudged[x], np.where(tied[x] > tied[x].min(), 2.0, -1.0))
        return np.stack([
            kernel,
            kernel - kernel[rng.integers(d)],
            tied,
            nudged,
            tied - tied[0],
            cls._tight_rows(rng, d, max(1, d // 16)),
            kernel * 2.0**-1060,
            (kernel - kernel[0]) * 2.0**-1040,
        ])

    @staticmethod
    def _mixed_rows(rng, d, count):
        """``count`` (d, d) matrices whose rows are each, at random, a random
        kernel row or a row of a rank-one + 0.2 permutation kernel, so some
        matrices tie in every pair, some in none and some in a few."""
        kernel = rng.random((count, d, d))
        kernel /= kernel.sum(axis=2, keepdims=True)
        target = rng.random((count, 1, d))
        target /= target.sum(axis=2, keepdims=True)
        perm = np.eye(d)[rng.permuted(np.tile(np.arange(d), (count, 1)), axis=1)]
        return np.where(rng.random((count, d, 1)) < 0.5, kernel, 0.8 * target + 0.2 * perm)

    @staticmethod
    def _tight_rows(rng, d, width):
        """Rows that are 0 but for one multiset of values, permuted onto
        disjoint columns: the five rows whose median is the reduction's
        centre stay 0, so |x_i - x_j| = r_i + r_j exactly, and the active
        rows tie up to the rounding of their sums."""
        rows = np.zeros((d, d))
        values, columns = 0.5 + rng.random(width), rng.permutation(d)
        centre_rows = np.linspace(0, d - 1, 5).astype(int)
        active = rng.permutation(np.setdiff1d(np.arange(d), centre_rows))[: d // width]
        for a, x in enumerate(active):
            rows[x, columns[a * width:(a + 1) * width]] = rng.permutation(values)
        return rows

    def test_submultiplicative_under_composition(self):
        rng = rng_for(3)
        for _ in range(200):
            d = int(rng.integers(2, 11))
            k1 = KernelMatrix(random_kernel_rows(rng, d)).rows
            k2 = KernelMatrix(random_kernel_rows(rng, d)).rows
            product = KernelMatrix(k1 @ k2).rows
            assert coefficient(product) <= coefficient(k1) * coefficient(k2) + 1e-12

    def test_contracts_oscillations(self):
        rng = rng_for(4)
        for _ in range(200):
            d = int(rng.integers(2, 11))
            k = KernelMatrix(random_kernel_rows(rng, d))
            f = rng.standard_normal(d)
            assert osc(k.rows @ f) <= coefficient(k.rows) * osc(f) + 1e-12

    def test_contracts_measure_pairs(self):
        rng = rng_for(5)
        for _ in range(200):
            d = int(rng.integers(2, 11))
            k = KernelMatrix(random_kernel_rows(rng, d))
            mu = law(random_distribution(rng, d))
            nu = law(random_distribution(rng, d))
            pushed = [law(m @ k.rows) for m in (mu, nu)]
            bound = coefficient(k.rows) * total_variation(mu, nu)
            assert total_variation(*pushed) <= bound + 1e-12


# exponents 0, 1 and 3, powers of two up to 2^34, 2^34 - 1 and one past 2^64
_EXPONENTS = (0, 1, 3, 2**20, 2**34 - 1, 2**34, 2**64 + 5)


class TestKernelPowers:
    def test_stack_is_bit_identical_to_one_kernel_at_a_time(self):
        # mixed exponents in one stack: each matrix leaves the loop at its
        # own bit length, and every power is the per-kernel loop's bits
        rng = rng_for(31)
        for d in (2, 3, 5, 8, 17, 33):
            stack = np.stack([random_kernel_rows(rng, d) for _ in range(2 * len(_EXPONENTS))])
            exps = list(_EXPONENTS) + list(reversed(_EXPONENTS))
            expected = [KernelMatrix(power_by_squaring(k, e)).rows for k, e in zip(stack, exps)]
            assert np.array_equal(kernel_powers(stack, exps), np.stack(expected)), d

    def test_method_is_bit_identical_to_the_loop(self):
        rng = rng_for(32)
        for d in (2, 9, 33):
            k = KernelMatrix(random_kernel_rows(rng, d))
            for e in _EXPONENTS:
                expected = KernelMatrix(power_by_squaring(k.rows, e)).rows
                assert np.array_equal(k.power(e).rows, expected), (d, e)

    def test_zeroth_power_is_the_identity(self):
        rows = random_kernel_rows(rng_for(33), 4)
        assert np.array_equal(kernel_powers(rows[None], [0])[0], np.eye(4))

    def test_empty_stack(self):
        assert kernel_powers(np.empty((0, 3, 3)), []).shape == (0, 3, 3)

    def test_negative_exponent_is_refused(self):
        rows = np.stack([np.eye(2)] * 2)
        with pytest.raises(InputError, match="exponent must be >= 0"):
            kernel_powers(rows, [1, -1])
        with pytest.raises(InputError, match="exponent must be >= 0"):
            KernelMatrix(np.eye(2)).power(-1)

    def test_one_exponent_per_matrix(self):
        with pytest.raises(InputError, match="one exponent per matrix"):
            kernel_powers(np.stack([np.eye(2)] * 2), [1])


class TestBoltzmannGibbs:
    def test_constant_potential_is_identity(self):
        mu = law([0.2, 0.3, 0.5])
        out = bg_transform(np.full(3, 7.0), mu)
        assert np.allclose(out, mu, atol=1e-15)

    def test_two_state_example(self):
        out = bg_transform([1.0, 3.0], law([0.5, 0.5]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_dirac_fixed_point(self):
        mu = law(np.eye(3)[0])
        out = bg_transform([5.0, 1.0, 2.0], mu)
        assert np.allclose(out, mu)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="potential dimension mismatch"):
            bg_transform(np.ones(3), uniform_law(2))

    def test_composition_law(self):
        # reweighting by G then G' equals reweighting by the product
        rng = rng_for(6)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            mu = law(random_distribution(rng, d))
            g1 = random_potential_values(rng, d)
            g2 = random_potential_values(rng, d)
            lhs = bg_transform(g2, bg_transform(g1, mu))
            rhs = bg_transform(g1 * g2, mu)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_reweighting_contraction(self):
        # tv(psi_G mu, psi_G nu) <= ratio(G) tv(mu, nu)
        rng = rng_for(7)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            g = random_potential_values(rng, d)
            mu = law(random_distribution(rng, d))
            nu = law(random_distribution(rng, d))
            lhs = total_variation(bg_transform(g, mu), bg_transform(g, nu))
            assert lhs <= potential_ratio(g) * total_variation(mu, nu) + 1e-12

    def test_degenerate_mass(self):
        mu = law([1.0, 0.0])
        weighted = mu * np.array([1e-300, 1.0])
        assert weighted.sum() > 0  # strictly positive potentials cannot vanish


class TestOscAndRatio:
    def test_osc_examples(self):
        assert osc([3.0, 3.0, 3.0]) == 0.0
        assert osc(np.array([0.0, 1.0])) == 1.0
        assert osc([-2.0, 3.0, 0.5]) == 5.0

    def test_osc_empty_rejected(self):
        with pytest.raises(InputError):
            osc([])
        with pytest.raises(InputError, match="finite"):
            osc([0.0, np.inf])

    def test_ratio_examples(self):
        assert potential_ratio(np.ones(4)) == 1.0
        assert potential_ratio([1.0, 3.0]) == 3.0
        boltz = np.exp(-0.5 * np.array([0.0, 2.0]))
        assert potential_ratio(boltz) == pytest.approx(math.e, rel=1e-12)

    def test_ratio_rejects_nonpositive(self):
        with pytest.raises(InputError):
            potential_ratio([1.0, 0.0])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_tv_is_a_metric(w1, w2, w3):
    def to_dist(w, size):
        arr = np.asarray(w[:size]) + 1e-3
        return law(arr / arr.sum())

    size = min(len(w1), len(w2), len(w3))
    mu, nu, rho = (to_dist(w, size) for w in (w1, w2, w3))
    ab = total_variation(mu, nu)
    assert ab == pytest.approx(total_variation(nu, mu), abs=1e-15)
    assert 0.0 <= ab <= 1.0
    assert ab <= total_variation(mu, rho) + total_variation(rho, nu) + 1e-12
