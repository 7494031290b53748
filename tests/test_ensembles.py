"""Random-matrix generator tests: determinism, defining constraints of
each family, and distributional sanity bounds."""

import re
from fractions import Fraction

import numpy as np
import pytest

from linkanom.ensembles import (
    EnsembleKind,
    SeedSpec,
    ensemble_matrix,
    gen_bernoulli,
    gen_gaussian,
)

SEED = SeedSpec(2024, 3)


def markov(rows, cols, seed):
    return ensemble_matrix(EnsembleKind.MARKOV, rows, cols, seed)


def rademacher(rows, cols, seed):
    return ensemble_matrix(EnsembleKind.RADEMACHER, rows, cols, seed)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)
        # bool is an int subclass, but no seed
        with pytest.raises(ValueError, match=r"^master_seed must be an integer, got True$"):
            SeedSpec(True)
        with pytest.raises(ValueError, match=r"^stream_index must be an integer, got False$"):
            SeedSpec(1, False)
        with pytest.raises(ValueError, match=r"^branch label must be an integer, got True$"):
            SeedSpec(1).split(True)

    def test_split_produces_distinct_streams(self):
        a = SeedSpec(7, 0).split(1).generator().random(8)
        b = SeedSpec(7, 0).split(2).generator().random(8)
        assert not np.array_equal(a, b)

    def test_split_disjoint_from_parent(self):
        parent = SeedSpec(7, 0).generator().random(8)
        child = SeedSpec(7, 0).split(0).generator().random(8)
        assert not np.array_equal(parent, child)

    def test_stream_independence_correlation(self):
        n = 10_000
        a = gen_gaussian(1, n, SeedSpec(99, 0))
        b = gen_gaussian(1, n, SeedSpec(99, 1))
        rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(rho) < 0.05


class TestGaussian:
    def test_deterministic(self):
        np.testing.assert_array_equal(gen_gaussian(17, 9, SEED), gen_gaussian(17, 9, SEED))

    def test_mean_within_clt_bound(self):
        stddev = 2.5
        sample = gen_gaussian(100, 100, SEED, stddev)
        assert abs(sample.mean()) <= 4 * stddev / np.sqrt(10_000)

    def test_unit_variance_moment(self):
        sample = gen_gaussian(120, 120, SEED, 1.0)
        assert 0.9 <= sample.var() <= 1.1

    def test_bad_stddev(self):
        for stddev in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=rf"^stddev must be finite and >= 0, got {stddev}$"):
                gen_gaussian(2, 2, SEED, stddev)

    def test_zero_stddev_draws_positive_zeros(self):
        # the noise of a noise_variance=0 scenario: +0.0, as np.zeros gives
        zeros = gen_gaussian(5, 7, SEED, 0.0)
        assert zeros.dtype == float and zeros.shape == (5, 7)
        assert not zeros.any() and not np.signbit(zeros).any()


class TestBernoulli:
    def test_p_zero_all_zero(self):
        assert not gen_bernoulli(15, 11, 0.0, SEED).any()

    def test_p_one_all_one(self):
        assert (gen_bernoulli(15, 11, 1.0, SEED) == 1.0).all()

    def test_routing_density_concentration(self):
        sample = gen_bernoulli(120, 240, 0.05, SEED)
        assert set(np.unique(sample)) <= {0.0, 1.0}
        assert 0.03 <= sample.mean() <= 0.07

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gen_bernoulli(2, 2, 1.5, SEED)


class TestRealParameters:
    # a Fraction is a numbers.Real that numpy cannot compute with
    @pytest.mark.parametrize("value", ["1", None, True, 1j, Fraction(1, 2)])
    def test_stddev_must_be_a_real_number(self, value):
        message = rf"^stddev must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            gen_gaussian(2, 2, SEED, value)

    @pytest.mark.parametrize("value", ["0.5", None, False, 0.5j, Fraction(1, 2)])
    def test_p_must_be_a_real_number(self, value):
        message = rf"^p must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            gen_bernoulli(2, 2, value, SEED)

    def test_numpy_floats_accepted(self):
        np.testing.assert_array_equal(gen_gaussian(3, 4, SEED, np.float64(2.5)),
                                      gen_gaussian(3, 4, SEED, 2.5))
        np.testing.assert_array_equal(gen_bernoulli(3, 4, np.float32(0.5), SEED),
                                      gen_bernoulli(3, 4, 0.5, SEED))


class TestMarkov:
    def test_single_row_all_ones(self):
        np.testing.assert_array_equal(markov(1, 8, SEED), np.ones((1, 8)))

    def test_columns_sum_to_one(self):
        sample = markov(37, 53, SEED)
        np.testing.assert_allclose(sample.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_nonnegative(self):
        assert markov(120, 120, SEED).min() >= 0.0


class TestRademacher:
    def test_unit_magnitude(self):
        assert (np.abs(rademacher(40, 25, SEED)) == 1.0).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(rademacher(10, 10, SEED), rademacher(10, 10, SEED))

    def test_mean_concentration(self):
        assert abs(rademacher(120, 120, SEED).mean()) <= 0.05


class TestEnsembleKind:
    def test_exactly_four_families(self):
        assert [k.value for k in EnsembleKind] == [
            "gaussian",
            "bernoulli-half",
            "markov-column-stochastic",
            "rademacher",
        ]

    def test_dispatch_satisfies_defining_constraints(self):
        for kind in EnsembleKind:
            sample = ensemble_matrix(kind, 31, 29, SEED)
            assert sample.shape == (31, 29)
            if kind is EnsembleKind.BERNOULLI_HALF:
                assert set(np.unique(sample)) <= {0.0, 1.0}
            elif kind is EnsembleKind.MARKOV:
                assert sample.min() >= 0
                np.testing.assert_allclose(sample.sum(axis=0), 1.0, atol=1e-12)
            elif kind is EnsembleKind.RADEMACHER:
                assert set(np.unique(sample)) == {-1.0, 1.0}

    def test_unknown_kind_rejected(self):
        # a tag string is no EnsembleKind, and rademacher is no fall-through
        with pytest.raises(ValueError, match="unknown ensemble kind: 'gaussian'"):
            ensemble_matrix("gaussian", 3, 3, SEED)

    def test_dispatch_deterministic(self):
        for kind in EnsembleKind:
            np.testing.assert_array_equal(
                ensemble_matrix(kind, 6, 6, SEED), ensemble_matrix(kind, 6, 6, SEED)
            )
