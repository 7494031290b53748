"""Random-matrix generator tests: determinism, defining constraints of
each family, and distributional sanity bounds."""

import numpy as np
import pytest

from linkanom.ensembles import (
    EnsembleKind,
    SeedSpec,
    ensemble_matrix,
    gen_bernoulli,
    gen_gaussian,
    gen_markov,
    gen_rademacher,
)

SEED = SeedSpec(2024, 3)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)

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
        for stddev in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="stddev"):
                gen_gaussian(2, 2, SEED, stddev)


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


class TestMarkov:
    def test_single_row_all_ones(self):
        np.testing.assert_array_equal(gen_markov(1, 8, SEED), np.ones((1, 8)))

    def test_columns_sum_to_one(self):
        sample = gen_markov(37, 53, SEED)
        np.testing.assert_allclose(sample.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_nonnegative(self):
        assert gen_markov(120, 120, SEED).min() >= 0.0


class TestRademacher:
    def test_unit_magnitude(self):
        assert (np.abs(gen_rademacher(40, 25, SEED)) == 1.0).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_rademacher(10, 10, SEED), gen_rademacher(10, 10, SEED))

    def test_mean_concentration(self):
        assert abs(gen_rademacher(120, 120, SEED).mean()) <= 0.05


class TestEnsembleKind:
    def test_exactly_four_families(self):
        assert [k.value for k in EnsembleKind] == [
            "gaussian",
            "bernoulli-half",
            "markov-column-stochastic",
            "rademacher",
        ]

    def test_from_tag_with_alias(self):
        assert EnsembleKind.from_tag("markov") is EnsembleKind.MARKOV
        assert EnsembleKind.from_tag("GAUSSIAN") is EnsembleKind.GAUSSIAN
        with pytest.raises(ValueError, match="unknown ensemble"):
            EnsembleKind.from_tag("cauchy")

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

    def test_dispatch_deterministic(self):
        for kind in EnsembleKind:
            np.testing.assert_array_equal(
                ensemble_matrix(kind, 6, 6, SEED), ensemble_matrix(kind, 6, 6, SEED)
            )
