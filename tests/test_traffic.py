"""Scenario-generation tests: component distributions, exact assembly,
label semantics, and seed isolation."""

import dataclasses
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from linkanom.ensembles import SeedSpec
from linkanom.traffic import (
    _ANOMALIES,
    _FLOWS,
    Scenario,
    ScenarioConfig,
    _entry_labels,
    assemble_scenario,
    default_anomaly_count,
)

SEED = SeedSpec(77, 1)

SMALL = ScenarioConfig(m=24, n=48, t=90, r_true=6, anomaly_count=10, seed=SeedSpec(5))


def gram_rank(x, rel_tol=1e-10):
    """Numerical rank via the PSD eigen route: eigenvalues of X^T X (its
    singular values, since the Gram matrix is PSD) above rel_tol * largest."""
    gram = x.T @ x
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if lam[-1] <= 0.0:
        return 0
    return int(np.sum(lam > rel_tol * lam[-1]))


def dense_x_a(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The n x t flows X = U W^T and anomalies A, formed from the scenario's
    draws (A has the anomaly values at the flat anomaly positions)."""
    n, t = sc.config.n, sc.config.t
    a = np.zeros(n * t)
    a[sc.anomaly_positions] = sc.anomaly_values
    return sc.u @ sc.w.T, a.reshape(n, t)


class TestGenFlows:
    """The flows X = U W^T of an assembled scenario."""

    def test_zero_rank_gives_zero_matrix(self):
        sc = assemble_scenario(ScenarioConfig(m=5, n=10, t=12, r_true=0, anomaly_count=0, seed=SEED))
        np.testing.assert_array_equal(dense_x_a(sc)[0], np.zeros((10, 12)))

    def test_numerical_rank_equals_r_true(self):
        sc = assemble_scenario(ScenarioConfig(m=5, n=30, t=40, r_true=7, anomaly_count=0, seed=SEED))
        assert gram_rank(dense_x_a(sc)[0]) == 7

    def test_energy_concentrates_at_r_true(self):
        # E||X||_F^2 = n*t*r*(1/n)*(1/t) = r; 20-seed mean lands within
        # 5 sigma of 24 (per-draw std ~0.54 measured by Monte-Carlo pilot)
        energies = [
            float(np.sum(dense_x_a(assemble_scenario(ScenarioConfig(seed=SeedSpec(1234, s))))[0] ** 2))
            for s in range(20)
        ]
        assert 23.4 <= np.mean(energies) <= 24.6

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(ValueError, match="r_true"):
            ScenarioConfig(n=10, t=12, r_true=11)


class TestGenAnomalies:
    """The anomalies A and labels of an assembled scenario."""

    def test_zero_count(self):
        sc = assemble_scenario(ScenarioConfig(m=5, n=8, t=9, r_true=2, anomaly_count=0, seed=SEED))
        assert not dense_x_a(sc)[1].any()
        assert not sc.labels.any()

    def test_reference_count_is_exact(self):
        # density 0.001 of the 120x640 grid, rounded: 77 nonzeros
        assert default_anomaly_count(120, 640) == 77
        a = dense_x_a(assemble_scenario(ScenarioConfig(seed=SEED)))[1]
        assert np.count_nonzero(a) == 77
        assert set(np.unique(a[a != 0.0])) <= {-1.0, 1.0}

    def test_label_count_bounded_by_pigeonhole(self):
        sc = assemble_scenario(ScenarioConfig(seed=SEED))
        assert sc.labels.sum() <= 77
        columns_hit = np.unique(np.nonzero(dense_x_a(sc)[1])[1])
        assert sc.labels.sum() == columns_hit.shape[0]

    def test_labels_exact_when_columns_distinct(self):
        sc = assemble_scenario(ScenarioConfig(m=10, n=50, t=400, anomaly_count=5, seed=SeedSpec(3)))
        if np.unique(np.nonzero(dense_x_a(sc)[1])[1]).shape[0] == 5:
            assert sc.labels.sum() == 5

    def test_count_too_large_rejected(self):
        with pytest.raises(ValueError, match="anomaly_count"):
            ScenarioConfig(n=3, t=3, r_true=1, anomaly_count=10)

    def test_flipping_one_zero_entry_flips_at_most_one_label(self):
        cfg = ScenarioConfig(m=10, n=20, t=30, r_true=3, anomaly_count=8, seed=SEED)
        sc = assemble_scenario(cfg)
        rng = np.random.default_rng(0)
        zeros = np.flatnonzero(dense_x_a(sc)[1] == 0.0)
        for flat in zeros[rng.choice(zeros.shape[0], size=25, replace=False)]:
            new_labels = _entry_labels(cfg.t, np.append(sc.anomaly_positions, flat))
            changed = np.flatnonzero(new_labels != sc.labels)
            assert changed.shape[0] <= 1
            if changed.shape[0] == 1:
                j = flat % cfg.t
                assert changed[0] == j and new_labels[j] and not sc.labels[j]


class TestAssembleScenario:
    def test_noiseless_anomaly_free_is_low_rank_routing_product(self):
        cfg = dataclasses.replace(SMALL, noise_variance=0.0, anomaly_count=0)
        sc = assemble_scenario(cfg)
        np.testing.assert_array_equal(sc.y, (sc.routing @ sc.u) @ sc.w.T + sc.v)
        assert gram_rank(sc.y) <= cfg.r_true

    def test_reference_dimensions(self):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(1)))
        assert sc.y.shape == (120, 640)
        assert sc.routing.shape == (120, 240)
        assert dense_x_a(sc)[1].shape == (240, 640)
        assert sc.labels.shape == (640,)

    def test_reassembly_is_exact(self):
        sc = assemble_scenario(SMALL)
        want = (sc.routing @ sc.u) @ sc.w.T + sc.routing @ dense_x_a(sc)[1] + sc.v
        assert np.linalg.norm(sc.y - want) == 0.0

    def test_noiseless_reassembly_with_anomalies_is_exact(self):
        sc = assemble_scenario(dataclasses.replace(SMALL, noise_variance=0.0))
        # V is drawn by gen_gaussian at stddev 0: +0.0 everywhere, as np.zeros
        assert sc.labels.any() and not sc.v.any() and not np.signbit(sc.v).any()
        want = (sc.routing @ sc.u) @ sc.w.T + sc.routing @ dense_x_a(sc)[1] + sc.v
        np.testing.assert_array_equal(sc.y, want)
        assert not np.signbit(sc.y[sc.y == 0.0]).any()  # -0.0 + 0.0 is +0.0, as before

    @pytest.mark.parametrize("cfg", [SMALL, ScenarioConfig(seed=SeedSpec(7, 3))])
    def test_draws_are_those_of_gen_flows_and_gen_anomalies(self, cfg):
        # redraws what gen_flows and gen_anomalies drew: U, W from the flow
        # substream, then the anomaly positions and signs from their own
        sc = assemble_scenario(cfg)
        rng = cfg.seed.split(_FLOWS).generator()
        u = rng.normal(0.0, 1.0 / np.sqrt(cfg.n), size=(cfg.n, cfg.r_true))
        w = rng.normal(0.0, 1.0 / np.sqrt(cfg.t), size=(cfg.t, cfg.r_true))
        rng = cfg.seed.split(_ANOMALIES).generator()
        positions = rng.choice(cfg.n * cfg.t, size=cfg.anomaly_count, replace=False)
        values = rng.integers(0, 2, size=cfg.anomaly_count) * 2.0 - 1.0
        labels = np.any(dense_x_a(sc)[1] != 0.0, axis=0)
        for got, want in ((sc.u, u), (sc.w, w), (sc.anomaly_positions, positions),
                          (sc.anomaly_values, values), (sc.labels, labels)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_assembly_allocates_no_flow_sized_array(self):
        # m << n: an n x t array would dwarf everything a scenario needs
        cfg = ScenarioConfig(m=24, n=480, t=1000, anomaly_count=24, seed=SeedSpec(3))
        tracemalloc.start()
        try:
            sc = assemble_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sc.labels.any()
        assert peak < cfg.n * cfg.t * 8

    def test_labels_match_anomaly_columns(self):
        sc = assemble_scenario(SMALL)
        np.testing.assert_array_equal(sc.labels, np.any(dense_x_a(sc)[1] != 0.0, axis=0))

    def test_deterministic(self):
        a = assemble_scenario(SMALL)
        b = assemble_scenario(SMALL)
        for field in ("y", "routing", "u", "w", "anomaly_positions", "anomaly_values", "v", "labels"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_seed_isolation_noise_variance(self):
        # changing sigma^2 must not change X, A, or R (disjoint substreams)
        base = assemble_scenario(SMALL)
        noisier = assemble_scenario(dataclasses.replace(SMALL, noise_variance=0.7))
        for got, want in zip(dense_x_a(base), dense_x_a(noisier)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(base.routing, noisier.routing)
        assert not np.array_equal(base.v, noisier.v)

    def test_routing_row_degree_within_binomial_bounds(self):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(11)))
        expected = 240 * 0.05
        mean_degree = sc.routing.sum(axis=1).mean()
        # 4 sigma of the mean of 120 Binomial(240, 0.05) row degrees
        sigma_mean = np.sqrt(240 * 0.05 * 0.95 / 120)
        assert abs(mean_degree - expected) <= 4 * sigma_mean

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="r_true"):
            ScenarioConfig(n=10, t=10, r_true=11)
        with pytest.raises(ValueError, match="anomaly_count"):
            ScenarioConfig(anomaly_count=-1)
        for name in ("m", "n", "t"):
            with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got 0$"):
                ScenarioConfig(**{name: 0})
        for name in ("m", "n", "t", "r_true", "anomaly_count"):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 2.5$"):
                ScenarioConfig(**{name: 2.5})
            # bool is an int subclass, but no size
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got True$"):
                ScenarioConfig(**{name: True})
        for density in (1.5, -0.1):
            with pytest.raises(ValueError, match=r"^routing_density must be finite and in \[0, 1\]"):
                ScenarioConfig(routing_density=density)
        # numpy integers are sizes: the same scenario, bit for bit
        sizes = {name: np.int64(getattr(SMALL, name))
                 for name in ("m", "n", "t", "r_true", "anomaly_count")}
        np.testing.assert_array_equal(
            assemble_scenario(dataclasses.replace(SMALL, **sizes)).y, assemble_scenario(SMALL).y
        )
        for bad in (-0.1, float("nan"), float("inf")):
            message = rf"^noise_variance must be finite and >= 0, got {bad}$"
            with pytest.raises(ValueError, match=message):
                ScenarioConfig(noise_variance=bad)

    @pytest.mark.parametrize("name, value", [
        ("routing_density", "0.05"), ("routing_density", None), ("routing_density", False),
        ("noise_variance", "0.1"), ("noise_variance", None), ("noise_variance", True),
        # a Fraction passed the check and then failed in np.sqrt
        ("routing_density", Fraction(1, 20)), ("noise_variance", Fraction(1, 10)),
    ])
    def test_real_parameters_must_be_real_numbers(self, name, value):
        message = rf"^{name} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**{name: value})

    def test_numpy_floats_are_real_parameters(self):
        reals = {name: np.float64(getattr(SMALL, name))
                 for name in ("routing_density", "noise_variance")}
        np.testing.assert_array_equal(
            assemble_scenario(dataclasses.replace(SMALL, **reals)).y, assemble_scenario(SMALL).y
        )

    def test_float32_noise_variance_is_computed_as_a_python_float(self):
        # the noise was scaled by a float32 square root: V moved by up to 1.3e-8
        cfg = dataclasses.replace(SMALL, noise_variance=np.float32(0.1))
        assert type(cfg.noise_variance) is float
        want = assemble_scenario(dataclasses.replace(SMALL, noise_variance=float(np.float32(0.1))))
        got = assemble_scenario(cfg)
        np.testing.assert_array_equal(got.v, want.v)
        np.testing.assert_array_equal(got.y, want.y)

    def test_numpy_integer_sizes_bound_anomaly_count_as_python_ints(self):
        # n * t of two np.int64(2**40) wrapped to 0, which refused anomaly_count=5
        big = np.int64(2**40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ScenarioConfig(m=2, n=big, t=big, r_true=0, anomaly_count=5)
        assert cfg == ScenarioConfig(m=2, n=2**40, t=2**40, r_true=0, anomaly_count=5)
        assert all(type(getattr(cfg, name)) is int for name in ("m", "n", "t", "r_true"))

    def test_scenario_carries_its_config(self):
        sc = assemble_scenario(SMALL)
        assert isinstance(sc, Scenario)
        assert sc.config == SMALL
