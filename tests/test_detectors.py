"""Detector tests: model construction for all three methods, projection
algebra, the Q-statistic threshold against an independent scalar oracle,
and the candidate-selection rule."""

import dataclasses
import itertools
import math
import re
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from linkanom import detectors, evaluation
from linkanom.detectors import (
    DegenerateSpectrumError,
    DetectionReport,
    ModelSummary,
    SubspaceModel,
    build_pca_model,
    build_rbad_model,
    build_sspbad_candidates,
    detect,
    detect_method,
    detect_ranks,
    project,
    q_threshold,
    sspbad_detect,
    sspbad_select,
)
from linkanom.ensembles import EnsembleKind, SeedSpec, ensemble_matrix
from linkanom.evaluation import sweep_rank
from linkanom.traffic import ScenarioConfig, assemble_scenario

NOISELESS = dataclasses.replace(
    ScenarioConfig(seed=SeedSpec(314)), noise_variance=0.0, anomaly_count=0
)


def row_variance(m):
    return np.var(m, axis=1, ddof=1)


def scalar_q_oracle(residual, beta):
    """Independent recomputation of the threshold with plain scalar math.
    (Q/theta1)^h0 is near normal with a spread sqrt(2*th2)*|h0|/th1, and
    falls as Q rises when h0 < 0, so the quantile's spread is signed."""
    th1 = sum(residual)
    th2 = sum(x**2 for x in residual)
    th3 = sum(x**3 for x in residual)
    h0 = 1.0 - 2.0 * th1 * th3 / (3.0 * th2**2)
    c = float(ndtri(1.0 - beta))
    spread = math.sqrt(2.0 * th2) * h0
    base = c * spread / th1 + 1.0 + th2 * h0 * (h0 - 1.0) / th1**2
    return th1 * base ** (1.0 / h0)


# residual spectra whose h0 is negative: (spectrum, rank)
NEGATIVE_H0_SPECTRA = [
    (1.0 / np.arange(1, 121), 8),
    (np.array([100.0, 10.0] + [1.0] * 10), 1),
]


class TestNormalQuantile:
    """c_beta, the (1 - beta) standard-normal quantile of `q_threshold`."""

    # many equal residual variances keep the base of Q_beta positive even
    # for the most negative c_beta on the grid
    SPECTRUM = [2.0] + [1.0] * 10_000

    def c_beta(self, beta):
        return q_threshold(self.SPECTRUM, 1, beta).c_beta

    def test_against_scipy_grid(self):
        for beta in np.concatenate([np.geomspace(1e-12, 0.02, 25), np.linspace(0.02, 0.98, 50),
                                    1 - np.geomspace(1e-12, 0.02, 25)]):
            assert abs(self.c_beta(float(beta)) - ndtri(1.0 - beta)) < 1e-12

    def test_reference_percentile(self):
        assert self.c_beta(0.005) == pytest.approx(2.5758293035489004, abs=1e-12)

    def test_symmetry(self):
        assert self.c_beta(0.75) == pytest.approx(-self.c_beta(0.25), abs=1e-14)

    def test_domain(self):
        for beta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="beta"):
                self.c_beta(beta)


class TestBuildPcaModel:
    def test_top_eigenvector_aligns_with_dominant_row(self):
        # rows: large sinusoid, small orthogonal sinusoid, constant
        t = np.arange(64)
        y = np.vstack([
            10.0 * np.sin(2 * np.pi * t / 64),
            1.0 * np.cos(2 * np.pi * t / 64),
            np.full(64, 3.0),
        ])
        model = build_pca_model(y, 1)
        lead = np.abs(model.basis[:, 0])
        assert lead[0] > 0.99
        assert model.variances[0] > model.variances[1] > 0

    def test_variances_equal_projected_row_variances(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(30, 150))
        model = build_pca_model(y, 10)
        centered = y - model.mean[:, None]
        observed = row_variance(model.basis.T @ centered)
        np.testing.assert_allclose(observed, model.variances, rtol=1e-8)
        # randomized bases, on row means near 1e3 that dwarf the unit-scale
        # spread: a second moment formed by subtracting the mean term from
        # the uncentered Gram would cancel to noise here
        y = rng.normal(1e3, 10.0, size=(30, 1)) + rng.normal(size=(30, 150))
        for center in (False, True):
            models = [build_rbad_model(y, 10, SeedSpec(23), center=center)]
            models += build_sspbad_candidates(y, 10, SeedSpec(24), center=center)
            for model in models:
                observed = row_variance(model.basis.T @ y)
                error = np.max(np.abs(observed - model.variances))
                assert error <= 1e-10 * model.variances[0], (center, model.ensemble)

    def test_noiseless_scenario_spectrum_truncates_at_true_rank(self):
        sc = assemble_scenario(NOISELESS)
        model = build_pca_model(sc.y, 24)
        lam = model.variances
        assert (lam[24:] <= 1e-10 * lam[0]).all()

    def test_rank_and_snapshot_validation(self):
        y = np.random.default_rng(0).normal(size=(6, 20))
        with pytest.raises(ValueError, match="rank"):
            build_pca_model(y, 6)
        with pytest.raises(ValueError, match="rank"):
            build_pca_model(y, 0)
        for build in (
            lambda: build_pca_model(y[:, :1], 2),
            lambda: build_rbad_model(y[:, :1], 2, SeedSpec(1)),
            lambda: build_sspbad_candidates(y[:, :1], 2, SeedSpec(1)),
            *(lambda method=method: detect_method(method, y[:, :1], [2], SeedSpec(1))
              for method in ("pca", "rbad", "sspbad")),
        ):
            with pytest.raises(ValueError, match="snapshots"):
                build()

    def test_model_metadata(self):
        y = np.random.default_rng(1).normal(size=(8, 40))
        model = build_pca_model(y, 3)
        assert model.method == "pca"
        assert model.rank == 3
        np.testing.assert_allclose(model.mean, y.mean(axis=1))


class TestBuildRbadModel:
    @pytest.mark.parametrize("q_exp", [0, 1, 2])
    def test_exact_rank_range_capture(self, q_exp):
        sc = assemble_scenario(NOISELESS)
        model = build_rbad_model(sc.y, 24, SeedSpec(9, 0), power_exponent=q_exp)
        _, y_tilde = project(model, sc.y)
        residual_energy = np.sum(y_tilde**2)
        assert residual_energy <= 1e-8 * np.sum(sc.y**2)

    def test_power_iteration_never_hurts(self):
        # paired seeds on noisy low-rank traffic: average q=2 residual must
        # not exceed the average q=0 residual
        rng = np.random.default_rng(77)
        res = {0: [], 2: []}
        for s in range(10):
            low = rng.normal(size=(24, 6)) @ rng.normal(size=(6, 100))
            y = low + 0.05 * rng.normal(size=(24, 100))
            for q_exp in (0, 2):
                model = build_rbad_model(y, 6, SeedSpec(50, s), power_exponent=q_exp)
                _, y_tilde = project(model, y)
                res[q_exp].append(np.linalg.norm(y_tilde))
        assert np.mean(res[2]) <= np.mean(res[0]) + 1e-9

    def test_deterministic_and_orthonormal(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(20, 80))
        m1 = build_rbad_model(y, 5, SeedSpec(8))
        m2 = build_rbad_model(y, 5, SeedSpec(8))
        np.testing.assert_array_equal(m1.basis, m2.basis)
        assert np.max(np.abs(m1.basis.T @ m1.basis - np.eye(20))) <= 1e-10
        assert (np.diff(m1.variances) <= 1e-12).all()

    def test_centered_flag_stores_mean(self):
        rng = np.random.default_rng(4)
        y = rng.normal(5.0, 1.0, size=(12, 60))
        plain = build_rbad_model(y, 4, SeedSpec(1))
        centered = build_rbad_model(y, 4, SeedSpec(1), center=True)
        assert (plain.mean == 0).all()
        np.testing.assert_allclose(centered.mean, y.mean(axis=1))

    def test_negative_power_rejected(self):
        y = np.random.default_rng(5).normal(size=(6, 30))
        with pytest.raises(ValueError, match="power_exponent"):
            build_rbad_model(y, 2, SeedSpec(0), power_exponent=-1)

    def test_full_basis_preserves_total_variance(self):
        # orthonormal change of basis: captured variances sum to the
        # per-link variance total
        rng = np.random.default_rng(30)
        y = rng.normal(size=(18, 90))
        total = row_variance(y).sum()
        rbad = build_rbad_model(y, 5, SeedSpec(31))
        assert rbad.variances.sum() == pytest.approx(total, rel=1e-8)
        ssp = list(build_sspbad_candidates(y, 5, SeedSpec(32)))[2]
        assert ssp.variances.sum() == pytest.approx(total, rel=1e-8)

    def test_residual_energy_nonincreasing_in_rank(self):
        rng = np.random.default_rng(33)
        y = rng.normal(size=(12, 70))
        model = build_rbad_model(y, 1, SeedSpec(34))
        energies = []
        for rank in range(1, 12):
            _, y_tilde = project(dataclasses.replace(model, rank=rank), y)
            energies.append(np.sum(y_tilde**2))
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestBuildSspbadCandidates:
    def test_four_default_candidates_in_fixed_order(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(15, 70))
        models = list(build_sspbad_candidates(y, 4, SeedSpec(2)))
        assert [m.ensemble for m in models] == list(EnsembleKind)
        assert all(m.method == "sspbad" for m in models)

    def test_family_i_draws_from_substream_i(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(10, 50))
        seed, moments = SeedSpec(2), detectors._Traffic(y).moments(False)
        candidates = build_sspbad_candidates(y, 3, seed)
        for i, (kind, model) in enumerate(zip(EnsembleKind, candidates, strict=True)):
            want = detectors._range_model(ensemble_matrix(kind, 10, 10, seed.split(i)), 1,
                                          moments, 3, "sspbad", ensemble=kind)
            assert model.ensemble is kind
            np.testing.assert_array_equal(model.basis, want.basis)
            np.testing.assert_array_equal(model.variances, want.variances)

    def test_exact_rank_range_capture_every_kind(self):
        sc = assemble_scenario(NOISELESS)
        for model in build_sspbad_candidates(sc.y, 24, SeedSpec(11)):
            _, y_tilde = project(model, sc.y)
            assert np.sum(y_tilde**2) <= 1e-8 * np.sum(sc.y**2)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(12, 40))
        a = build_sspbad_candidates(y, 3, SeedSpec(5))
        b = build_sspbad_candidates(y, 3, SeedSpec(5))
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.basis, mb.basis)

    def test_checks_every_argument_before_any_candidate_is_built(self, monkeypatch):
        y = np.random.default_rng(10).normal(size=(10, 50))
        built, real = [], detectors._range_model
        monkeypatch.setattr(detectors, "_range_model",
                            lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
        for bad in ((y[:, :1], 2, SeedSpec(1)), (y, 10, SeedSpec(1)), (y, 2, 7),
                    (y, 2, SeedSpec(1), "no")):
            with pytest.raises(ValueError):
                build_sspbad_candidates(*bad)
        candidates = build_sspbad_candidates(y, 2, SeedSpec(1))
        assert built == []
        next(candidates)
        assert len(built) == 1
        assert len(list(candidates)) == 3 and len(built) == 4


def _no_fit(*args, **kwargs):
    raise AssertionError("a model was fitted")


# values of beta that admit no threshold, and the error each raises
BAD_BETAS = [
    pytest.param(1.5, r"^beta must lie strictly between 0 and 1, got 1.5$", id="above-1"),
    pytest.param(0.0, r"^beta must lie strictly between 0 and 1, got 0.0$", id="zero"),
    pytest.param(math.nan, r"^beta must be finite, got nan$", id="nan"),
    pytest.param(1e-17, r"^beta must exceed 2\*\*-54 so that 1 - beta rounds below 1", id="tiny"),
    pytest.param("0.1", r"^beta must be a real number, got '0.1'$", id="text"),
    pytest.param(True, r"^beta must be a real number, got True$", id="bool"),
    # an int that no float holds, which float() would reject with an OverflowError
    pytest.param(10**400, r"^beta must be within the float range, got 10{400}$", id="huge-int"),
    pytest.param(Fraction(1, 200), r"^beta must be a real number, got Fraction\(1, 200\)$",
                 id="fraction"),
]


class TestBetaFirst:
    """Every entry point that takes beta rejects a bad one by name before
    it looks at anything else: before a spectrum is checked, a model fitted
    or a scenario assembled."""

    @pytest.mark.parametrize("beta, message", BAD_BETAS)
    def test_q_threshold(self, beta, message):
        with pytest.raises(ValueError, match=message):
            q_threshold([[2.0, 1.0]], 7, beta)  # neither a 1-D spectrum nor a rank of it

    @pytest.mark.parametrize("method", ["pca", "rbad", "sspbad"])
    @pytest.mark.parametrize("beta, message", BAD_BETAS)
    def test_detect_method_before_any_fit(self, monkeypatch, method, beta, message):
        for name in ("build_pca_model", "build_rbad_model", "build_sspbad_candidates"):
            monkeypatch.setattr(detectors, name, _no_fit)
        y = np.random.default_rng(12).normal(size=(10, 50))
        with pytest.raises(ValueError, match=message):
            detect_method(method, y, [4, 6], SeedSpec(3), beta=beta)

    @pytest.mark.parametrize("beta, message", BAD_BETAS)
    def test_detect_ranks_and_detect_before_any_product(self, monkeypatch, beta, message):
        y = np.random.default_rng(12).normal(size=(10, 50))
        model = build_pca_model(y, 4)

        def work(y, mean):
            raise AssertionError("the traffic was projected")

        monkeypatch.setattr(detectors, "_without_mean", work)
        with pytest.raises(ValueError, match=message):
            detect_ranks(model, y, [4, 6], beta)
        with pytest.raises(ValueError, match=message):
            detect(model, y, beta)

    @pytest.mark.parametrize("beta, message", BAD_BETAS)
    def test_sweep_before_any_trial(self, monkeypatch, beta, message):
        def assemble(cfg):
            raise AssertionError("a scenario was assembled")

        monkeypatch.setattr(evaluation, "assemble_scenario", assemble)
        cfg = ScenarioConfig(m=12, n=24, t=40, r_true=3, anomaly_count=4, seed=SeedSpec(3))
        with pytest.raises(ValueError, match=message):
            sweep_rank(cfg, ["pca", "sspbad"], [4], trials=2, beta=beta)

    def test_numpy_floats_are_betas(self):
        want = q_threshold([2.0, 1.0, 0.5], 1, 0.005)
        assert q_threshold([2.0, 1.0, 0.5], 1, np.float64(0.005)) == want

    def test_float32_beta_is_computed_as_a_python_float(self):
        # the quantile of the float32's own value in double precision, not of
        # 1 - beta rounded to float32 (2.326348231863754, 1.5e-7 away)
        beta = np.float32(0.01)
        th = q_threshold([2.0, 1.0, 0.5], 1, beta)
        assert type(th.beta) is float and th.beta == float(beta)
        assert th.c_beta == NormalDist().inv_cdf(1.0 - float(beta))
        assert th.c_beta == pytest.approx(q_threshold([2.0, 1.0, 0.5], 1, 0.01).c_beta, rel=1e-8)
        assert th == q_threshold([2.0, 1.0, 0.5], 1, float(beta))


class TestChecksBeforeAnyFit:
    """`detect_method` checks every rank, its seed and `center` before it
    reduces the traffic for any fit, for every method; `sweep_rank` checks
    `center` before any trial."""

    BAD = {
        # the second rank was checked only by detect_ranks, after the fit
        "rank": ({"ranks": [2, 10]}, r"^rank must be in \[1, 9\], got 10$"),
        "seed": ({"seed": 7}, r"^seed must be a SeedSpec, got 7$"),
        "center": ({"center": "no"}, r"^center must be a bool, got 'no'$"),
    }

    @pytest.mark.parametrize("method", ["pca", "rbad", "sspbad"])
    @pytest.mark.parametrize("bad", BAD)
    def test_detect_method(self, monkeypatch, method, bad):
        monkeypatch.setattr(detectors._Traffic, "moments", _no_fit)
        given, message = self.BAD[bad]
        y = np.random.default_rng(12).normal(size=(10, 50))
        with pytest.raises(ValueError, match=message):
            detect_method(method, **({"y": y, "ranks": [2, 4], "seed": SeedSpec(1)} | given))

    def test_sweep_center(self, monkeypatch):
        def assemble(cfg):
            raise AssertionError("a scenario was assembled")

        monkeypatch.setattr(evaluation, "assemble_scenario", assemble)
        cfg = ScenarioConfig(m=12, n=24, t=40, r_true=3, anomaly_count=4, seed=SeedSpec(3))
        with pytest.raises(ValueError, match=r"^center must be a bool, got 1$"):
            sweep_rank(cfg, ["pca", "rbad"], [4], trials=2, center=1)


class TestProject:
    def test_containment_at_rank_m_minus_1(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(8, 30))
        model = build_pca_model(y, 7)
        centered = y - model.mean[:, None]
        span = model.basis[:, :7]
        inside = span @ (span.T @ centered) + model.mean[:, None]
        _, y_tilde = project(model, inside)
        assert np.max(np.abs(y_tilde)) <= 1e-10

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(14, 44))
        for model in (
            build_pca_model(y, 5),
            build_rbad_model(y, 5, SeedSpec(3)),
            next(build_sspbad_candidates(y, 5, SeedSpec(4))),
        ):
            y_hat, y_tilde = project(model, y)
            assert np.linalg.norm(y_hat + y_tilde - y) <= 1e-12 * np.linalg.norm(y)

    def test_residual_orthogonal_to_normal_subspace(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(16, 50))
        model = build_rbad_model(y, 6, SeedSpec(5))
        _, y_tilde = project(model, y)
        p = model.basis[:, :6]
        assert np.max(np.abs(p.T @ y_tilde)) <= 1e-10 * np.max(np.abs(y))

    def test_projector_algebra(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=(10, 35))
        model = build_pca_model(y, 4)
        p = model.basis[:, :4]
        c_hat = p @ p.T
        c_tilde = np.eye(10) - c_hat
        assert np.max(np.abs(c_hat @ c_hat - c_hat)) <= 1e-10
        assert np.max(np.abs(c_hat @ c_tilde)) <= 1e-10
        np.testing.assert_array_equal(c_hat + c_tilde, np.eye(10))

    def test_centered_residual_is_mean_free(self):
        rng = np.random.default_rng(14)
        y = rng.normal(3.0, 1.0, size=(9, 60))
        model = build_pca_model(y, 3)
        _, y_tilde = project(model, y)
        assert np.max(np.abs(y_tilde.sum(axis=1))) <= 1e-9 * y.shape[1]

    def test_shape_mismatch_rejected(self):
        model = build_pca_model(np.random.default_rng(15).normal(size=(6, 20)), 2)
        for y in (np.ones((7, 20)), detectors._Traffic(np.ones((7, 20)))):
            with pytest.raises(ValueError, match="rows"):
                project(model, y)


class TestQThreshold:
    def test_scalar_oracle_unit_spike(self):
        residual = [1.0] + [0.0] * 95
        variances = [5.0, 4.0, 3.0, 2.0] + residual
        th = q_threshold(variances, 4, 0.005)
        # value frozen from the independent scalar recomputation
        assert th.q_beta == pytest.approx(7.904804383139113, abs=1e-9)
        assert th.q_beta == pytest.approx(scalar_q_oracle(residual, 0.005), abs=1e-12)
        assert th.theta == (1.0, 1.0, 1.0)
        assert th.h0 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_oracle_on_random_spectra(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            variances = np.sort(rng.uniform(0.01, 3.0, size=30))[::-1]
            rank = int(rng.integers(1, 29))
            th = q_threshold(variances, rank, 0.005)
            want = scalar_q_oracle(list(variances[rank:]), 0.005)
            assert th.q_beta == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variances, rank", NEGATIVE_H0_SPECTRA)
    def test_negative_h0_threshold_lies_above_the_spe_mean(self, variances, rank):
        # theta1 is the mean of the SPE; an upper quantile cannot fall below it
        th = q_threshold(variances, rank, 0.005)
        assert th.h0 < 0.0
        assert th.q_beta > th.theta[0]
        assert th.q_beta == pytest.approx(scalar_q_oracle(list(variances[rank:]), 0.005), rel=1e-12)

    @pytest.mark.parametrize("variances, rank", NEGATIVE_H0_SPECTRA)
    def test_negative_h0_exceedance_near_beta(self, variances, rank):
        # SPE = sum_i lambda_i z_i^2 over the residual spectrum
        beta = 0.05
        z = np.random.default_rng(61).standard_normal((20_000, variances.shape[0] - rank))
        spe = z**2 @ variances[rank:]
        exceedance = np.mean(spe > q_threshold(variances, rank, beta).q_beta)
        assert beta / 3 <= exceedance <= 3 * beta

    def test_nonpositive_base_is_degenerate(self):
        # residual {10, 1 x 80}: theta = (90, 180, 1080) and h0 = -1 exactly,
        # so 1/h0 is an integer; a base <= 0 still gives no threshold, since
        # (Q/theta1)^h0 is positive
        variances = [20.0, 10.0] + [1.0] * 80
        with pytest.raises(DegenerateSpectrumError, match="nonpositive base"):
            q_threshold(variances, 1, 1e-7)
        # h0 = 1/3 here, and c_beta < 0 at beta = 0.99 drives the base below 0
        with pytest.raises(DegenerateSpectrumError, match="nonpositive base"):
            q_threshold([2.0, 1.0], 1, 0.99)
        # near beta = 1 the quantile is the SPE's lower tail: below theta1, above 0
        th = q_threshold(variances, 1, 1.0 - 1e-7)
        assert (th.h0, th.theta) == (-1.0, (90.0, 180.0, 1080.0))
        assert 0.0 < th.q_beta < th.theta[0]

    def test_all_zero_residual_errors(self):
        # at 1e-160 theta2 is nonzero but theta2**2, the h0 denominator, underflows
        for variances, rank in (([3.0, 2.0, 0.0, 0.0], 2), ([1.0, 1e-160], 1)):
            with pytest.raises(DegenerateSpectrumError, match="degenerate"):
                q_threshold(variances, rank, 0.005)

    def test_numerically_zero_h0_errors(self):
        # residual {1, 0.001003... x 500}: 2*theta1*theta3 and 3*theta2^2 agree
        # to roundoff, so h0 = 1 - their ratio is about -5e-14
        with pytest.raises(DegenerateSpectrumError, match="^degenerate residual spectrum: "
                           "h0 is numerically zero$"):
            q_threshold([100.0, 1.0] + [0.001003017375518525] * 500, 1, 0.005)

    def test_homogeneity_in_variance_scale(self):
        variances = np.array([4.0, 2.5, 1.0, 0.5, 0.25, 0.1])
        base = q_threshold(variances, 2, 0.005).q_beta
        scaled = q_threshold(10.0 * variances, 2, 0.005).q_beta
        assert scaled == pytest.approx(10.0 * base, rel=1e-9)

    def test_theta_scales_by_powers(self):
        variances = np.array([3.0, 2.0, 1.0, 0.5])
        t1 = q_threshold(variances, 1, 0.01)
        t10 = q_threshold(10.0 * variances, 1, 0.01)
        for i in range(3):
            assert t10.theta[i] == pytest.approx(10.0 ** (i + 1) * t1.theta[i], rel=1e-12)
        assert t10.h0 == pytest.approx(t1.h0, rel=1e-12)

    @given(st.lists(st.floats(1e-6, 1e3), min_size=3, max_size=40), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_h0_bounded_by_cauchy_schwarz(self, values, rank):
        variances = np.sort(np.array(values))[::-1]
        rank = min(rank, variances.shape[0] - 1)
        try:
            th = q_threshold(variances, rank, 0.005)
        except DegenerateSpectrumError:
            return
        assert th.h0 <= 1.0 / 3.0 + 1e-9

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            q_threshold([1.0, 2.0, 0.5], 1, 0.005)

    def test_beta_domain(self):
        with pytest.raises(ValueError, match="beta"):
            q_threshold([2.0, 1.0], 1, 0.0)
        # 1 - 1e-17 rounds to 1.0, whose normal quantile is undefined
        y = np.random.default_rng(25).normal(size=(6, 30))
        for call in (
            lambda: q_threshold([2.0, 1.0], 1, 1e-17),
            lambda: detect(build_pca_model(y, 2), y, beta=1e-17),
        ):
            with pytest.raises(ValueError, match="1 - beta rounds below 1, got 1e-17"):
                call()

    def test_overflowing_spectrum_is_degenerate_not_assertion(self):
        # theta2 and theta3 overflow to inf, so h0 is NaN
        with pytest.raises(DegenerateSpectrumError, match="Cauchy-Schwarz"):
            q_threshold([1e300, 1e200, 1e110], 1, 0.005)

    def test_roundoff_negative_variances_scale_with_the_spectrum(self):
        # a singular covariance at scale 1e6 has zero eigenvalues near -1e-10
        th = q_threshold([1e6, 5e5, 2e5, -1e-10], 1, 0.005)
        assert th.theta[0] == 7e5
        with pytest.raises(ValueError, match="nonnegative"):
            q_threshold([1e6, 5e5, 2e5, -1e-5], 1, 0.005)

    def test_non_1d_variances_rejected(self):
        for variances, ndim in (([[3.0, 2.0], [1.0, 0.5]], 2), (3.0, 0)):
            with pytest.raises(ValueError, match=rf"^variances must be 1-D, got ndim={ndim}$"):
                q_threshold(variances, 1, 0.005)

    def test_non_finite_variances_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            q_threshold([3.0, np.nan, 1.0], 1, 0.005)

    def test_text_variances_rejected(self):
        # parsed as 1.0, 0.5, 0.2 they would give Q_beta 3.7166
        with pytest.raises(ValueError, match=r"^variances must hold real numbers, got dtype <U3$"):
            q_threshold(["1", "0.5", "0.2"], 1, 0.01)


class TestSpe:
    def test_quadratic_form_oracle(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=(12, 40))
        model = build_pca_model(y, 5)
        _, y_tilde = project(model, y)
        spe = np.sum(y_tilde * y_tilde, axis=0)
        p = model.basis[:, :5]
        c_tilde = np.eye(12) - p @ p.T
        centered = y - model.mean[:, None]
        for j in range(40):
            col = centered[:, j]
            want = col @ c_tilde @ col
            assert spe[j] == pytest.approx(want, rel=1e-9)


class TestDetect:
    def test_noiseless_exact_rank_flags_nothing(self):
        # residual spectrum is pure roundoff here; zero flags whether the
        # threshold degenerates or evaluates at roundoff scale
        sc = assemble_scenario(NOISELESS)
        model = build_pca_model(sc.y, 24)
        report = detect(model, sc.y)
        assert report.flag_count == 0
        assert report.spe.shape == (640,)

    def test_exact_zero_residual_spectrum_degenerates(self):
        rng = np.random.default_rng(24)
        basis = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        y = rng.normal(size=(6, 30))
        for residual in (0.0, 1e-160):
            model = SubspaceModel(
                basis=basis,
                variances=np.array([3.0, 2.0, residual, residual, residual, residual]),
                rank=2,
                method="pca",
                mean=np.zeros(6),
            )
            report = detect(model, y)
            assert report.degenerate
            assert report.threshold is None
            assert report.flag_count == 0

    @pytest.mark.parametrize("rank", [4, 8])
    def test_clean_traffic_with_negative_h0_is_rarely_flagged(self, rank):
        # Gaussian link traffic, covariance eigenvalues 1/i, no anomalies:
        # beta = 0.005 expects ~3.2 of 640 snapshots flagged. The sample h0
        # is -0.14 at rank 4 and -0.005 at rank 8 for this draw (near 0 at
        # rank 8, its sign there depends on the draw)
        m, t = 120, 640
        rng = np.random.default_rng(2)
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        y = basis @ (np.sqrt(1.0 / np.arange(1, m + 1))[:, None] * rng.standard_normal((m, t)))
        (report,) = detect_ranks(build_pca_model(y, rank), y, [rank])
        assert report.threshold.h0 < 0.0
        assert report.flag_count <= 10

    def test_reference_scenario_produces_flags(self):
        # Monte-Carlo pilot at the reference scale put pca flag counts in
        # the single-to-low-double digits; assert the qualitative claim
        for s in range(2):
            sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(500, s)))
            report = detect(build_pca_model(sc.y, 24), sc.y)
            assert report.flag_count > 0
            assert report.flags.shape == (640,)

    def test_flags_follow_threshold_rule(self):
        rng = np.random.default_rng(19)
        y = rng.normal(size=(10, 90))
        report = detect(build_pca_model(y, 3), y)
        assert report.threshold is not None
        np.testing.assert_array_equal(report.flags, report.spe > report.threshold.q_beta)

    def test_scale_invariance_of_flags(self):
        # scaling traffic by 2 scales SPE and Q_beta by exactly 4 (binary
        # exact), so rebuilt-model flags are bit-identical
        rng = np.random.default_rng(20)
        y = rng.normal(size=(16, 120)) + 0.3
        for build in (
            lambda data: build_pca_model(data, 6),
            lambda data: build_rbad_model(data, 6, SeedSpec(21)),
        ):
            base = detect(build(y), y)
            scaled = detect(build(2.0 * y), 2.0 * y)
            np.testing.assert_array_equal(base.flags, scaled.flags)
            assert scaled.threshold.q_beta == pytest.approx(4.0 * base.threshold.q_beta, rel=1e-12)

    def test_report_metadata(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=(8, 50))
        report = detect(build_rbad_model(y, 3, SeedSpec(1), power_exponent=1), y)
        assert report.model_summary == ModelSummary("rbad", 3, None, 1)


def _fake_report(flags):
    flags = np.asarray(flags, dtype=bool)
    return DetectionReport(
        spe=np.zeros(flags.shape[0]),
        threshold=None,
        flags=flags,
        model_summary=ModelSummary("sspbad", 1, None, None),
    )


class TestSspbadSelect:
    def test_single_candidate(self):
        report = _fake_report([True, False])
        assert sspbad_select([report]) is report

    def test_first_maximum_wins_ties(self):
        counts = (3, 7, 7, 2)
        reports = [_fake_report([True] * c + [False] * (10 - c)) for c in counts]
        assert sspbad_select(reports) is reports[1]

    def test_exhaustive_subsets_return_max(self):
        pool = [_fake_report([True] * c + [False] * (8 - c)) for c in (0, 3, 5, 5, 8)]
        for size in (1, 2, 3, 4, 5):
            for subset in itertools.combinations(pool, size):
                chosen = sspbad_select(list(subset))
                assert chosen.flag_count == max(r.flag_count for r in subset)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sspbad_select([])

    def test_end_to_end_selection_matches_candidates(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=(20, 100))
        y[:, 5] += 3.0
        seed = SeedSpec(30)
        candidates = build_sspbad_candidates(y, 6, seed)
        reports = [detect(c, y) for c in candidates]
        chosen = sspbad_detect(y, 6, seed)
        assert chosen.flag_count == max(r.flag_count for r in reports)


REFERENCE_GRID = (8, 16, 24, 32, 48, 64)


def _reference_models(stream):
    sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(600, stream)))
    models = [
        build_pca_model(sc.y, 8),
        build_rbad_model(sc.y, 8, SeedSpec(601, stream)),
        *build_sspbad_candidates(sc.y, 8, SeedSpec(602, stream)),
    ]
    return sc, models


def _cumsum_spes(model, y, grid):
    """SPE at each rank of `grid` as a full-height cumsum of the removed
    coordinates gives it: SPE(lo) - cumsum(z[lo:]**2)[r - lo - 1]."""
    work = detectors._without_mean(y, model.mean)
    lo, hi = min(grid), max(grid)
    z = model.basis[:, :hi].T @ work
    spe_lo = np.sum((work - model.basis[:, :lo] @ z[:lo]) ** 2, axis=0)
    removed = np.cumsum(z[lo:] ** 2, axis=0)
    return [spe_lo if rank == lo else spe_lo - removed[rank - lo - 1] for rank in grid]


class TestDetectRanks:
    @pytest.mark.parametrize("stream", [0, 1])
    def test_matches_per_rank_detect_on_reference_scenarios(self, stream):
        sc, models = _reference_models(stream)
        for model in models:
            reports = detect_ranks(model, sc.y, REFERENCE_GRID)
            assert len(reports) == len(REFERENCE_GRID)
            for rank, report in zip(REFERENCE_GRID, reports):
                want = detect(dataclasses.replace(model, rank=rank), sc.y)
                np.testing.assert_allclose(report.spe, want.spe, rtol=1e-12, atol=0)
                np.testing.assert_array_equal(report.flags, want.flags)
                assert report.threshold == want.threshold
                assert report.model_summary == want.model_summary

    def test_unsorted_duplicate_and_single_rank_grids(self):
        rng = np.random.default_rng(40)
        y = rng.normal(size=(12, 60))
        model = build_rbad_model(y, 1, SeedSpec(41), center=True)
        for grid in ([5, 2, 9, 2, 5], [7], [11, 1]):
            reports = detect_ranks(model, y, grid)
            assert [r.model_summary.rank for r in reports] == grid
            # SPE(r) = SPE(lo) - ...: roundoff is absolute, on the scale of SPE(lo)
            scale = np.max(detect(dataclasses.replace(model, rank=min(grid)), y).spe)
            for rank, report in zip(grid, reports):
                want = detect(dataclasses.replace(model, rank=rank), y)
                np.testing.assert_allclose(report.spe, want.spe, rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_array_equal(report.flags, want.flags)

    @pytest.mark.parametrize("stream", [0, 1])
    def test_reference_spe_bits_are_a_cumsums(self, stream):
        sc, models = _reference_models(stream)
        for model in models:
            reports = detect_ranks(model, sc.y, REFERENCE_GRID)
            for report, want in zip(reports, _cumsum_spes(model, sc.y, REFERENCE_GRID)):
                np.testing.assert_array_equal(report.spe, want)

    @pytest.mark.parametrize("center", [True, False])
    def test_grid_spe_bits_are_a_cumsums(self, center):
        rng = np.random.default_rng(44)
        y = rng.normal(size=(12, 60)) + rng.normal(size=(12, 1))
        model = build_rbad_model(y, 1, SeedSpec(45), center=center)
        for grid in ([5, 2, 9, 2, 5], [7], [11, 1]):
            reports = detect_ranks(model, y, grid)
            for report, want in zip(reports, _cumsum_spes(model, y, grid)):
                np.testing.assert_array_equal(report.spe, want)

    def test_grid_validation(self):
        y = np.random.default_rng(42).normal(size=(6, 30))
        model = build_pca_model(y, 2)
        with pytest.raises(ValueError, match="nonempty"):
            detect_ranks(model, y, [])
        with pytest.raises(ValueError, match="rank"):
            detect_ranks(model, y, [2, 6])
        for short in (y[:5], detectors._Traffic(y[:5])):
            with pytest.raises(ValueError, match="rows"):
                detect_ranks(model, short, [2])
        with pytest.raises(ValueError, match="nonempty"):
            detect_method("pca", y, [], SeedSpec(1))
        with pytest.raises(ValueError, match="unknown method 'rpca'"):
            detect_method("rpca", y, [2], SeedSpec(1))

    @pytest.mark.parametrize("stream", [0, 1])
    def test_thresholds_are_q_threshold_from_one_quantile(self, stream):
        sc, models = _reference_models(stream)
        for model in models:
            for beta in (0.005, 0.05):
                reports = detect_ranks(model, sc.y, REFERENCE_GRID, beta)
                for rank, report in zip(REFERENCE_GRID, reports):
                    assert report.threshold == q_threshold(model.variances, rank, beta)

    def test_spectrum_is_checked_once_per_model(self):
        # a model checks its spectrum when it is made; detection trusts it
        with (mock.patch.object(detectors, "_check_spectrum",
                                wraps=detectors._check_spectrum) as spectrum_rule,
              mock.patch.object(detectors, "q_threshold") as public):
            sweep_rank(ScenarioConfig(seed=SeedSpec(605)), ["pca", "rbad", "sspbad"],
                       REFERENCE_GRID, 1)
        assert spectrum_rule.call_count == 6  # pca, rbad and the four sspbad candidates
        assert public.call_count == 0

    def test_rank_loop_reads_no_array(self):
        sc, models = _reference_models(0)
        for grid in ([8], REFERENCE_GRID):
            with (mock.patch.object(detectors, "_as_matrix", wraps=detectors._as_matrix) as read,
                  mock.patch.object(detectors, "_check_spectrum") as spectrum_rule,
                  mock.patch.object(detectors, "q_threshold") as public):
                detect_ranks(models[0], sc.y, grid)
            assert read.call_count == 1  # the traffic, whatever the grid
            assert spectrum_rule.call_count == public.call_count == 0

    def test_degenerate_rank_gives_no_threshold(self):
        rng = np.random.default_rng(43)
        model = SubspaceModel(
            basis=np.linalg.qr(rng.normal(size=(6, 6)))[0],
            variances=np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]),
            rank=1,
            method="pca",
            mean=np.zeros(6),
        )
        live, dead = detect_ranks(model, rng.normal(size=(6, 30)), [1, 3])
        assert live.threshold is not None
        assert dead.degenerate
        assert dead.flag_count == 0

    def test_rank_by_rank_selection_matches_sspbad_detect(self):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(603)))
        seed = SeedSpec(604)
        candidates = build_sspbad_candidates(sc.y, 8, seed)
        per_candidate = [detect_ranks(c, sc.y, REFERENCE_GRID) for c in candidates]
        for rank, at_rank in zip(REFERENCE_GRID, zip(*per_candidate)):
            chosen = sspbad_select(at_rank)
            want = sspbad_detect(sc.y, rank, seed)
            assert chosen.model_summary == want.model_summary
            np.testing.assert_array_equal(chosen.flags, want.flags)
            np.testing.assert_allclose(chosen.spe, want.spe, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stream", [0, 1])
    def test_detect_method_is_build_detect_ranks_select(self, stream):
        sc, (pca, rbad, *candidates) = _reference_models(stream)
        per_candidate = [detect_ranks(c, sc.y, REFERENCE_GRID) for c in candidates]
        cases = [
            ("pca", SeedSpec(999), detect_ranks(pca, sc.y, REFERENCE_GRID)),
            ("rbad", SeedSpec(601, stream), detect_ranks(rbad, sc.y, REFERENCE_GRID)),
            ("sspbad", SeedSpec(602, stream),
             [sspbad_select(at_rank) for at_rank in zip(*per_candidate)]),
        ]
        for method, seed, want in cases:
            got = detect_method(method, sc.y, REFERENCE_GRID, seed)
            assert len(got) == len(want)
            for report, expected in zip(got, want):
                np.testing.assert_array_equal(report.spe, expected.spe)
                np.testing.assert_array_equal(report.flags, expected.flags)
                assert report.threshold == expected.threshold
                assert report.model_summary == expected.model_summary

    def test_single_rank_is_the_projection_bit_for_bit(self):
        rng = np.random.default_rng(44)
        y = rng.normal(2.0, 1.0, size=(14, 50))
        for model in (build_rbad_model(y, 4, SeedSpec(45)), build_pca_model(y, 4)):
            work = detectors._without_mean(y, model.mean)
            p = model.basis[:, :4]
            residual = work - p @ (p.T @ work)
            want = np.sum(residual * residual, axis=0)
            (report,) = detect_ranks(model, y, [4])
            np.testing.assert_array_equal(report.spe, want)
            np.testing.assert_array_equal(detect(model, y).spe, want)


class TestSspbadOneCandidateAtATime:
    """`detect_method` builds, detects and drops the sspbad candidates one
    at a time, with the bits of selecting among all of them built at once."""

    @pytest.mark.parametrize("center", [False, True])
    def test_same_reports_as_all_candidates_at_once(self, center):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(607)))
        seed = SeedSpec(608)
        candidates = build_sspbad_candidates(sc.y, 8, seed, center)
        per_candidate = [detect_ranks(c, sc.y, REFERENCE_GRID) for c in candidates]
        want = [sspbad_select(at_rank) for at_rank in zip(*per_candidate)]
        _assert_same_reports(
            detect_method("sspbad", sc.y, REFERENCE_GRID, seed, center=center), want
        )

    def test_one_candidate_basis_alive_at_a_time(self, monkeypatch):
        y = np.random.default_rng(609).normal(size=(16, 80))
        real, calls, bases, alive = detectors.build_sspbad_candidates, [], [], []

        def build(*args, **kwargs):
            calls.append(args)
            models = real(*args, **kwargs)
            while True:
                # the candidates yielded so far that are still held, as the
                # next one is built (and once more after the last)
                alive.append(sum(ref() is not None for ref in bases))
                model = next(models, None)
                if model is None:
                    return
                bases.append(weakref.ref(model.basis))
                yield model
                del model

        monkeypatch.setattr(detectors, "build_sspbad_candidates", build)
        detect_method("sspbad", y, [2, 4], SeedSpec(610))
        assert len(calls) == 1 and len(bases) == 4
        assert alive == [0, 0, 0, 0, 0]


class TestBasisSigns:
    """Models are used only through the span of their basis: flipping the
    sign of any basis columns changes no detection or variance bit."""

    @pytest.mark.parametrize("stream", [0, 1])
    def test_flipped_columns_change_no_output(self, stream):
        sc, models = _reference_models(stream)
        traffic = detectors._Traffic(sc.y)
        rng = np.random.default_rng(700 + stream)
        for model in models:
            signs = np.where(rng.random(model.m) < 0.5, -1.0, 1.0)
            assert (signs < 0).any() and (signs > 0).any()
            flipped = dataclasses.replace(model, basis=model.basis * signs)
            _assert_same_reports(detect_ranks(flipped, traffic, REFERENCE_GRID),
                                 detect_ranks(model, traffic, REFERENCE_GRID))
            for got, want in zip(project(flipped, traffic), project(model, traffic), strict=True):
                np.testing.assert_array_equal(got, want)
            moments = traffic.moments(model.mean.any())
            ranked = [
                detectors._range_model(basis, 0, moments, model.rank, model.method,
                                       model.ensemble, model.power_exponent)
                for basis in (flipped.basis, model.basis)
            ]
            np.testing.assert_array_equal(ranked[0].variances, ranked[1].variances)
            np.testing.assert_array_equal(np.abs(ranked[0].basis), np.abs(ranked[1].basis))


class TestSharedTraffic:
    """Every public function that reads traffic gives, for a validated and
    reduced `_Traffic`, the bits it gives for that `_Traffic`'s array."""

    def test_same_bits_as_the_array(self):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(605)))
        traffic = detectors._Traffic(sc.y)
        seed = SeedSpec(606)
        for center in (False, True):
            fits = [
                lambda y: [build_pca_model(y, 8)],
                lambda y: [build_rbad_model(y, 8, seed, center=center)],
                lambda y: build_sspbad_candidates(y, 8, seed, center=center),
            ]
            for fit in fits:
                for got, want in zip(fit(traffic), fit(sc.y), strict=True):
                    np.testing.assert_array_equal(got.basis, want.basis)
                    np.testing.assert_array_equal(got.variances, want.variances)
                    _assert_same_reports(detect_ranks(want, traffic, REFERENCE_GRID),
                                         detect_ranks(want, sc.y, REFERENCE_GRID))
                    for part, expected in zip(project(want, traffic), project(want, sc.y)):
                        np.testing.assert_array_equal(part, expected)
            for method in ("pca", "rbad", "sspbad"):
                _assert_same_reports(
                    detect_method(method, traffic, REFERENCE_GRID, seed, center=center),
                    detect_method(method, sc.y, REFERENCE_GRID, seed, center=center),
                )


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for report, expected in zip(got, want):
        np.testing.assert_array_equal(report.spe, expected.spe)
        np.testing.assert_array_equal(report.flags, expected.flags)
        assert report.threshold == expected.threshold
        assert report.model_summary == expected.model_summary


def _with_nan(y):
    y = y.copy()
    y[3, 7] = np.nan
    return y


class TestInputValidation:
    def test_non_finite_traffic_rejected_everywhere(self):
        y = np.random.default_rng(46).normal(size=(8, 40))
        bad = _with_nan(y)
        model = build_pca_model(y, 2)
        calls = [
            lambda: build_pca_model(bad, 2),
            lambda: build_rbad_model(bad, 2, SeedSpec(1)),
            lambda: build_sspbad_candidates(bad, 2, SeedSpec(1)),
            lambda: detect(model, bad),
            lambda: detect_ranks(model, bad, [1, 2]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()
        inf = y.copy()
        inf[0, 0] = np.inf
        with pytest.raises(ValueError, match="1 non-finite"):
            detect(model, inf)

    def test_non_integer_ranks_rejected(self):
        y = np.random.default_rng(47).normal(size=(8, 40))
        model = build_pca_model(y, 2)
        cfg = ScenarioConfig(m=12, n=24, t=40, r_true=3, anomaly_count=4, seed=SeedSpec(48))
        calls = [
            (lambda: build_pca_model(y, 2.5), "rank", 2.5),
            (lambda: build_rbad_model(y, 2.0, SeedSpec(1)), "rank", 2.0),
            (lambda: build_sspbad_candidates(y, np.float64(2.0), SeedSpec(1)), "rank",
             np.float64(2.0)),
            (lambda: dataclasses.replace(model, rank=2.5), "rank", 2.5),
            (lambda: detect_ranks(model, y, [1, 2.0]), "rank", 2.0),
            (lambda: q_threshold(model.variances, 2.0, 0.005), "rank", 2.0),
            (lambda: sweep_rank(cfg, ["pca"], [4.0], 1), "rank grid value", 4.0),
            (lambda: build_rbad_model(y, 2, SeedSpec(1), power_exponent=1.5),
             "power_exponent", 1.5),
            (lambda: detect_method("rbad", y, [2], SeedSpec(1), power_exponent=1.5),
             "power_exponent", 1.5),
            (lambda: detect_method("pca", y, [2], SeedSpec(1), power_exponent=1.5),
             "power_exponent", 1.5),
            # bool is an int subclass, but no rank, exponent or seed
            (lambda: build_pca_model(y, True), "rank", True),
            (lambda: detect_ranks(model, y, [True]), "rank", True),
            (lambda: detect_method("pca", y, [True], SeedSpec(1)), "rank", True),
            (lambda: q_threshold(model.variances, True, 0.005), "rank", True),
            (lambda: sweep_rank(cfg, ["pca"], [True], 1), "rank grid value", True),
            (lambda: build_rbad_model(y, 2, SeedSpec(1), power_exponent=False),
             "power_exponent", False),
            (lambda: SeedSpec(True), "master_seed", True),
            (lambda: SeedSpec(1.5), "master_seed", 1.5),
            (lambda: SeedSpec(1, 0.5), "stream_index", 0.5),
            (lambda: SeedSpec(1).split(2.0), "branch label", 2.0),
        ]
        for call, name, value in calls:
            message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                call()
        # numpy integers are ranks, power exponents and seeds
        rank = np.int64(2)
        assert build_pca_model(y, rank).rank == 2
        reports = detect_ranks(model, y, [np.int32(1), rank])
        assert [report.threshold for report in reports] == [
            q_threshold(model.variances, r, 0.005) for r in (1, 2)
        ]
        rows, _ = sweep_rank(cfg, ["pca"], [rank], 1)
        assert rows[0].rank == 2
        seed = SeedSpec(np.uint64(1), np.int32(0)).split(np.int64(3))
        np.testing.assert_array_equal(seed.generator().random(4),
                                      SeedSpec(1, 0, (3,)).generator().random(4))
        rbad = build_rbad_model(y, 2, seed, power_exponent=np.int64(1))
        np.testing.assert_array_equal(rbad.basis, build_rbad_model(y, 2, seed, 1).basis)

    def test_one_link_admits_no_rank(self):
        # ranks lie in [1, m - 1], so one link admits none
        y = np.random.default_rng(50).normal(size=(1, 40))
        model = build_pca_model(np.random.default_rng(50).normal(size=(2, 40)), 1)
        cfg = ScenarioConfig(m=1, n=2, t=40, r_true=1, anomaly_count=1, seed=SeedSpec(51))
        calls = [
            (lambda: build_pca_model(y, 1), "rank"),
            (lambda: detect_method("rbad", y, [1], SeedSpec(1)), "rank"),
            (lambda: q_threshold(np.ones(1), 1, 0.005), "rank"),
            (lambda: SubspaceModel(model.basis[:1, :1], model.variances[:1], 1, "pca",
                                   model.mean[:1]), "rank"),
            (lambda: sweep_rank(cfg, ["pca"], [1], 1), "rank grid value"),
        ]
        for call, name in calls:
            message = rf"^{name} must be in \[1, m - 1\], which needs m >= 2 links, got m = 1$"
            with pytest.raises(ValueError, match=message):
                call()
        # a rank below 1, or no integer, is named as for any m
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            build_pca_model(y, 0)
        with pytest.raises(ValueError, match=r"^rank must be an integer, got 1.0$"):
            build_pca_model(y, 1.0)

    def test_subspace_model_shapes_rejected(self):
        model = build_pca_model(np.random.default_rng(49).normal(size=(6, 30)), 2)
        with pytest.raises(ValueError, match=r"^basis must be square, got \(6, 5\)$"):
            dataclasses.replace(model, basis=model.basis[:, :5])
        with pytest.raises(ValueError, match="one entry per basis row"):
            dataclasses.replace(model, mean=model.mean[:5])

    @pytest.mark.parametrize("name", ["basis", "variances", "mean"])
    @pytest.mark.parametrize("dtype", [complex, str])
    def test_subspace_model_arrays_must_be_real(self, name, dtype):
        # a complex basis would give a complex SPE; text would be parsed
        model = build_pca_model(np.random.default_rng(49).normal(size=(6, 30)), 2)
        bad = getattr(model, name).astype(dtype)
        with pytest.raises(ValueError, match=rf"^{name} must hold real numbers, got dtype "):
            dataclasses.replace(model, **{name: bad})

    def test_subspace_model_arrays_are_cast_to_float(self):
        model = build_pca_model(np.random.default_rng(49).normal(size=(6, 30)), 2)
        rebuilt = dataclasses.replace(model, basis=model.basis.tolist(), mean=np.zeros(6, dtype=int))
        assert rebuilt.basis.tobytes() == model.basis.tobytes()
        assert rebuilt.mean.dtype == np.float64

    def test_one_dimensional_traffic_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            build_rbad_model(np.ones(10), 1, SeedSpec(1))

    def test_nan_rejected_without_asserts(self):
        # python -O strips asserts; validation must not depend on them
        code = (
            "import numpy as np\n"
            "from linkanom import build_pca_model, detect\n"
            "y = np.random.default_rng(0).normal(size=(8, 40))\n"
            "model = build_pca_model(y, 2)\n"
            "y[3, 7] = np.nan\n"
            "for call in (lambda: build_pca_model(y, 2), lambda: detect(model, y)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("non-finite") == 2


class TestLinkOffsets:
    """Per-link offsets, which real link counts have and the simulator does
    not draw, move no rbad flag beyond the benchmark's tolerance."""

    @pytest.mark.parametrize("center", [
        True,
        pytest.param(False, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 2: an uncentered model ranks its basis by the centered covariance, "
            "so the offsets stay in the residual and every snapshot is flagged"))),
    ])
    def test_flags_stay_within_the_benchmark_tolerance(self, center):
        sc = assemble_scenario(ScenarioConfig(seed=SeedSpec(7, 0)))
        seed = SeedSpec(7, 0).split(evaluation._RBAD_STREAM)  # the sweep's rbad substream
        offsets = np.random.default_rng(0).uniform(0.5, 1.5, size=(sc.y.shape[0], 1))
        for plain, offset in zip(detect_method("rbad", sc.y, [8, 24], seed, center=center),
                                 detect_method("rbad", sc.y + offsets, [8, 24], seed, center=center)):
            assert abs(offset.flag_count - plain.flag_count) <= 2 + 0.005 * plain.flag_count


def _too_large_calls():
    """Finite traffic whose reductions or products overflow float64, each
    with the result that overflows first."""
    y = np.random.default_rng(48).normal(size=(12, 40))
    constant = y.copy()
    constant[0] = 1e200  # no variance, but a mean whose square overflows
    # a normal subspace along the all-ones direction sums a row of 1e308s
    basis = np.linalg.qr(np.column_stack([np.ones(12), y[:, :11]]))[0]
    ones = SubspaceModel(basis, np.arange(12.0, 0.0, -1.0), 1, "pca", np.zeros(12))
    return [
        pytest.param(lambda: detect_method("pca", 1e160 * y, [2], SeedSpec(1)), "covariance",
                     id="covariance"),
        pytest.param(lambda: build_rbad_model(constant, 2, SeedSpec(1)), "second moment",
                     id="second-moment"),
        pytest.param(lambda: detect_method("rbad", 1e150 * y, [2], SeedSpec(1)), "power-step block",
                     id="power-step"),
        pytest.param(lambda: detect_ranks(build_pca_model(y, 2), 1e160 * y, [2]),
                     r"residual energy \(SPE\)", id="spe"),
        pytest.param(lambda: project(ones, np.full((12, 40), 1e308)), "residual", id="project"),
    ]


class TestTooLargeTraffic:
    """Finite traffic too large for float64 raises a ValueError naming it,
    or, where only a Q-statistic theta overflows, is degenerate; never a
    numpy RuntimeWarning (which CI's -W error would raise instead)."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("call, name", _too_large_calls())
    def test_overflow_is_named(self, call, name):
        with pytest.raises(ValueError, match=rf"^traffic y is too large: its {name} overflows float64$"):
            call()

    def test_overflowed_thetas_are_degenerate(self):
        # theta2 = 1.8e155 is finite, but Python's float power raises
        # OverflowError on its square, h0's denominator
        for spectrum in ([1e300, 1e200, 1e110], [1e80, 3e77, 3e77]):
            with pytest.raises(DegenerateSpectrumError, match="Cauchy-Schwarz"):
                q_threshold(spectrum, 1, 0.005)
        y = np.random.default_rng(48).normal(size=(12, 40))
        (report,) = detect_method("sspbad", 1e100 * y, [2], SeedSpec(1))
        assert report.degenerate and report.flag_count == 0


@st.composite
def _edge_traffic(draw):
    """Small traffic at the edges the detectors must survive: t = 2,
    t < m, constant rows, rank m-1 and all-zero traffic, at unit scale and
    at a scale where the roundoff of zero eigenvalues exceeds 1e-12."""
    m = draw(st.integers(2, 10))
    t = draw(st.one_of(st.just(2), st.integers(2, m), st.integers(m, 3 * m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = draw(st.sampled_from([1.0, 1e3])) * rng.normal(size=(m, t))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
        y[rows] = rng.normal(size=(len(rows), 1))
    if draw(st.booleans()):
        y[:] = 0.0
    rank = draw(st.one_of(st.just(m - 1), st.integers(1, m - 1)))
    return y, rank


class TestEdgeTraffic:
    # Invariants only: for t < m the sketch is rank-deficient and its QR
    # completion columns are not unique, so flag counts depend on roundoff.
    @given(_edge_traffic(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, traffic, seed):
        y, rank = traffic
        m = y.shape[0]
        builders = [
            lambda: [build_pca_model(y, rank)],
            lambda: [build_rbad_model(y, rank, SeedSpec(seed))],
            lambda: list(build_sspbad_candidates(y, rank, SeedSpec(seed), center=True)),
        ]
        grid = sorted({1, rank, m - 1})
        for build in builders:
            try:
                models = build()
                runs = [[detect_ranks(model, y, grid) for model in models] for _ in range(2)]
            except ValueError:
                continue
            first, again = runs
            for model, reports, repeats in zip(models, first, again):
                work = detectors._without_mean(y, model.mean)
                energy = np.sum(work * work, axis=0)
                for report, repeat in zip(reports, repeats):
                    assert (report.spe >= -1e-12 * (1.0 + energy)).all()
                    if report.threshold is None:
                        assert report.flag_count == 0
                    else:
                        np.testing.assert_array_equal(
                            report.flags, report.spe > report.threshold.q_beta
                        )
                    np.testing.assert_array_equal(report.spe, repeat.spe)
                    np.testing.assert_array_equal(report.flags, repeat.flags)
