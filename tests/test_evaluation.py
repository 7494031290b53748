"""Scoring and experiment-harness tests: confusion arithmetic, the
combined detection-rate measure, variance tables, and sweep determinism."""

import collections
import dataclasses
import json
import subprocess
import sys
import textwrap
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkanom import cli, detectors, evaluation, linalg
from linkanom.detectors import DetectionReport, ModelSummary, detect_method
from linkanom.ensembles import EnsembleKind, SeedSpec
from linkanom.evaluation import (
    ConfusionCounts,
    MetricRow,
    detection_rate,
    false_alarm_rate,
    score,
    sweep_rank,
    true_positive_rate,
    variance_compare,
)
from linkanom.traffic import ScenarioConfig, assemble_scenario, default_anomaly_count

SMALL = ScenarioConfig(m=24, n=48, t=90, r_true=6, anomaly_count=10, seed=SeedSpec(5))

# The benchmark's workloads and rank grid, copied from bench/workloads.py:
# importing that module would pin the BLAS thread count for the session.
BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_REFERENCE = BENCH / "reference.json"
BENCH_SWEEPS = {
    "sweep_ref": ((120, 240, 640), ("pca", "rbad", "sspbad")),
    "sweep_large_rand": ((480, 960, 2560), ("rbad", "sspbad")),
}
BENCH_RANKS = (8, 16, 24, 32, 48, 64)
BENCH_SCENARIO_IO = ((120, 240, 640), 24, ("pca", "rbad", "sspbad"))  # size, rank, methods


def _report(flags):
    flags = np.asarray(flags, dtype=bool)
    return DetectionReport(
        spe=np.zeros(flags.shape[0]),
        threshold=None,
        flags=flags,
        model_summary=ModelSummary("pca", 1, None, None),
    )


class TestScore:
    def test_perfect_agreement(self):
        labels = [True, True, False, True]
        counts = score(_report(labels), labels)
        assert counts == ConfusionCounts(tp=3, fp=0, fn=0, tn=1)

    def test_all_flags_false(self):
        labels = [True] * 4 + [False] * 6
        counts = score(_report([False] * 10), labels)
        assert counts == ConfusionCounts(tp=0, fp=0, fn=4, tn=6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            score(_report([True, False]), [True])

    def test_labels_must_be_one_per_flag(self):
        message = r"^labels must be one per flag: got 3 for 4 flags$"
        with pytest.raises(ValueError, match=message):
            score(_report([True, False, True, False]), [True, False, True])

    # the label rule is the array rule (dtype, ndim 1, finite) plus 0/1, and
    # it comes before the length check
    @pytest.mark.parametrize("labels, message", [
        ("x" * 4, r"must hold real numbers, got dtype <U4"),
        ([[True], [False], [True], [False]], r"must be 1-D, got ndim=2"),
        (1, r"must be 1-D, got ndim=0"),
        ([1.0, np.nan, 0.0], r"has 1 non-finite values \(NaN or inf\)"),
        (["1", "0", "1", "0"], r"must hold real numbers, got dtype <U1"),
        ([[1, 0], [1]], r"must be a rectangular array, not a ragged sequence"),
    ], ids=["text-scalar", "2-D", "scalar", "nan", "text", "ragged"])
    def test_the_label_rule_comes_first(self, labels, message):
        with pytest.raises(ValueError, match=rf"^labels {message}$"):
            score(_report([True, False, True, False]), labels)

    @pytest.mark.parametrize("labels, message", [
        ([1, 0, 2, 0], r"got 2$"),
        ([1.0, 0.5, 0.0, 1.0], r"got 0.5$"),
    ])
    def test_labels_must_be_0_1_or_bool(self, labels, message):
        with pytest.raises(ValueError, match=r"^labels must be 0/1 or bool, " + message):
            score(_report([True, False, True, False]), labels)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float64])
    def test_0_1_labels_of_any_real_dtype_score_as_bool(self, dtype):
        labels = np.array([1, 0, 1, 0], dtype=dtype)
        assert score(_report([True, True, False, False]), labels) == ConfusionCounts(
            tp=1, fp=1, fn=1, tn=1)

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_counts_partition_snapshots(self, pairs):
        flags = [f for f, _ in pairs]
        labels = [l for _, l in pairs]
        counts = score(_report(flags), labels)
        assert counts.tp + counts.fp + counts.fn + counts.tn == len(pairs)
        assert min(counts.tp, counts.fp, counts.fn, counts.tn) >= 0


class TestDetectionRate:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            (ConfusionCounts(5, 0, 0, 10), 1.0),
            (ConfusionCounts(0, 0, 5, 10), 0.0),
            (ConfusionCounts(6, 4, 2, 10), 0.5),
            (ConfusionCounts(0, 0, 0, 10), 1.0),
        ],
    )
    def test_reference_values(self, counts, expected):
        assert detection_rate(counts) == expected

    def test_fn_to_tp_strictly_improves(self):
        worse = ConfusionCounts(tp=3, fp=2, fn=4, tn=11)
        better = ConfusionCounts(tp=4, fp=2, fn=3, tn=11)
        assert detection_rate(better) > detection_rate(worse)

    def test_tn_to_fp_strictly_degrades(self):
        clean = ConfusionCounts(tp=3, fp=2, fn=4, tn=11)
        noisy = ConfusionCounts(tp=3, fp=3, fn=4, tn=10)
        assert detection_rate(noisy) < detection_rate(clean)

    def test_rate_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, fn, tn = rng.integers(0, 20, size=4)
            rate = detection_rate(ConfusionCounts(int(tp), int(fp), int(fn), int(tn)))
            assert 0.0 <= rate <= 1.0

    def test_auxiliary_rates(self):
        counts = ConfusionCounts(tp=6, fp=4, fn=2, tn=8)
        assert true_positive_rate(counts) == pytest.approx(0.75)
        assert false_alarm_rate(counts) == pytest.approx(4 / 12)
        assert np.isnan(true_positive_rate(ConfusionCounts(0, 3, 0, 7)))
        assert np.isnan(false_alarm_rate(ConfusionCounts(3, 0, 7, 0)))


class TestVarianceCompare:
    def test_exact_rank_captures_everything_in_top_block(self):
        # with exactly rank-r_true traffic every method's top-r_true block
        # carries the whole variance budget and the residual is zero; the
        # individual per-index values remain basis-dependent
        cfg = dataclasses.replace(SMALL, noise_variance=0.0, anomaly_count=0)
        sc = assemble_scenario(cfg)
        table = variance_compare(sc.y, cfg.r_true, SeedSpec(71))
        total = None
        for j, name in enumerate(table.methods):
            top = table.variances[: cfg.r_true, j].sum()
            tail = table.variances[cfg.r_true :, j]
            assert np.max(np.abs(tail)) <= 1e-9 * table.variances[0, j]
            if total is None:
                total = top
            assert top == pytest.approx(total, rel=1e-9)

    def test_columns_cover_all_methods(self):
        sc = assemble_scenario(SMALL)
        table = variance_compare(sc.y, 6, SeedSpec(72))
        assert table.methods == (
            "pca",
            "rbad",
            "sspbad-gaussian",
            "sspbad-bernoulli-half",
            "sspbad-markov-column-stochastic",
            "sspbad-rademacher",
        )
        assert table.variances.shape == (24, 6)
        assert set(table.top_rank_deviation) == set(table.methods) - {"pca"}

    def test_smallest_variances_nonnegative(self):
        sc = assemble_scenario(SMALL)
        table = variance_compare(sc.y, 6, SeedSpec(73))
        assert (table.variances[-1, :] >= -1e-12).all()

    def test_deterministic(self):
        sc = assemble_scenario(SMALL)
        a = variance_compare(sc.y, 6, SeedSpec(74))
        b = variance_compare(sc.y, 6, SeedSpec(74))
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_fewer_snapshots_than_rank_rejected(self):
        # t = 10 centered snapshots span at most 9 directions, so pca
        # eigenvalues 10..24 are roundoff and no deviation relative to them
        # means anything
        y = np.random.default_rng(75).normal(size=(40, 10))
        with pytest.raises(ValueError, match=r"rank 24 .* eigenvalue 10 of 24"):
            variance_compare(y, 24, SeedSpec(75))

    def test_constant_traffic_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rank 3 .* eigenvalue 1 of 3"):
                variance_compare(np.full((8, 30), 3.0), 3, SeedSpec(76))


class TestSweepRank:
    def test_single_point_shape(self):
        rows, curves = sweep_rank(SMALL, ["pca"], [6], trials=1)
        assert len(rows) == 1
        assert len(curves) == 1
        assert curves[0].ranks == (6,)
        assert curves[0].std_detection_rate == (0.0,)
        assert rows[0].method == "pca" and rows[0].trial == 0

    def test_full_grid_row_count(self):
        rows, curves = sweep_rank(SMALL, ["pca", "rbad", "sspbad"], [4, 8], trials=2)
        assert len(rows) == 3 * 2 * 2
        assert {c.method for c in curves} == {"pca", "rbad", "sspbad"}

    def test_rows_and_curves_follow_the_grid_as_given(self):
        methods = ["sspbad", "pca"]
        rows, curves = sweep_rank(SMALL, methods, [8, 4], trials=2)
        assert [(r.method, r.rank, r.trial) for r in rows] == [
            (method, rank, trial) for method in methods for rank in (8, 4) for trial in (0, 1)
        ]
        assert [(c.method, c.ranks) for c in curves] == [("sspbad", (8, 4)), ("pca", (8, 4))]
        # the same points as the sorted grid's, only in the given order
        sorted_rows, sorted_curves = sweep_rank(SMALL, methods, [4, 8], trials=2)
        by_point = {(r.method, r.rank, r.trial): r for r in sorted_rows}
        assert rows == [by_point[(r.method, r.rank, r.trial)] for r in rows]
        for curve, sorted_curve in zip(curves, sorted_curves):
            assert curve.mean_detection_rate == sorted_curve.mean_detection_rate[::-1]
            assert curve.std_detection_rate == sorted_curve.std_detection_rate[::-1]

    def test_same_master_seed_reproduces(self):
        rows_a, curves_a = sweep_rank(SMALL, ["pca", "rbad"], [4, 8], trials=2)
        rows_b, curves_b = sweep_rank(SMALL, ["pca", "rbad"], [4, 8], trials=2)
        assert rows_a == rows_b
        assert curves_a == curves_b

    def test_parallel_matches_serial_bit_exactly(self):
        rows_serial, curves_serial = sweep_rank(SMALL, ["pca", "sspbad"], [4, 8], trials=3)
        rows_parallel, curves_parallel = sweep_rank(
            SMALL, ["pca", "sspbad"], [4, 8], trials=3, workers=3
        )
        assert rows_serial == rows_parallel
        assert curves_serial == curves_parallel

    def test_trials_use_distinct_streams(self):
        cfg = ScenarioConfig(m=40, n=80, t=160, r_true=8, anomaly_count=20, seed=SeedSpec(5))
        rows, _ = sweep_rank(cfg, ["sspbad"], [8], trials=3)
        rates = [row.detection_rate for row in rows]
        assert len(set(rates)) > 1  # three independent scenarios

    def test_trial_streams_compose_with_base_index(self):
        # trial i draws from stream base+i, so starting the base one later
        # reproduces the later trial exactly
        cfg = ScenarioConfig(m=40, n=80, t=160, r_true=8, anomaly_count=20, seed=SeedSpec(5))
        shifted = dataclasses.replace(cfg, seed=SeedSpec(5, 1))
        rows_two, _ = sweep_rank(cfg, ["sspbad"], [8], trials=2)
        rows_one, _ = sweep_rank(shifted, ["sspbad"], [8], trials=1)
        second = next(row for row in rows_two if row.trial == 1)
        only = rows_one[0]
        assert (second.detection_rate, second.tpr, second.far, second.flag_count) == (
            only.detection_rate,
            only.tpr,
            only.far,
            only.flag_count,
        )

    def test_degenerate_trials_score_zero_flags(self):
        cfg = dataclasses.replace(SMALL, noise_variance=0.0, anomaly_count=0)
        rows, curves = sweep_rank(cfg, ["pca"], [cfg.r_true], trials=1)
        assert rows[0].flag_count == 0
        assert rows[0].detection_rate == 1.0  # nothing to find, nothing flagged

    def test_validation(self):
        with pytest.raises(ValueError, match="methods"):
            sweep_rank(SMALL, [], [6], trials=1)
        with pytest.raises(ValueError, match="unknown method"):
            sweep_rank(SMALL, ["rpca"], [6], trials=1)
        with pytest.raises(ValueError, match="rank grid"):
            sweep_rank(SMALL, ["pca"], [SMALL.m], trials=1)
        with pytest.raises(ValueError, match="trials"):
            sweep_rank(SMALL, ["pca"], [6], trials=0)
        with pytest.raises(ValueError, match="repeats rank 6"):
            sweep_rank(SMALL, ["pca"], [4, 6, 8, 6], trials=1)
        for workers in (0, -5):
            with pytest.raises(ValueError, match="workers"):
                sweep_rank(SMALL, ["pca"], [6], trials=1, workers=workers)
        with pytest.raises(ValueError, match=r"^trials must be an integer, got 1.5$"):
            sweep_rank(SMALL, ["pca"], [6], trials=1.5)
        with pytest.raises(ValueError, match=r"^workers must be an integer, got 1.5$"):
            sweep_rank(SMALL, ["pca"], [6], trials=1, workers=1.5)
        with pytest.raises(ValueError, match="repeat method 'pca'"):
            sweep_rank(SMALL, ["pca", "rbad", "pca"], [6], trials=1)
        with pytest.raises(ValueError, match="^rank_grid must be nonempty$"):
            sweep_rank(SMALL, ["pca"], [], trials=1)
        # bool is an int subclass, but no count
        with pytest.raises(ValueError, match=r"^trials must be an integer, got True$"):
            sweep_rank(SMALL, ["pca"], [6], trials=True)
        with pytest.raises(ValueError, match=r"^workers must be an integer, got True$"):
            sweep_rank(SMALL, ["pca"], [6], trials=1, workers=True)
        # numpy integers are trial and worker counts
        want, _ = sweep_rank(SMALL, ["pca"], [6], trials=2)
        got, _ = sweep_rank(SMALL, ["pca"], [6], trials=np.int64(2), workers=np.int64(2))
        assert got == want

    @pytest.mark.parametrize("method", ["pca", "rbad"])
    def test_power_exponent_checked_before_any_trial(self, monkeypatch, method):
        def assemble(cfg):
            raise AssertionError("a scenario was assembled")

        monkeypatch.setattr(evaluation, "assemble_scenario", assemble)
        for value in (1.5, -1, True):
            with pytest.raises(ValueError, match="^power_exponent must be"):
                sweep_rank(SMALL, [method], [6], trials=2, power_exponent=value, workers=2)

    @pytest.mark.parametrize("trials, workers", [(2, 4), (6, 3), (3, 1)])
    def test_pool_runs_at_most_min_of_workers_and_trials(self, monkeypatch, trials, workers):
        # the pool starts a thread per submitted trial, up to `workers`;
        # a serial sweep runs on it too, not on the caller's thread
        idents = set()
        real = evaluation._run_trial
        monkeypatch.setattr(evaluation, "_run_trial",
                            lambda *a: idents.add(threading.get_ident()) or real(*a))
        sweep_rank(SMALL, ["pca"], [6], trials=trials, workers=workers)
        assert len(idents) <= min(workers, trials)
        assert threading.get_ident() not in idents


class TestTrialWorkingSet:
    """One sweep trial reduces Y once for every method and holds only Y
    and the labels while it fits."""

    ARGS = (["pca", "rbad", "sspbad"], [4, 8], 0.005, 2)

    @pytest.mark.parametrize("center", [False, True])
    def test_one_reduction_per_trial(self, monkeypatch, center):
        reductions = []
        real = detectors._Traffic.moments

        def moments(traffic, center):
            if traffic._reduced is None:
                reductions.append(traffic)
            return real(traffic, center)

        monkeypatch.setattr(detectors._Traffic, "moments", moments)
        evaluation._run_trial(SMALL, 0, *self.ARGS, center)
        assert len(reductions) == 1

    def test_scenario_dead_before_first_fit(self, monkeypatch):
        refs, alive_at_fit = [], []
        real_assemble, real_moments = evaluation.assemble_scenario, detectors._Traffic.moments

        def assemble(cfg):
            scenario = real_assemble(cfg)
            # every array the scenario stores but Y and the labels
            stored = [getattr(scenario, f.name) for f in dataclasses.fields(scenario)
                      if f.name not in ("y", "labels", "config")]
            assert len(stored) == 6
            refs.extend(weakref.ref(array) for array in stored)
            return scenario

        def moments(traffic, center):
            if traffic._reduced is None:
                alive_at_fit.append([ref() is not None for ref in refs])
            return real_moments(traffic, center)

        monkeypatch.setattr(evaluation, "assemble_scenario", assemble)
        monkeypatch.setattr(detectors._Traffic, "moments", moments)
        evaluation._run_trial(SMALL, 0, *self.ARGS, False)
        assert alive_at_fit == [[False] * 6]

    def test_fits_and_detects_through_the_public_functions(self, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **kw: calls.update([name]) or real(*a, **kw))

        count(evaluation, "detect_method")
        for name in ("build_pca_model", "build_rbad_model", "build_sspbad_candidates", "detect_ranks"):
            count(detectors, name)
        evaluation._run_trial(SMALL, 0, *self.ARGS, False)
        # one detect_ranks per model: pca, rbad and the 4 sspbad candidates,
        # which one builder call yields one at a time
        assert calls == {"detect_method": 3, "build_pca_model": 1, "build_rbad_model": 1,
                         "build_sspbad_candidates": 1, "detect_ranks": 6}

    @pytest.mark.parametrize("master_seed", [7, 1704])
    def test_rows_equal_per_method_detection(self, master_seed):
        cfg = ScenarioConfig(seed=SeedSpec(master_seed))
        methods, grid = ["pca", "rbad", "sspbad"], [8, 16, 24, 32, 48, 64]
        got = evaluation._run_trial(cfg, 1, methods, grid, 0.005, 2, False)
        trial_seed = SeedSpec(master_seed, 1)
        scenario = assemble_scenario(dataclasses.replace(cfg, seed=trial_seed))
        want = []
        for method in methods:
            # detector substreams 4 (rbad, and pca which draws nothing) and 5 (sspbad)
            seed = trial_seed.split(5 if method == "sspbad" else 4)
            for rank, report in zip(grid, detect_method(method, scenario.y, grid, seed)):
                counts = score(report, scenario.labels)
                want.append(MetricRow(method, rank, 1, detection_rate(counts),
                                      true_positive_rate(counts), false_alarm_rate(counts),
                                      report.flag_count))
        assert got == want


class TestSubstreams:
    """Within a sweep trial and in `variance_compare`, every random
    component draws once, from its own substream of the trial seed."""

    def test_each_component_draws_its_own_substream_once(self, monkeypatch):
        paths = []
        real = SeedSpec.generator

        def generator(seed):
            paths.append((seed.stream_index, seed.branch))
            return real(seed)

        trial = 1
        trial_seed = SeedSpec(SMALL.seed.master_seed, SMALL.seed.stream_index + trial)
        y = assemble_scenario(dataclasses.replace(SMALL, seed=trial_seed)).y
        monkeypatch.setattr(SeedSpec, "generator", generator)
        evaluation._run_trial(SMALL, trial, *TestTrialWorkingSet.ARGS, False)
        trial_paths = paths[:]
        paths.clear()
        variance_compare(y, 4, trial_seed)
        stream = trial_seed.stream_index
        # flows, routing, anomalies and noise; rbad; one per sspbad family
        scenario = {(stream, (i,)) for i in range(4)}
        detector = {(stream, (4,))} | {(stream, (5, i)) for i in range(len(EnsembleKind))}
        for drawn in (trial_paths, paths):
            assert len(drawn) == len(set(drawn))
        assert set(trial_paths) == scenario | detector
        assert set(paths) == detector


_BLAS_THREADS = linalg._openblas_threads()


@pytest.mark.skipif(_BLAS_THREADS is None, reason="no OpenBLAS thread-count symbols in numpy.libs")
class TestPoolBlasThreads:
    """Every sweep, serial or not, every `detect_method` and
    `variance_compare` call and every CLI run holds OpenBLAS at one thread
    and restores the count."""

    @pytest.fixture
    def threads(self):
        get, set_ = _BLAS_THREADS
        previous = get()
        set_(2)
        yield get()  # the count the sweep must restore (capped by the core count)
        set_(previous)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_thread_in_pool_and_restored(self, monkeypatch, threads, workers):
        get, _ = _BLAS_THREADS
        seen = []
        real = evaluation._run_trial
        monkeypatch.setattr(evaluation, "_run_trial", lambda *a: seen.append(get()) or real(*a))
        sweep_rank(SMALL, ["pca"], [6], trials=2, workers=workers)
        assert seen == [1, 1]
        assert get() == threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_after_a_trial_raises(self, monkeypatch, threads, workers):
        get, _ = _BLAS_THREADS
        seen = []

        def fail(*args):
            seen.append(get())
            raise RuntimeError("trial failed")

        monkeypatch.setattr(evaluation, "_run_trial", fail)
        with pytest.raises(RuntimeError, match="trial failed"):
            sweep_rank(SMALL, ["pca"], [6], trials=2, workers=workers)
        assert set(seen) == {1}
        assert get() == threads

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("entry", ["detect_method", "variance_compare", "cli.main"])
    def test_entry_point_holds_one_thread_and_restores(self, monkeypatch, tmp_path, threads,
                                                       entry, fails):
        get, _ = _BLAS_THREADS
        y = assemble_scenario(SMALL).y
        generate = ["generate", "--m", "12", "--n", "24", "--t", "40", "--output",
                    str(tmp_path / "scen")]
        # the entry point, and a call it makes once its inputs are checked
        module, inner, call = {
            "detect_method": (detectors, "detect_ranks",
                              lambda: detect_method("pca", y, [6], SeedSpec(1))),
            "variance_compare": (evaluation, "build_pca_model",
                                 lambda: variance_compare(y, 6, SeedSpec(1))),
            "cli.main": (cli, "assemble_scenario", lambda: cli.main(generate)),
        }[entry]
        seen, real = [], getattr(module, inner)

        def watched(*args, **kwargs):
            seen.append(get())
            if fails:
                raise RuntimeError("inner call failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, inner, watched)
        if entry == "cli.main":  # main reports the error and exits 1
            assert call() == int(fails)
        elif fails:
            with pytest.raises(RuntimeError, match="inner call failed"):
                call()
        else:
            call()
        assert seen and set(seen) == {1}
        assert get() == threads

    def test_overlapping_sweeps_restore_the_count_once(self, monkeypatch, threads):
        # sweep B enters its pool after sweep A and A leaves first: B must
        # keep running at one thread, and the count from before A comes back
        get, _ = _BLAS_THREADS
        a_in_pool, b_in_pool, a_done = threading.Event(), threading.Event(), threading.Event()
        seen, waited = [], []
        real = evaluation._run_trial
        other = dataclasses.replace(SMALL, seed=SeedSpec(6))

        def trial(cfg, *rest):
            if cfg is other:
                b_in_pool.set()
                waited.append(a_done.wait(30))
            else:
                a_in_pool.set()
                waited.append(b_in_pool.wait(30))
            seen.append(get())
            return real(cfg, *rest)

        def sweep_a():
            sweep_rank(SMALL, ["pca"], [6], trials=1, workers=2)
            a_done.set()

        monkeypatch.setattr(evaluation, "_run_trial", trial)
        runners = [threading.Thread(target=sweep_a),
                   threading.Thread(target=sweep_rank, args=(other, ["pca"], [6], 1),
                                    kwargs={"workers": 2})]
        runners[0].start()
        assert a_in_pool.wait(30)
        runners[1].start()
        for runner in runners:
            runner.join(60)
            assert not runner.is_alive()
        assert waited == [True, True]
        assert seen == [1, 1]
        assert get() == threads


def test_without_openblas_every_entry_point_still_runs(monkeypatch, tmp_path):
    # a numpy with no numpy.libs beside it (an OS or conda build) exposes no
    # thread count to hold, so holding it is a no-op
    def run():
        rows, curves = sweep_rank(SMALL, ["pca", "sspbad"], [6], trials=2)
        return rows, curves, detect_method("rbad", y, [4, 6], SeedSpec(2))

    y = assemble_scenario(SMALL).y
    want = run()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    linalg._openblas_threads.cache_clear()
    try:
        assert linalg._openblas_threads() is None
        got = run()
    finally:
        monkeypatch.undo()
        linalg._openblas_threads.cache_clear()
    assert got[:2] == want[:2]
    for report, expected in zip(got[2], want[2], strict=True):
        np.testing.assert_array_equal(report.spe, expected.spe)
        np.testing.assert_array_equal(report.flags, expected.flags)


class TestBenchmarkReferenceRows:
    """Streams 0 and 1 of each benchmark workload score within the
    benchmark's tolerance of its recorded rows (flag count within
    2 + 0.5%, detection rate within 0.03), so a numerical change that
    flips flags fails here before it fails the benchmark."""

    @pytest.mark.parametrize("master_seed", [7, 1704])
    @pytest.mark.parametrize("workload", sorted(BENCH_SWEEPS))
    def test_rows_match_reference(self, workload, master_seed):
        reference = json.loads(BENCH_REFERENCE.read_text())[workload][str(master_seed)]
        (m, n, t), methods = BENCH_SWEEPS[workload]
        for stream in (0, 1):
            cfg = ScenarioConfig(m=m, n=n, t=t, anomaly_count=default_anomaly_count(m, t),
                                 seed=SeedSpec(master_seed, stream))
            rows, _ = sweep_rank(cfg, methods, BENCH_RANKS, trials=1)
            for row, (rate, flags) in zip(rows, reference[str(stream)], strict=True):
                where = (stream, row.method, row.rank)
                assert abs(row.flag_count - flags) <= 2 + 0.005 * flags, where
                assert abs(row.detection_rate - rate) <= 0.03, where

    @pytest.mark.parametrize("master_seed", [7, 1704])
    def test_scenario_io_rows_match_reference(self, tmp_path, master_seed):
        # as the benchmark runs the op: generate, then detect --input with
        # each method, through the command line and its CSV files
        reference = json.loads(BENCH_REFERENCE.read_text())["scenario_io"][str(master_seed)]
        (m, n, t), rank, methods = BENCH_SCENARIO_IO
        for stream in (0, 1):
            seed = ["--master-seed", str(master_seed), "--stream-index", str(stream)]
            scenario = tmp_path / f"scenario-{stream}"
            assert cli.main(["generate", "--m", str(m), "--n", str(n), "--t", str(t), *seed,
                             "--output", str(scenario)]) == 0
            for method, (rate, flags) in zip(methods, reference[str(stream)], strict=True):
                out = tmp_path / f"detect-{stream}-{method}"
                assert cli.main(["detect", "--input", str(scenario), "--method", method,
                                 "--rank", str(rank), *seed, "--output", str(out)]) == 0
                lines = (out / "report.csv").read_text().splitlines()[1:]
                counts = collections.Counter(tuple(line.split(",")[3:]) for line in lines)
                tp, fp, fn = counts["1", "1"], counts["1", "0"], counts["0", "1"]
                got_flags = tp + fp
                got_rate = tp / (tp + fn + fp) if tp + fn + fp else 1.0
                where = (stream, method)
                assert abs(got_flags - flags) <= 2 + 0.005 * flags, where
                assert abs(got_rate - rate) <= 0.03, where


def test_reference_recorder_runs(tmp_path):
    """bench/record_reference.py's library calls run: its sweep and
    scenario rows, on one stream at m = 72 (every benchmark rank fits),
    in a subprocess that writes no file."""
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import record_reference, workloads
        la = workloads.import_package()
        size = (72, 144, 288)
        sweep = workloads.Sweep("check", size, workloads.METHODS, trials=1, workers=1, pool=1)
        io = workloads.ScenarioIO("check", size, rank=24, pool=1)
        print(json.dumps([record_reference.sweep_rows(la, sweep, 7),
                          record_reference.scenario_rows(la, io, 7)]))
    """)
    done = subprocess.run([sys.executable, "-B", "-c", script, str(BENCH)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    sweep, scenario = json.loads(done.stdout)
    methods = BENCH_SCENARIO_IO[2]
    for rows, count in ((sweep, len(methods) * len(BENCH_RANKS)), (scenario, len(methods))):
        assert list(rows) == ["0"] and len(rows["0"]) == count
        for rate, flags in rows["0"]:
            assert 0.0 <= rate <= 1.0 and type(flags) is int and 0 <= flags <= 288
    assert list(tmp_path.iterdir()) == []
