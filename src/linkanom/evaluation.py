"""Ground-truth scoring and the two experiment harnesses: side-by-side
captured-variance tables and multi-trial detection-rate sweeps over the
normal-subspace rank."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .detectors import (
    DEFAULT_BETA,
    DEFAULT_POWER_EXPONENT,
    METHOD_PCA,
    METHOD_RBAD,
    METHOD_SSPBAD,
    DetectionReport,
    _check_beta,
    _check_method,
    _check_rank,
    _Traffic,
    build_pca_model,
    build_rbad_model,
    build_sspbad_candidates,
    detect_method,
)
from .ensembles import SeedSpec, _check_bool, _check_int, _check_items, _check_seed
from .linalg import _ONE_BLAS_THREAD, _as_labels
from .traffic import ScenarioConfig, assemble_scenario

__all__ = [
    "ConfusionCounts",
    "MetricRow",
    "SweepCurve",
    "VarianceTable",
    "score",
    "detection_rate",
    "true_positive_rate",
    "false_alarm_rate",
    "variance_compare",
    "sweep_rank",
]

# substream labels for detector randomness inside one trial (scenario
# components use labels 0-3 of the same trial stream); pca draws nothing
_RBAD_STREAM, _SSPBAD_STREAM = 4, 5
_DETECTOR_STREAMS = {METHOD_RBAD: _RBAD_STREAM, METHOD_SSPBAD: _SSPBAD_STREAM}


@dataclass(frozen=True)
class ConfusionCounts:
    """Snapshot-level confusion tally; tp+fp+fn+tn equals the snapshot count."""

    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class MetricRow:
    """One scored detection run: (method, rank, trial) plus its rates."""

    method: str
    rank: int
    trial: int
    detection_rate: float
    tpr: float
    far: float
    flag_count: int


@dataclass(frozen=True)
class SweepCurve:
    """Mean and standard deviation of the detection rate per rank for one
    method, aggregated over trials."""

    method: str
    ranks: tuple[int, ...]
    mean_detection_rate: tuple[float, ...]
    std_detection_rate: tuple[float, ...]


@dataclass(frozen=True)
class VarianceTable:
    """Descending captured-variance sequences side by side, one column per
    method, plus each method's maximum relative deviation from the pca
    eigenvalues over the top `rank` indices."""

    methods: tuple[str, ...]
    variances: np.ndarray  # m rows, one column per method
    rank: int
    top_rank_deviation: dict[str, float]


def score(report: DetectionReport, labels: Sequence[bool]) -> ConfusionCounts:
    """Confusion counts of report flags against ground-truth labels: under
    the label rule of `linalg._as_labels`, one label per flag."""
    labels, flags = _as_labels(labels), report.flags
    if labels.shape != flags.shape:
        raise ValueError(f"labels must be one per flag: got {labels.size} for {flags.size} flags")
    tn, fn, fp, tp = np.bincount(2 * flags + labels, minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def detection_rate(c: ConfusionCounts) -> float:
    """Combined detection/false-alarm score tp / (tp + fn + fp): rises with
    detection probability, falls with false alarms, and equals 1 exactly
    when flags and labels agree on every flagged-or-anomalous snapshot.

    Defined as 1 when there is nothing to detect and nothing was flagged.
    """
    denominator = c.tp + c.fn + c.fp
    if denominator == 0:
        return 1.0
    return c.tp / denominator


def true_positive_rate(c: ConfusionCounts) -> float:
    """tp / (tp + fn); NaN marks the undefined no-anomaly case."""
    positives = c.tp + c.fn
    return c.tp / positives if positives > 0 else math.nan


def false_alarm_rate(c: ConfusionCounts) -> float:
    """fp / (fp + tn); NaN marks the undefined all-anomaly case."""
    negatives = c.fp + c.tn
    return c.fp / negatives if negatives > 0 else math.nan


def variance_compare(
    y: np.ndarray,
    rank: int,
    seed: SeedSpec,
    power_exponent: int = DEFAULT_POWER_EXPONENT,
) -> VarianceTable:
    """Tabulate the captured-variance sequences of every method on the same
    traffic, all in centered mode so the randomized bases are directly
    comparable with the pca eigenvalues. Every method is fitted from one
    reduction of the traffic, with numpy's OpenBLAS held at one thread.

    Raises ValueError when one of the top `rank` pca eigenvalues is
    numerically zero (at most 1e-12 * lambda_1), which leaves the relative
    deviations undefined: the traffic has fewer than `rank` directions of
    variance.
    """
    seed = _check_seed(seed)
    traffic = _Traffic(y)
    with _ONE_BLAS_THREAD:
        pca = build_pca_model(traffic, rank)
        reference = pca.variances[:rank]
        zero = np.flatnonzero(reference <= 1e-12 * reference[0])
        if zero.size:
            raise ValueError(
                f"rank {rank} exceeds the traffic's directions of variance: pca eigenvalue "
                f"{zero[0] + 1} of {rank} (counting from 1) is {reference[zero[0]]:.3g}, "
                "numerically zero"
            )
        rbad = build_rbad_model(traffic, rank, seed.split(_RBAD_STREAM), power_exponent,
                                center=True)
        candidates = build_sspbad_candidates(traffic, rank, seed.split(_SSPBAD_STREAM),
                                             center=True)
        columns: dict[str, np.ndarray] = {METHOD_PCA: pca.variances, METHOD_RBAD: rbad.variances}
        for model in candidates:
            columns[f"{METHOD_SSPBAD}-{model.ensemble.value}"] = model.variances
    deviations = {
        name: float(np.max(np.abs(values[:rank] - reference) / reference))
        for name, values in columns.items()
        if name != METHOD_PCA
    }
    return VarianceTable(
        methods=tuple(columns),
        variances=np.column_stack(list(columns.values())),
        rank=rank,
        top_rank_deviation=deviations,
    )


def _run_trial(
    cfg: ScenarioConfig,
    trial: int,
    methods: Sequence[str],
    rank_grid: Sequence[int],
    beta: float,
    power_exponent: int,
    center: bool,
) -> list[MetricRow]:
    trial_seed = replace(cfg.seed, stream_index=cfg.seed.stream_index + trial)
    scenario = assemble_scenario(replace(cfg, seed=trial_seed))
    # the working set: Y, validated once and reduced on the first fit for
    # every method, and the labels; routing, flows, anomalies and noise go
    traffic, labels = _Traffic(scenario.y), scenario.labels
    del scenario
    rows = []
    for method in methods:
        seed = trial_seed.split(_DETECTOR_STREAMS.get(method, _RBAD_STREAM))
        reports = detect_method(method, traffic, rank_grid, seed, beta=beta,
                                power_exponent=power_exponent, center=center)
        for rank, report in zip(rank_grid, reports):
            counts = score(report, labels)
            rows.append(
                MetricRow(
                    method=method,
                    rank=rank,
                    trial=trial,
                    detection_rate=detection_rate(counts),
                    tpr=true_positive_rate(counts),
                    far=false_alarm_rate(counts),
                    flag_count=report.flag_count,
                )
            )
    return rows


def sweep_rank(
    cfg: ScenarioConfig,
    methods: Sequence[str],
    rank_grid: Sequence[int],
    trials: int,
    beta: float = DEFAULT_BETA,
    power_exponent: int = DEFAULT_POWER_EXPONENT,
    center: bool = False,
    workers: int = 1,
) -> tuple[list[MetricRow], list[SweepCurve]]:
    """Detection rate versus normal-subspace rank, aggregated over
    independently seeded trials.

    Trial i draws its scenario from stream cfg.seed.stream_index + i, so
    the sweep is fully determined by (cfg, methods, rank_grid, trials, beta,
    power_exponent, center). The trials run on a pool of at most
    min(workers, trials) threads, and no emitted number depends on
    `workers`, because rows are reduced in trial order. Rows come one
    (method, rank) point at a time, methods and ranks in the order given
    and trials ascending within a point; the curves follow the same order.
    The caller's numpy error state and other context-local settings do not
    carry into the trial threads.

    While the pool runs, numpy's bundled OpenBLAS is held at one thread,
    so no trial thread starts BLAS threads of its own; the previous count
    is restored afterwards, also when a trial raises. Where numpy.libs
    holds no OpenBLAS exposing its thread count this is a no-op.
    """
    beta = _check_beta(beta)
    methods = _check_items("methods", methods)
    for i, method in enumerate(methods):
        _check_method(method)
        if method in methods[:i]:
            raise ValueError(f"methods repeat method {method!r}")
    rank_grid = [_check_rank(rank, cfg.m, "rank grid value")
                 for rank in _check_items("rank_grid", rank_grid)]
    for i, rank in enumerate(rank_grid):
        if rank in rank_grid[:i]:
            raise ValueError(f"rank grid repeats rank {rank}")
    power_exponent = _check_int("power_exponent", power_exponent, 0)
    trials = _check_int("trials", trials, 1)
    workers = _check_int("workers", workers, 1)
    center = _check_bool("center", center)

    def run(trial: int) -> list[MetricRow]:
        return _run_trial(cfg, trial, methods, rank_grid, beta, power_exponent, center)

    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers) as pool:
        per_trial = list(pool.map(run, range(trials)))

    # each trial returns its rows point by point, methods and ranks in the
    # order given, so the transposed trial lists hold one column per point
    columns = list(zip(*per_trial))
    rows = [row for column in columns for row in column]
    rates = [[row.detection_rate for row in column] for column in columns]
    means = [float(np.mean(r)) for r in rates]
    stds = [float(np.std(r, ddof=1)) if trials > 1 else 0.0 for r in rates]
    k = len(rank_grid)
    curves = [
        SweepCurve(method=method, ranks=tuple(rank_grid),
                   mean_detection_rate=tuple(means[i * k:(i + 1) * k]),
                   std_detection_rate=tuple(stds[i * k:(i + 1) * k]))
        for i, method in enumerate(methods)
    ]
    return rows, curves
