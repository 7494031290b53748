"""The paper's claim of robustness to noise as a Tier-1 property, and the
README table "The paper's claims, measured" that reports it.

The abstract claims that the randomized detectors improve on PCA "in
terms of robustness to noise and detection rate". That is a claim for
each method at each noise level, so the statistic is one per method and
noise level too. For sigma^2 in {0.01, 0.1, 0.3} and master seeds 7 and
1704, a 20-trial reference sweep runs pca, rbad and sspbad over ranks
8..64. Each trial gives each method's detection rate averaged over the
grid, and rbad and sspbad are compared with pca on the same trial's
scenario: a paired difference. Its one-sided paired t over the 20 trials
must exceed the Student-t quantile with 19 degrees of freedom at
0.01 / 12, which holds the family-wise level at 0.01 over the 12
(method, sigma^2, seed) cells by Bonferroni. That quantile is 3.66.

The paired t at a single rank is noisier: at sigma^2 = 0.3 it falls
below the critical value at some ranks. So it goes in the README table
and is not asserted.

The false-alarm level that beta promises is the other half. On clean
traffic (anomaly_count = 0, the default sigma^2 = 0.1), a 20-trial sweep
at each master seed gives each method's false-alarm rate averaged over
the grid, one value per trial. The bound is a rule, not a fit to what
passes: beta for pca and rbad, whose Q_beta is the (1 - beta) quantile
of the SPE; K * beta for sspbad, which flags a snapshot only where one of
its K candidates does, so the union bound caps it at K * beta. A
detector whose rate sits exactly at its bound must pass, so the test
fails only on evidence that the rate exceeds it: a one-sided t of the
per-trial rates against the bound, above the Student-t quantile with 19
degrees of freedom at 0.01 / 6 (3.35), a family-wise level of 0.01 over
the 6 (method, seed) cells. A single rank can read above beta (rbad at
master seed 1704, rank 48), so the test is on the grid mean, and the
per-rank rates go in the README table.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from linkanom.detectors import DEFAULT_BETA
from linkanom.ensembles import EnsembleKind, SeedSpec
from linkanom.evaluation import sweep_rank
from linkanom.traffic import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
NOISE_VARIANCES = (0.01, 0.1, 0.3)
MASTER_SEEDS = (7, 1704)
METHODS = ("pca", "rbad", "sspbad")
GRID = (8, 16, 24, 32, 48, 64)
TABLE_RANK = 24
TRIALS = 20
FAMILY_ALPHA = 0.01
CELLS = (len(METHODS) - 1) * len(NOISE_VARIANCES) * len(MASTER_SEEDS)
T_CRITICAL = stats.t.ppf(1.0 - FAMILY_ALPHA / CELLS, TRIALS - 1)
CLEAN_CELLS = len(METHODS) * len(MASTER_SEEDS)
T_CRITICAL_CLEAN = stats.t.ppf(1.0 - FAMILY_ALPHA / CLEAN_CELLS, TRIALS - 1)


def sweep_rates(cfg: ScenarioConfig, field: str) -> dict[str, np.ndarray]:
    """Each method's trials x ranks values of a row field from one sweep."""
    rows, _ = sweep_rank(cfg, METHODS, GRID, TRIALS, workers=2)
    rates = {method: np.zeros((TRIALS, len(GRID))) for method in METHODS}
    for row in rows:
        rates[row.method][row.trial, GRID.index(row.rank)] = getattr(row, field)
    return rates


@functools.cache
def detection_rates(noise_variance: float, master_seed: int) -> dict[str, np.ndarray]:
    """Each method's trials x ranks detection rates from one reference sweep."""
    cfg = ScenarioConfig(noise_variance=noise_variance, seed=SeedSpec(master_seed))
    return sweep_rates(cfg, "detection_rate")


@functools.cache
def false_alarm_rates(master_seed: int) -> dict[str, np.ndarray]:
    """Each method's trials x ranks false-alarm rates on clean traffic."""
    return sweep_rates(ScenarioConfig(anomaly_count=0, seed=SeedSpec(master_seed)), "far")


def false_alarm_bound(method: str) -> float:
    """beta, or K * beta for sspbad's K candidates (the union bound)."""
    return DEFAULT_BETA * (len(EnsembleKind) if method == "sspbad" else 1)


def t_above_bound(method: str, master_seed: int) -> float:
    """One-sided t of the grid-averaged per-trial false-alarm rate against
    the method's bound: the paired t of the differences from it."""
    per_trial = false_alarm_rates(master_seed)[method].mean(axis=1)
    return paired_t(per_trial - false_alarm_bound(method))


def paired_t(differences: np.ndarray) -> float:
    return differences.mean() / (differences.std(ddof=1) / math.sqrt(differences.size))


def test_critical_value_is_the_stated_one():
    assert round(T_CRITICAL, 2) == 3.66
    assert round(T_CRITICAL_CLEAN, 2) == 3.35


@pytest.mark.parametrize("noise_variance", NOISE_VARIANCES)
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_randomized_methods_beat_pca_at_each_noise_level(noise_variance, master_seed):
    rates = detection_rates(noise_variance, master_seed)
    for method in ("rbad", "sspbad"):
        t = paired_t((rates[method] - rates["pca"]).mean(axis=1))
        assert t > T_CRITICAL, (method, noise_variance, master_seed, t)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_false_alarm_rate_on_clean_traffic_within_its_bound(method, master_seed):
    t = t_above_bound(method, master_seed)
    assert t < T_CRITICAL_CLEAN, (method, master_seed, t)


def claims_table() -> str:
    """The README table, from the same sweeps as the test above."""
    lines = [
        f"| σ² | method | rate at rank {TABLE_RANK} | paired t at rank {TABLE_RANK} "
        "| lowest paired t of a rank | paired t, grid mean |",
        "|---|---|---|---|---|---|",
    ]
    at_rank = GRID.index(TABLE_RANK)
    for noise_variance in NOISE_VARIANCES:
        for method in METHODS:
            rate, t_rank, t_lowest, t_grid = [], [], [], []
            for master_seed in MASTER_SEEDS:
                rates = detection_rates(noise_variance, master_seed)
                rate.append(f"{rates[method][:, at_rank].mean():.3f}")
                if method == "pca":
                    continue
                difference = rates[method] - rates["pca"]
                per_rank = [paired_t(difference[:, i]) for i in range(len(GRID))]
                lowest = int(np.argmin(per_rank))
                t_rank.append(f"{per_rank[at_rank]:.2f}")
                t_lowest.append(f"{per_rank[lowest]:.2f} ({GRID[lowest]})")
                t_grid.append(f"{paired_t(difference.mean(axis=1)):.2f}")
            cells = [" / ".join(cell) or "–" for cell in (rate, t_rank, t_lowest, t_grid)]
            lines.append(f"| {noise_variance} | {method} | {' | '.join(cells)} |")
    return "\n".join(lines) + "\n"


def false_alarm_table() -> str:
    """The README's clean-traffic table, from the same sweeps as its test."""
    lines = [
        f"| method | bound | rate at rank {TABLE_RANK} | highest rate of a rank "
        "| rate, grid mean | t above the bound |",
        "|---|---|---|---|---|---|",
    ]
    at_rank = GRID.index(TABLE_RANK)
    for method in METHODS:
        rate, highest, grid, t = [], [], [], []
        for master_seed in MASTER_SEEDS:
            per_rank = false_alarm_rates(master_seed)[method].mean(axis=0)
            top = int(np.argmax(per_rank))
            rate.append(f"{per_rank[at_rank]:.4f}")
            highest.append(f"{per_rank[top]:.4f} ({GRID[top]})")
            grid.append(f"{per_rank.mean():.4f}")
            t.append(f"{t_above_bound(method, master_seed):.2f}")
        cells = [" / ".join(cell) for cell in (rate, highest, grid, t)]
        lines.append(f"| {method} | {false_alarm_bound(method):g} | {' | '.join(cells)} |")
    return "\n".join(lines) + "\n"


def test_readme_table_is_what_the_sweeps_give():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## The paper's claims, measured\n", 1)[1].split("\n## ", 1)[0]
    assert claims_table() in section, claims_table()
    assert false_alarm_table() in section, false_alarm_table()
