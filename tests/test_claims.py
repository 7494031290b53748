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
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from linkanom.ensembles import SeedSpec
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


@functools.cache
def detection_rates(noise_variance: float, master_seed: int) -> dict[str, np.ndarray]:
    """Each method's trials x ranks detection rates from one reference sweep."""
    cfg = ScenarioConfig(noise_variance=noise_variance, seed=SeedSpec(master_seed))
    rows, _ = sweep_rank(cfg, METHODS, GRID, TRIALS, workers=2)
    rates = {method: np.zeros((TRIALS, len(GRID))) for method in METHODS}
    for row in rows:
        rates[row.method][row.trial, GRID.index(row.rank)] = row.detection_rate
    return rates


def paired_t(differences: np.ndarray) -> float:
    return differences.mean() / (differences.std(ddof=1) / math.sqrt(differences.size))


def test_critical_value_is_the_stated_one():
    assert round(T_CRITICAL, 2) == 3.66


@pytest.mark.parametrize("noise_variance", NOISE_VARIANCES)
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_randomized_methods_beat_pca_at_each_noise_level(noise_variance, master_seed):
    rates = detection_rates(noise_variance, master_seed)
    for method in ("rbad", "sspbad"):
        t = paired_t((rates[method] - rates["pca"]).mean(axis=1))
        assert t > T_CRITICAL, (method, noise_variance, master_seed, t)


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


def test_readme_table_is_what_the_sweeps_give():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## The paper's claims, measured\n", 1)[1].split("\n## ", 1)[0]
    assert claims_table() in section, claims_table()
