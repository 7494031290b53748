"""Synthetic link-traffic scenarios.

Link traffic is modeled as Y = R(X + A) + V: a binary routing matrix R
maps low-rank origin-destination flows X (plus a sparse matrix A of
unit-magnitude anomalies) onto links, and V adds i.i.d. Gaussian
measurement noise. Ground-truth labels mark the snapshots (columns)
touched by at least one anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import SeedSpec, gen_bernoulli, gen_gaussian

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "default_anomaly_count",
    "gen_flows",
    "gen_anomalies",
    "anomaly_labels",
    "assemble_scenario",
]

# substream labels for the independent scenario components
_FLOWS, _ROUTING, _ANOMALIES, _NOISE = 0, 1, 2, 3


def default_anomaly_count(m: int, t: int) -> int:
    """Nonzero count at anomaly density 0.001 of the m*t link-traffic grid,
    rounded to the nearest integer (120x640 -> 77)."""
    return round(0.001 * m * t)


@dataclass(frozen=True)
class ScenarioConfig:
    """Generation parameters; defaults are the reference simulation setup."""

    m: int = 120
    n: int = 240
    t: int = 640
    r_true: int = 24
    routing_density: float = 0.05
    anomaly_count: int = 77
    noise_variance: float = 0.1
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.t) < 1:
            raise ValueError(f"dimensions must be positive, got m={self.m} n={self.n} t={self.t}")
        if not 0 <= self.r_true <= min(self.n, self.t):
            raise ValueError(f"r_true must be in [0, min(n, t)], got {self.r_true}")
        if not 0.0 <= self.routing_density <= 1.0:
            raise ValueError(f"routing_density must be in [0, 1], got {self.routing_density}")
        if not 0 <= self.anomaly_count <= self.n * self.t:
            raise ValueError(f"anomaly_count must be in [0, n*t], got {self.anomaly_count}")
        if self.noise_variance < 0.0:
            raise ValueError(f"noise_variance must be nonnegative, got {self.noise_variance}")


@dataclass(frozen=True)
class Scenario:
    """Generated matrices (y = routing @ (x + a) + v) plus per-snapshot
    ground-truth labels (True where column of a has a nonzero)."""

    y: np.ndarray
    routing: np.ndarray
    x: np.ndarray
    a: np.ndarray
    v: np.ndarray
    labels: np.ndarray
    config: ScenarioConfig


def gen_flows(n: int, t: int, r_true: int, seed: SeedSpec) -> np.ndarray:
    """Rank-r_true flow matrix X = U V^T with U (n x r_true) drawn
    N(0, 1/n) and V (t x r_true) drawn N(0, 1/t)."""
    if not 0 <= r_true <= min(n, t):
        raise ValueError(f"r_true must be in [0, min(n, t)] = [0, {min(n, t)}], got {r_true}")
    if r_true == 0:
        return np.zeros((n, t))
    rng = seed.generator()
    u = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, r_true))
    v = rng.normal(0.0, 1.0 / np.sqrt(t), size=(t, r_true))
    return u @ v.T


def anomaly_labels(a: np.ndarray) -> np.ndarray:
    """True for every column holding at least one nonzero entry."""
    return np.any(np.asarray(a) != 0.0, axis=0)


def gen_anomalies(n: int, t: int, s: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sparse n x t anomaly matrix with exactly s nonzeros at uniform
    positions (without replacement), values equiprobably +/-1; returns
    (a, labels)."""
    if not 0 <= s <= n * t:
        raise ValueError(f"anomaly count must be in [0, n*t] = [0, {n * t}], got {s}")
    a = np.zeros(n * t)
    if s > 0:
        rng = seed.generator()
        positions = rng.choice(n * t, size=s, replace=False)
        a[positions] = rng.integers(0, 2, size=s) * 2.0 - 1.0
    a = a.reshape(n, t)
    return a, anomaly_labels(a)


def assemble_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw all scenario components on disjoint substreams of cfg.seed and
    assemble y = routing @ (x + a) + v.

    The noise is drawn after the product and added in place, so it is not
    alive beside x + a; its substream makes the order irrelevant to the bits.
    """
    x = gen_flows(cfg.n, cfg.t, cfg.r_true, cfg.seed.split(_FLOWS))
    routing = gen_bernoulli(cfg.m, cfg.n, cfg.routing_density, cfg.seed.split(_ROUTING))
    a, labels = gen_anomalies(cfg.n, cfg.t, cfg.anomaly_count, cfg.seed.split(_ANOMALIES))
    y = routing @ (x + a)
    if cfg.noise_variance > 0.0:
        v = gen_gaussian(cfg.m, cfg.t, cfg.seed.split(_NOISE), np.sqrt(cfg.noise_variance))
    else:
        v = np.zeros((cfg.m, cfg.t))
    y += v
    return Scenario(y=y, routing=routing, x=x, a=a, v=v, labels=labels, config=cfg)
