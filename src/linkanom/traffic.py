"""Synthetic link-traffic scenarios.

Link traffic is modeled as Y = R(X + A) + V: a binary routing matrix R
maps low-rank origin-destination flows X (plus a sparse matrix A of
unit-magnitude anomalies) onto links, and V adds i.i.d. Gaussian
measurement noise. Ground-truth labels mark the snapshots (columns)
touched by at least one anomaly.

X = U W^T has rank r_true, with U (n x r_true) drawn N(0, 1/n) and W
(t x r_true) drawn N(0, 1/t). A has exactly anomaly_count nonzeros at
uniform positions (without replacement), each +1 or -1 with equal
probability. R (gen_bernoulli), U and W, A's entries and V (gen_gaussian)
each draw from their own substream of the seed.

A scenario is assembled from these draws as Y = (R U) W^T + R A + V, so
no n x t matrix is formed. This differs from R (X + A) + V by roundoff
only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .ensembles import SeedSpec, _check_int, _check_real, _check_seed, gen_bernoulli, gen_gaussian

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "default_anomaly_count",
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
        keep = functools.partial(object.__setattr__, self)  # the checked values, as int and float
        for name in ("m", "n", "t"):
            keep(name, _check_int(name, getattr(self, name), 1))
        keep("r_true", _check_int("r_true", self.r_true, 0, min(self.n, self.t)))
        keep("routing_density", _check_real("routing_density", self.routing_density, 0, 1))
        keep("anomaly_count", _check_int("anomaly_count", self.anomaly_count, 0, self.n * self.t))
        keep("noise_variance", _check_real("noise_variance", self.noise_variance, 0))
        _check_seed(self.seed)


@dataclass(frozen=True)
class Scenario:
    """Generated matrices plus per-snapshot ground-truth labels (True
    where a column of A has a nonzero).

    The flows and anomalies are kept as their draws, so a scenario holds
    no n x t array: X = u @ w.T, and A has anomaly_values at the flat
    (row-major) anomaly_positions of the n x t grid.
    """

    y: np.ndarray
    routing: np.ndarray
    u: np.ndarray
    w: np.ndarray
    anomaly_positions: np.ndarray
    anomaly_values: np.ndarray
    v: np.ndarray
    labels: np.ndarray
    config: ScenarioConfig


def _entry_labels(t: int, positions: np.ndarray) -> np.ndarray:
    labels = np.zeros(t, dtype=bool)
    labels[positions % t] = True
    return labels


def _add_routed_anomalies(y: np.ndarray, routing: np.ndarray, positions: np.ndarray,
                          values: np.ndarray) -> None:
    """y += routing @ a, from a's entries: each (link, snapshot) cell an
    anomaly reaches gets the sum of its +/-1 routing entries (an exact
    integer) in one addition."""
    t = y.shape[1]
    flows, snapshots = np.divmod(positions, t)
    links, entry = np.nonzero((routing != 0.0)[:, flows])
    cells, cell_of = np.unique(links * t + snapshots[entry], return_inverse=True)
    y.reshape(-1)[cells] += np.bincount(cell_of, weights=values[entry])


def assemble_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw all scenario components on disjoint substreams of cfg.seed and
    assemble y = (routing @ u) @ w.T + routing @ a + v from the draws.

    routing @ a is added from a's entries (see _add_routed_anomalies), then
    the noise, in place, so no n x t array is formed. The bits of y are
    those of that sum taken left to right with routing @ a formed densely;
    they differ from routing @ (x + a) + v by roundoff.
    """
    n, t = cfg.n, cfg.t
    rng = cfg.seed.split(_FLOWS).generator()
    u = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, cfg.r_true))
    w = rng.normal(0.0, 1.0 / np.sqrt(t), size=(t, cfg.r_true))
    routing = gen_bernoulli(cfg.m, n, cfg.routing_density, cfg.seed.split(_ROUTING))
    rng = cfg.seed.split(_ANOMALIES).generator()
    positions = rng.choice(n * t, size=cfg.anomaly_count, replace=False)
    values = rng.integers(0, 2, size=cfg.anomaly_count) * 2.0 - 1.0
    y = (routing @ u) @ w.T
    _add_routed_anomalies(y, routing, positions, values)
    v = gen_gaussian(cfg.m, t, cfg.seed.split(_NOISE), np.sqrt(cfg.noise_variance))
    y += v
    return Scenario(y=y, routing=routing, u=u, w=w, anomaly_positions=positions,
                    anomaly_values=values, v=v, labels=_entry_labels(t, positions), config=cfg)
