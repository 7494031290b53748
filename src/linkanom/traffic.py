"""Synthetic link-traffic scenarios.

Link traffic is modeled as Y = R(X + A) + V: a binary routing matrix R
maps low-rank origin-destination flows X (plus a sparse matrix A of
unit-magnitude anomalies) onto links, and V adds i.i.d. Gaussian
measurement noise. Ground-truth labels mark the snapshots (columns)
touched by at least one anomaly.

A scenario is assembled from its draws, X = U W^T and A's entries, as
Y = (R U) W^T + R A + V, so no n x t matrix is formed. This differs from
R (X + A) + V by roundoff only; R, X, A, V and the labels are the bits
gen_bernoulli, gen_flows, gen_anomalies and gen_gaussian draw.
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
        if not 0.0 <= self.noise_variance < np.inf:
            raise ValueError(
                f"noise_variance must be nonnegative and finite, got {self.noise_variance}"
            )


@dataclass(frozen=True)
class Scenario:
    """Generated matrices plus per-snapshot ground-truth labels (True
    where a column of a has a nonzero).

    The flows and anomalies are kept as their draws: x = u @ w.T, and a
    has anomaly_values at the flat (row-major) anomaly_positions of the
    n x t grid. x and a are formed only when read, so a scenario holds
    no n x t array.
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

    @property
    def x(self) -> np.ndarray:
        return self.u @ self.w.T

    @property
    def a(self) -> np.ndarray:
        return _dense_anomalies(self.config.n, self.config.t, self.anomaly_positions,
                                self.anomaly_values)


def _flow_factors(n: int, t: int, r_true: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    if not 0 <= r_true <= min(n, t):
        raise ValueError(f"r_true must be in [0, min(n, t)] = [0, {min(n, t)}], got {r_true}")
    rng = seed.generator()
    u = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, r_true))
    w = rng.normal(0.0, 1.0 / np.sqrt(t), size=(t, r_true))
    return u, w


def gen_flows(n: int, t: int, r_true: int, seed: SeedSpec) -> np.ndarray:
    """Rank-r_true flow matrix X = U W^T with U (n x r_true) drawn
    N(0, 1/n) and W (t x r_true) drawn N(0, 1/t)."""
    u, w = _flow_factors(n, t, r_true, seed)
    return u @ w.T


def anomaly_labels(a: np.ndarray) -> np.ndarray:
    """True for every column holding at least one nonzero entry."""
    return np.any(np.asarray(a) != 0.0, axis=0)


def _anomaly_entries(n: int, t: int, s: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    if not 0 <= s <= n * t:
        raise ValueError(f"anomaly count must be in [0, n*t] = [0, {n * t}], got {s}")
    rng = seed.generator()
    positions = rng.choice(n * t, size=s, replace=False)
    return positions, rng.integers(0, 2, size=s) * 2.0 - 1.0


def _dense_anomalies(n: int, t: int, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    a = np.zeros(n * t)
    a[positions] = values
    return a.reshape(n, t)


def _entry_labels(t: int, positions: np.ndarray) -> np.ndarray:
    labels = np.zeros(t, dtype=bool)
    labels[positions % t] = True
    return labels


def gen_anomalies(n: int, t: int, s: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sparse n x t anomaly matrix with exactly s nonzeros at uniform
    positions (without replacement), values equiprobably +/-1; returns
    (a, labels)."""
    positions, values = _anomaly_entries(n, t, s, seed)
    return _dense_anomalies(n, t, positions, values), _entry_labels(t, positions)


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
    u, w = _flow_factors(cfg.n, cfg.t, cfg.r_true, cfg.seed.split(_FLOWS))
    routing = gen_bernoulli(cfg.m, cfg.n, cfg.routing_density, cfg.seed.split(_ROUTING))
    positions, values = _anomaly_entries(cfg.n, cfg.t, cfg.anomaly_count,
                                         cfg.seed.split(_ANOMALIES))
    y = (routing @ u) @ w.T
    _add_routed_anomalies(y, routing, positions, values)
    if cfg.noise_variance > 0.0:
        v = gen_gaussian(cfg.m, cfg.t, cfg.seed.split(_NOISE), np.sqrt(cfg.noise_variance))
    else:
        v = np.zeros((cfg.m, cfg.t))
    y += v
    return Scenario(y=y, routing=routing, u=u, w=w, anomaly_positions=positions,
                    anomaly_values=values, v=v, labels=_entry_labels(cfg.t, positions), config=cfg)
