"""Seeded random-matrix generation: the Gaussian test matrices used by the
randomized-basis detector and the four switched ensembles.

Streams are counter-based and splittable: a (master_seed, stream_index)
pair keys a Philox generator through numpy's SeedSequence spawn tree, so
parallel trials and the independent components inside one trial never
share a stream.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnsembleKind",
    "SeedSpec",
    "gen_gaussian",
    "gen_bernoulli",
    "ensemble_matrix",
]


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """The one rule for integer parameters: `value` as a Python int, or
    ValueError naming `name` unless it is an int or numpy integer in
    [lo, hi] (no upper bound when hi is None). A bool is no integer here,
    though Python's bool subclasses int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)  # numpy integers would keep their own, wrapping, arithmetic
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _check_real(name: str, value, lo: float | None = None, hi: float | None = None) -> float:
    """The one rule for real parameters: `value` as a finite Python float in
    [lo, hi] (no bound when lo is None, none above when hi is), or
    ValueError naming `name` unless it is an int, float, numpy integer or
    numpy floating scalar (no bool, no `Fraction`)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be within the float range, got {value}") from None
    if not (abs(value) < np.inf and (lo is None or lo <= value) and (hi is None or value <= hi)):
        bounds = "" if lo is None else (f" and >= {lo}" if hi is None else f" and in [{lo}, {hi}]")
        raise ValueError(f"{name} must be finite{bounds}, got {value}")
    return value


def _check_bool(name: str, value) -> bool:
    """The rule for switches: `value` as a Python bool, or ValueError naming
    `name` unless it is a bool or numpy bool (no 0, 1, None or text)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _check_items(name: str, items, nonempty: bool = True) -> list:
    """The rule for sequence parameters: `items` as a list, or ValueError
    naming `name` for a string, a scalar, None or (if `nonempty`) no items."""
    try:
        if isinstance(items, (str, bytes)):
            raise TypeError
        items = list(items)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {items!r}") from None
    if nonempty and not items:
        raise ValueError(f"{name} must be nonempty")
    return items


class EnsembleKind(enum.Enum):
    """The four random-matrix families the switched detector cycles through.

    Declaration order is the fixed tie-break order used when two candidate
    bases flag the same number of snapshots.
    """

    GAUSSIAN = "gaussian"
    BERNOULLI_HALF = "bernoulli-half"
    MARKOV = "markov-column-stochastic"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream address: (master_seed, stream_index) fully
    determines every value drawn from it.

    `branch` is an internal derivation path (see split) letting one stream
    hand disjoint substreams to the independent components it generates;
    user code normally leaves it empty.
    """

    master_seed: int
    stream_index: int = 0
    branch: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        keep = functools.partial(object.__setattr__, self)  # the checked values, as ints
        keep("master_seed", _check_int("master_seed", self.master_seed, 0, 2**64 - 1))
        keep("stream_index", _check_int("stream_index", self.stream_index, 0))
        labels = _check_items("branch", self.branch, nonempty=False)
        keep("branch", tuple(_check_int("branch label", label, 0) for label in labels))

    def split(self, *labels: int) -> "SeedSpec":
        """Derive a child stream guaranteed disjoint from every other
        (stream_index, branch) path under the same master seed."""
        return SeedSpec(self.master_seed, self.stream_index, self.branch + labels)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index, *self.branch))
        return np.random.Generator(np.random.Philox(seq))


def _check_seed(seed) -> SeedSpec:
    """The rule for seeds: `seed` itself, or ValueError naming it unless it
    is a SeedSpec (an integer is no seed; SeedSpec(7) is)."""
    if not isinstance(seed, SeedSpec):
        raise ValueError(f"seed must be a SeedSpec, got {seed!r}")
    return seed


def _check_shape(rows: int, cols: int) -> tuple[int, int]:
    return _check_int("rows", rows, 1), _check_int("cols", cols, 1)


def gen_gaussian(rows: int, cols: int, seed: SeedSpec, stddev: float = 1.0) -> np.ndarray:
    """i.i.d. N(0, stddev^2) entries; zeros, still drawn from the stream,
    when stddev is 0."""
    shape = _check_shape(rows, cols)
    stddev = _check_real("stddev", stddev, 0)
    return _check_seed(seed).generator().normal(0.0, stddev, size=shape)


def gen_bernoulli(rows: int, cols: int, p: float, seed: SeedSpec) -> np.ndarray:
    """i.i.d. {0, 1} entries, each 1 with probability p."""
    shape = _check_shape(rows, cols)
    p = _check_real("p", p, 0, 1)
    return (_check_seed(seed).generator().random(size=shape) < p).astype(float)


def ensemble_matrix(kind: EnsembleKind, rows: int, cols: int, seed: SeedSpec) -> np.ndarray:
    """Draw one matrix from the given ensemble family:

    * gaussian       -- i.i.d. N(0, 1) entries;
    * bernoulli-half -- i.i.d. {0, 1} entries, each 1 with probability 1/2;
    * markov         -- column-stochastic: i.i.d. uniforms on (0, 1], each
                        column normalized to sum 1 (no column is all-zero);
    * rademacher     -- i.i.d. entries drawn equiprobably from {-1, +1}.
    """
    seed = _check_seed(seed)
    if kind is EnsembleKind.GAUSSIAN:
        return gen_gaussian(rows, cols, seed, 1.0)
    if kind is EnsembleKind.BERNOULLI_HALF:
        return gen_bernoulli(rows, cols, 0.5, seed)
    if kind is EnsembleKind.MARKOV:
        u = 1.0 - seed.generator().random(size=_check_shape(rows, cols))
        return u / u.sum(axis=0)
    if kind is EnsembleKind.RADEMACHER:
        return seed.generator().integers(0, 2, size=_check_shape(rows, cols)) * 2.0 - 1.0
    raise ValueError(f"unknown ensemble kind: {kind!r}")
