"""Subspace models and per-snapshot anomaly detection.

Three ways to build an orthonormal basis ordered by captured variance:

* pca    -- eigendecomposition of the covariance of the row-centered traffic;
* rbad   -- QR of a power-iterated random sketch B = (Y Y^T)^q Y Phi;
* sspbad -- QR of Y Y^T T2 for one random T2 per ensemble family, keeping
            whichever candidate basis flags the most snapshots.

Each fit reads the m x t traffic once, for its m x m second moment;
models fitted to the same traffic share that reduction.

The first r basis columns span the normal subspace; the squared norm of
each snapshot's residual (SPE) is compared against the Q-statistic
threshold derived from the residual variance spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .ensembles import (
    EnsembleKind,
    SeedSpec,
    _check_bool,
    _check_int,
    _check_items,
    _check_real,
    _check_seed,
    ensemble_matrix,
    gen_gaussian,
)
from .linalg import _ONE_BLAS_THREAD, _as_matrix

__all__ = [
    "DegenerateSpectrumError",
    "SubspaceModel",
    "QThreshold",
    "ModelSummary",
    "DetectionReport",
    "build_pca_model",
    "build_rbad_model",
    "build_sspbad_candidates",
    "project",
    "q_threshold",
    "detect",
    "detect_ranks",
    "sspbad_select",
    "sspbad_detect",
    "detect_method",
]

METHOD_PCA = "pca"
METHOD_RBAD = "rbad"
METHOD_SSPBAD = "sspbad"
METHODS = (METHOD_PCA, METHOD_RBAD, METHOD_SSPBAD)

DEFAULT_BETA = 0.005
DEFAULT_POWER_EXPONENT = 2


class DegenerateSpectrumError(ValueError):
    """Residual variance spectrum admits no Q-statistic threshold."""


@dataclass(frozen=True)
class SubspaceModel:
    """Full orthonormal basis with per-column captured variances sorted
    descending; the first `rank` columns form the normal subspace. The
    traffic loses `mean` before projecting (zeros unless fitted centered)."""

    basis: np.ndarray
    variances: np.ndarray
    rank: int
    method: str
    mean: np.ndarray
    ensemble: EnsembleKind | None = None
    power_exponent: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _as_matrix(self.basis, "basis"))
        # a read-only copy of its own, so the spectrum stays the one checked
        variances = np.array(_check_spectrum(self.variances))
        variances.flags.writeable = False
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "mean", _as_matrix(self.mean, "mean", ndim=1))
        m = self.basis.shape[0]
        if self.basis.shape != (m, m):
            raise ValueError(f"basis must be square, got {self.basis.shape}")
        if self.variances.shape != (m,) or self.mean.shape != (m,):
            raise ValueError("variances and mean must have one entry per basis row")
        object.__setattr__(self, "rank", _check_rank(self.rank, m))
        _check_method(self.method)
        # a ModelSummary reports what the model was fitted with: an ensemble
        # exactly for sspbad, a power exponent exactly for rbad
        if self.method == METHOD_SSPBAD and not isinstance(self.ensemble, EnsembleKind):
            raise ValueError(f"ensemble must be an EnsembleKind for sspbad, got {self.ensemble!r}")
        if self.method != METHOD_SSPBAD and self.ensemble is not None:
            raise ValueError(f"ensemble must be None for {self.method}, got {self.ensemble!r}")
        if self.method == METHOD_RBAD:
            object.__setattr__(self, "power_exponent",
                               _check_int("power_exponent", self.power_exponent, 0))
        elif self.power_exponent is not None:
            raise ValueError(f"power_exponent must be None for {self.method}, "
                             f"got {self.power_exponent!r}")

    @property
    def m(self) -> int:
        return self.basis.shape[0]


class ModelSummary(NamedTuple):
    method: str
    rank: int
    ensemble: EnsembleKind | None
    power_exponent: int | None


@dataclass(frozen=True)
class QThreshold:
    """Q-statistic threshold on the SPE at confidence 1 - beta."""

    q_beta: float
    theta: tuple[float, float, float]
    h0: float
    c_beta: float
    beta: float


@dataclass(frozen=True)
class DetectionReport:
    """Per-snapshot SPE values and flags; threshold is None when the
    residual spectrum was degenerate (no residual energy, zero flags)."""

    spe: np.ndarray
    threshold: QThreshold | None
    flags: np.ndarray
    model_summary: ModelSummary

    @property
    def flag_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    @property
    def degenerate(self) -> bool:
        return self.threshold is None


def _check_rank(rank: int, m: int, name: str = "rank") -> int:
    # rank m would leave an empty residual subspace and an undefined Q_beta
    if m < 2:
        _check_int(name, rank, 1)  # a non-integer is named as such for every m
        raise ValueError(f"{name} must be in [1, m - 1], which needs m >= 2 links, got m = {m}")
    return _check_int(name, rank, 1, m - 1)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _check_beta(beta: float) -> float:
    beta = _check_real("beta", beta)
    if not 0.0 < beta < 1.0:  # open ends: no threshold at 0 or 1
        raise ValueError(f"beta must lie strictly between 0 and 1, got {beta}")
    if 1.0 - beta == 1.0:  # c_beta, the (1 - beta) quantile, would be infinite
        raise ValueError(f"beta must exceed 2**-54 so that 1 - beta rounds below 1, got {beta}")
    return beta


class _Moments(NamedTuple):
    """The traffic's second moment, which every model is built from."""

    mean: np.ndarray  # removed by the model: the row means if centered, else zeros
    covariance: np.ndarray  # C, covariance of the row-centered traffic
    second: np.ndarray  # W W^T / (t-1) for the traffic W as the model sees it


class _Traffic:
    """Traffic validated as a finite float matrix with one row per link
    (ValueError names what is wrong), and its row means and covariance,
    reduced on the first fit and shared by every model fitted to it
    afterwards."""

    def __init__(self, y) -> None:
        self.y = _as_matrix(y, "traffic y")
        self._reduced: tuple[np.ndarray, np.ndarray] | None = None

    def moments(self, center: bool) -> _Moments:
        center = _check_bool("center", center)
        m, t = self.y.shape
        if self._reduced is None:
            if t < 2:
                raise ValueError(f"need at least 2 snapshots to estimate a covariance, got {t}")
            with np.errstate(over="ignore", invalid="ignore"):
                mu = self.y.mean(axis=1)
                centered = self.y - mu[:, None]
                # an overflowed mean leaves inf or NaN in the covariance too
                self._reduced = mu, _finite(centered @ centered.T / (t - 1), "covariance")
        mu, covariance = self._reduced
        if center:
            return _Moments(mu, covariance, covariance)
        # C + t/(t-1) mu mu^T; never the uncentered Gram minus the mean term,
        # which cancels badly when the means dominate
        with np.errstate(over="ignore", invalid="ignore"):
            second = covariance + (t / (t - 1)) * np.outer(mu, mu)
        return _Moments(np.zeros(m), covariance, _finite(second, "second moment"))


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    """`values`, a reduction or product of finite traffic; a ValueError
    when it overflowed float64."""
    if not np.isfinite(values).all():
        raise ValueError(f"traffic y is too large: its {name} overflows float64")
    return values


def _traffic(y, m: int | None = None) -> _Traffic:
    """`y` as a `_Traffic` (m rows when m is given). A `_Traffic` from an
    earlier call is kept, with its validation and any reduction, so every
    fit and detection on it shares them; anything else is validated anew."""
    traffic = y if isinstance(y, _Traffic) else _Traffic(y)
    rows = traffic.y.shape[0]
    if m is not None and rows != m:
        raise ValueError(f"traffic has {rows} rows but the model basis has {m}")
    return traffic


def _range_model(
    b: np.ndarray,
    steps: int,
    moments: _Moments,
    rank: int,
    method: str,
    ensemble: EnsembleKind | None = None,
    power_exponent: int | None = None,
) -> SubspaceModel:
    """The randomized range finder (Halko, Martinsson & Tropp 2011, Alg.
    4.3/4.4): Q of the QR of S^steps b, S the m x m second moment, columns
    ordered by descending captured variance of the traffic, diag(Q^T C Q)."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            b = moments.second @ b
        basis, _ = np.linalg.qr(_finite(b, "power-step block"))
        variances = np.sum(basis * (moments.covariance @ basis), axis=0)
    order = np.argsort(-variances, kind="stable")
    return SubspaceModel(
        basis=basis[:, order],
        variances=variances[order],
        rank=rank,
        method=method,
        mean=moments.mean,
        ensemble=ensemble,
        power_exponent=power_exponent,
    )


def build_pca_model(y: np.ndarray, rank: int) -> SubspaceModel:
    """Principal-component model: eigendecomposition of the covariance of
    the row-centered traffic; basis columns are all m eigenvectors and the
    captured variances are the eigenvalues."""
    traffic = _traffic(y)
    rank = _check_rank(rank, traffic.y.shape[0])
    moments = traffic.moments(center=True)
    eigenvalues, eigenvectors = np.linalg.eigh(moments.covariance)
    order = np.argsort(-eigenvalues, kind="stable")
    return SubspaceModel(
        basis=eigenvectors[:, order],
        variances=eigenvalues[order],
        rank=rank,
        method=METHOD_PCA,
        mean=moments.mean,
    )


def build_rbad_model(
    y: np.ndarray,
    rank: int,
    seed: SeedSpec,
    power_exponent: int = DEFAULT_POWER_EXPONENT,
    center: bool = False,
) -> SubspaceModel:
    """Randomized-basis model: Q from the QR factorization of
    B = (Y Y^T)^q Y Phi with a Gaussian t x m test matrix Phi, columns
    reordered by captured variance. Only Y Phi reads the traffic; each
    power step multiplies by the m x m second moment Y Y^T / (t-1).

    The traffic is used uncentered by default; pass center=True for
    variance comparisons against the pca model.
    """
    traffic = _traffic(y)
    m, t = traffic.y.shape
    rank = _check_rank(rank, m)
    power_exponent = _check_int("power_exponent", power_exponent, 0)
    seed = _check_seed(seed)
    moments = traffic.moments(center)
    b = _without_mean(traffic.y, moments.mean) @ gen_gaussian(t, m, seed, 1.0)
    return _range_model(b, power_exponent, moments, rank, METHOD_RBAD,
                        power_exponent=power_exponent)


def build_sspbad_candidates(
    y: np.ndarray,
    rank: int,
    seed: SeedSpec,
    center: bool = False,
) -> Iterator[SubspaceModel]:
    """One candidate basis for each of the four ensemble families: draw T2
    (m x m), take Y Y^T T2 (a single power-iteration step on the sketch,
    through the m x m second moment Y Y^T / (t-1)), and orthonormalize by QR.

    Every argument is checked and the traffic reduced before this returns;
    each candidate is then built only as it is read. Candidates come in
    `EnsembleKind` order, and family i draws from `seed.split(i)`.
    """
    traffic = _traffic(y)
    m = traffic.y.shape[0]
    rank = _check_rank(rank, m)
    seed = _check_seed(seed)
    moments = traffic.moments(center)
    return (_range_model(ensemble_matrix(kind, m, m, seed.split(index)), 1, moments, rank,
                         METHOD_SSPBAD, ensemble=kind)
            for index, kind in enumerate(EnsembleKind))


def project(model: SubspaceModel, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split traffic into modeled and residual parts, y_hat + y_tilde == y.

    The residual is the projection onto the orthogonal complement of the
    first `rank` basis columns. The model's mean is removed before
    projecting and folded back into y_hat, so for a centered model the
    residual stays mean-free.
    """
    y = _traffic(y, model.m).y
    p = model.basis[:, : model.rank]
    with np.errstate(over="ignore", invalid="ignore"):
        work = _without_mean(y, model.mean)
        y_tilde = _finite(work - p @ (p.T @ work), "residual")
        y_hat = _finite(y - y_tilde, "modeled part")
    return y_hat, y_tilde


def _without_mean(y: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """y less the row means `mean`, or y itself (no copy) when all are zero."""
    return y - mean[:, None] if mean.any() else y


def _check_spectrum(variances) -> np.ndarray:
    """The rule for a captured-variance spectrum: the array rule with ndim
    1, sorted descending and nonnegative, each up to roundoff relative to
    max(|lambda_1|, 1); returned as the array rule returns it."""
    variances = _as_matrix(variances, "variances", ndim=1)
    scale = max(abs(variances[0]), 1.0) if variances.size else 1.0
    if (variances[1:] - variances[:-1] > 1e-10 * scale).any():
        raise ValueError("variances must be sorted in descending order")
    # eigenvalues of a singular covariance (t <= m) come out at -eps*lambda_1
    if (variances < -1e-12 * scale).any():
        raise ValueError("variances must be nonnegative up to roundoff (-1e-12 * max(lambda_1, 1))")
    return variances


def q_threshold(variances: Sequence[float], rank: int, beta: float) -> QThreshold:
    """Q-statistic threshold from the residual variance spectrum
    lambda_{rank+1} .. lambda_m.

    theta_i = sum of residual variances to the i-th power,
    h0 = 1 - 2*theta1*theta3 / (3*theta2^2), and
    Q_beta = theta1 * base^(1/h0), where
    base = c_beta*sign(h0)*sqrt(2*theta2*h0^2)/theta1 + 1
           + theta2*h0*(h0-1)/theta1^2
    with c_beta the (1-beta) standard-normal quantile.

    A malformed spectrum, rank or beta raises ValueError; a spectrum that
    admits no threshold at this rank (base <= 0 included) raises
    DegenerateSpectrumError.
    """
    beta = _check_beta(beta)
    variances = _check_spectrum(variances)
    rank = _check_rank(rank, variances.shape[0])
    return _q_statistic(np.maximum(variances, 0.0)[rank:], beta)


def _q_statistic(residual: np.ndarray, beta: float) -> QThreshold:
    """The Jackson-Mudholkar threshold (`q_threshold`) of a checked residual
    spectrum, its roundoff negatives clipped to zero, at a checked beta."""
    with np.errstate(over="ignore"):  # an overflowed theta is inf, caught below
        theta1 = float(residual.sum())
        theta2 = float((residual**2).sum())
        theta3 = float((residual**3).sum())
    try:
        square = theta2**2
    except OverflowError:  # Python's float power raises where numpy's gives inf
        square = math.inf
    if square == 0.0:  # also for theta2 ~ 1e-160, whose square (h0's denominator) underflows
        raise DegenerateSpectrumError("degenerate residual spectrum: no residual variance")
    h0 = 1.0 - 2.0 * theta1 * theta3 / (3.0 * square)
    # Cauchy-Schwarz (theta2^2 <= theta1*theta3) bounds h0 by 1/3; a larger
    # or NaN h0 means the thetas or theta2^2 overflowed
    if not h0 <= 1.0 / 3.0 + 1e-9:
        raise DegenerateSpectrumError(
            f"degenerate residual spectrum: h0 = {h0!r} breaks the Cauchy-Schwarz bound 1/3"
        )
    if abs(h0) < 1e-12:
        raise DegenerateSpectrumError("degenerate residual spectrum: h0 is numerically zero")
    c_beta = NormalDist().inv_cdf(1.0 - beta)
    # (Q/theta1)^h0 is near normal, and for h0 < 0 it falls as Q rises: the
    # upper tail of Q is its lower tail, so the spread takes h0's sign (an
    # unsigned spread puts Q_beta below the median of the SPE)
    spread = math.copysign(math.sqrt(2.0 * theta2 * h0 * h0), h0)
    base = c_beta * spread / theta1 + 1.0 + theta2 * h0 * (h0 - 1.0) / theta1**2
    # the power of a base <= 0 is no threshold: (Q/theta1)^h0 is positive
    if not base > 0.0:
        raise DegenerateSpectrumError("threshold undefined for this spectrum: nonpositive base")
    return QThreshold(
        q_beta=theta1 * base ** (1.0 / h0),
        theta=(theta1, theta2, theta3),
        h0=h0,
        c_beta=c_beta,
        beta=beta,
    )


def detect(model: SubspaceModel, y: np.ndarray, beta: float = DEFAULT_BETA) -> DetectionReport:
    """Project, score each snapshot's residual, and flag SPE > Q_beta.

    A degenerate residual spectrum (e.g. noiseless exact-rank traffic)
    yields a report with threshold=None and zero flags instead of an
    error.
    """
    return detect_ranks(model, y, [model.rank], beta)[0]


def detect_ranks(
    model: SubspaceModel, y: np.ndarray, ranks: Iterable[int], beta: float = DEFAULT_BETA
) -> list[DetectionReport]:
    """`detect` of the model at rank r, for every r in `ranks`, in order,
    from one projection of the traffic.

    With lo and hi the smallest and largest rank, z = B[:, :hi]^T w gives
    the residual at lo as w - B[:, :lo] z[:lo]. The basis is orthonormal,
    so each further normal column removes its own coordinate:
    SPE(r) = SPE(lo) - sum_{lo <= i < r} z_i^2, exact up to a roundoff of
    order eps * SPE(lo). The squares are summed one segment between the
    grid's ranks at a time, each sum starting from the one before, so each
    has the bits of a cumsum's row; only for a single snapshot does numpy
    sum a segment pairwise, which moves its SPE by roundoff. For a single
    rank this is the arithmetic of `project`, bit for bit. Each rank's
    threshold is `q_threshold`'s.
    """
    beta = _check_beta(beta)
    y = _traffic(y, model.m).y
    ranks = [_check_rank(rank, model.m) for rank in _check_items("ranks", ranks)]
    lo, hi = min(ranks), max(ranks)
    with np.errstate(over="ignore", invalid="ignore"):
        work = _without_mean(y, model.mean)
        z = model.basis[:, :hi].T @ work
        # the rank-lo residual, then its squares, in one m x t buffer
        residual = model.basis[:, :lo] @ z[:lo]
        np.subtract(work, residual, out=residual)
        spe_lo = np.sum(np.square(residual, out=residual), axis=0)
        # z[:lo] has served the residual, so z[lo:] is squared in place. Row
        # r - 1 then takes the sum up to rank r, and the next segment's sum
        # starts from it: numpy sums down axis 0 row by row, as a cumsum adds
        np.square(z[lo:], out=z[lo:])
        spes, first = {lo: spe_lo}, lo
        for rank in sorted(set(ranks) - {lo}):
            z[rank - 1] = np.sum(z[first:rank], axis=0)
            spes[rank] = spe_lo - z[rank - 1]
            first = rank - 1
    # SPE(hi) is SPE(lo) less every squared coordinate, so an overflow
    # anywhere above leaves inf or NaN in it
    _finite(spes[hi], "residual energy (SPE)")
    # the model checked its spectrum when it was made
    clipped = np.maximum(model.variances, 0.0)
    reports = []
    for rank in ranks:
        spe = spes[rank]
        try:
            threshold = _q_statistic(clipped[rank:], beta)
        except DegenerateSpectrumError:
            threshold = None
        flags = np.zeros(spe.shape[0], dtype=bool) if threshold is None else spe > threshold.q_beta
        summary = ModelSummary(model.method, rank, model.ensemble, model.power_exponent)
        reports.append(DetectionReport(spe, threshold, flags, summary))
    return reports


def sspbad_select(reports: Sequence[DetectionReport]) -> DetectionReport:
    """Keep the candidate report flagging the most snapshots; ties go to
    the earliest candidate in the sequence."""
    if not reports:
        raise ValueError("cannot select from an empty report sequence")
    counts = [report.flag_count for report in reports]
    return reports[counts.index(max(counts))]


def sspbad_detect(y: np.ndarray, rank: int, seed: SeedSpec) -> DetectionReport:
    """`detect_method("sspbad", y, [rank], seed)`'s one report."""
    return detect_method(METHOD_SSPBAD, y, [rank], seed)[0]


def detect_method(
    method: str,
    y: np.ndarray,
    ranks: Iterable[int],
    seed: SeedSpec,
    *,
    beta: float = DEFAULT_BETA,
    power_exponent: int = DEFAULT_POWER_EXPONENT,
    center: bool = False,
) -> list[DetectionReport]:
    """One report per rank of `ranks`, in order: build the method's models
    once (one for pca and rbad, one for each of the four ensemble families
    for sspbad; pca is always centered and draws nothing from `seed`), run
    `detect_ranks` on each and keep the `sspbad_select` winner rank by rank.
    After the checks, numpy's OpenBLAS is held at one thread
    (`linalg._ONE_BLAS_THREAD`), so no report depends on the caller's count."""
    beta = _check_beta(beta)
    ranks = _check_items("ranks", ranks)
    _check_method(method)
    # checked for pca too, which ignores them
    power_exponent = _check_int("power_exponent", power_exponent, 0)
    seed = _check_seed(seed)
    center = _check_bool("center", center)
    traffic = _traffic(y)
    ranks = [_check_rank(rank, traffic.y.shape[0]) for rank in ranks]
    with _ONE_BLAS_THREAD:
        if method == METHOD_PCA:
            models = [build_pca_model(traffic, ranks[0])]
        elif method == METHOD_RBAD:
            models = [build_rbad_model(traffic, ranks[0], seed, power_exponent, center)]
        else:  # built one at a time, each dropped once detected
            models = build_sspbad_candidates(traffic, ranks[0], seed, center)
        # unlike a loop variable, map holds no model while the next one is built
        per_model = list(map(functools.partial(detect_ranks, y=traffic, ranks=ranks, beta=beta),
                             models))
    return [sspbad_select(at_rank) for at_rank in zip(*per_model)]
