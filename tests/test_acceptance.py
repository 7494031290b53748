"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured quantities. Tolerances are pinned here and nowhere
else."""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
from scipy.special import ndtri

from linkanom.detectors import (
    DetectionReport,
    ModelSummary,
    build_pca_model,
    build_rbad_model,
    build_sspbad_candidates,
    detect,
    project,
    q_threshold,
    sspbad_select,
)
from linkanom.ensembles import SeedSpec, gen_gaussian
from linkanom.evaluation import (
    _RBAD_STREAM,
    detection_rate,
    score,
    sweep_rank,
    variance_compare,
)
from linkanom.traffic import ScenarioConfig, assemble_scenario

REFERENCE = ScenarioConfig()  # m=120, n=240, t=640, r_true=24, density 0.05, s=77, sigma^2=0.1
GRID = (8, 16, 24, 32, 48, 64)
BETA = 0.005


def row_variance(m):
    return np.var(m, axis=1, ddof=1)


def _report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} {status}: {detail}"
    print(line)
    return line


def test_criterion_1_exact_range_capture():
    cfg = dataclasses.replace(REFERENCE, noise_variance=0.0, anomaly_count=0,
                              seed=SeedSpec(101))
    sc = assemble_scenario(cfg)
    y_norm = np.linalg.norm(sc.y)
    results = {}
    for q_exp in (0, 1, 2):
        start = time.perf_counter()
        model = build_rbad_model(sc.y, 24, SeedSpec(101).split(10 + q_exp), power_exponent=q_exp)
        _, y_tilde = project(model, sc.y)
        elapsed = time.perf_counter() - start
        results[f"rbad(q={q_exp})"] = (np.linalg.norm(y_tilde) / y_norm, elapsed)
    start = time.perf_counter()
    candidates = list(build_sspbad_candidates(sc.y, 24, SeedSpec(101).split(20)))
    per_kind_start = time.perf_counter() - start
    for model in candidates:
        start = time.perf_counter()
        _, y_tilde = project(model, sc.y)
        elapsed = per_kind_start / len(candidates) + (time.perf_counter() - start)
        results[f"sspbad({model.ensemble.value})"] = (np.linalg.norm(y_tilde) / y_norm, elapsed)
    worst_ratio = max(ratio for ratio, _ in results.values())
    worst_time = max(elapsed for _, elapsed in results.values())
    ok = worst_ratio <= 1e-8 and worst_time <= 5.0
    line = _report_line(1, ok, f"worst residual ratio {worst_ratio:.3e} (<= 1e-8), "
                               f"worst per-method time {worst_time:.2f}s (<= 5s)")
    assert ok, line


def test_criterion_2_pca_variance_identity():
    worst = 0.0
    for s in range(10):
        sc = assemble_scenario(dataclasses.replace(REFERENCE, seed=SeedSpec(202, s)))
        model = build_pca_model(sc.y, 24)
        centered = sc.y - model.mean[:, None]
        observed = row_variance(model.basis.T @ centered)
        worst = max(worst, float(np.max(np.abs(observed - model.variances) / model.variances)))
    ok = worst <= 1e-8
    line = _report_line(2, ok, f"worst relative identity error {worst:.3e} (<= 1e-8) over 10 scenarios")
    assert ok, line


# Effective power of Y Y^T in each basis's sketch: none for a random basis,
# q + 1/2 for rbad(q) (Y Phi has the range of (Y Y^T)^(1/2) G), 1 for sspbad.
VARIANCE_LADDER = (
    ("random", 0.0),
    ("rbad(q=0)", 0.5),
    ("sspbad-gaussian", 1.0),
    ("rbad(q=1)", 1.5),
    ("rbad(q=2)", 2.5),
)


def test_criterion_3_variance_comparison_tolerances():
    # At sigma^2 = 0.1 the top-24 eigenvalues are the gapless edge of the
    # noise bulk, so no basis short of the eigenvectors themselves tracks
    # them index by index: the exact pca subspace in a random orthonormal
    # basis already misses by the "floor" reported below. What power
    # iteration does promise is that the deviation shrinks as the sketch's
    # effective power of Y Y^T grows.
    rank = 24
    devs = {name: [] for name, _ in VARIANCE_LADDER}
    floor = []
    same_statistic = True
    for s in range(10):
        seed = SeedSpec(303, s)
        sc = assemble_scenario(dataclasses.replace(REFERENCE, seed=seed))
        table = variance_compare(sc.y, rank, seed, power_exponent=2)
        eigenvalues = table.variances[:, table.methods.index("pca")]
        rbad_q2 = table.variances[:, table.methods.index("rbad")]
        rbad_q2_dev = table.top_rank_deviation["rbad"]
        same_statistic &= _top_rank_deviation(rbad_q2, eigenvalues, rank) == rbad_q2_dev
        devs["rbad(q=2)"].append(rbad_q2_dev)
        devs["sspbad-gaussian"].append(table.top_rank_deviation["sspbad-gaussian"])
        # same test matrix Phi as variance_compare's rbad, fewer power steps
        for q_exp in (0, 1):
            model = build_rbad_model(sc.y, rank, seed.split(_RBAD_STREAM), q_exp, center=True)
            devs[f"rbad(q={q_exp})"].append(_top_rank_deviation(model.variances, eigenvalues, rank))
        # substreams 6 and 7 are free: the scenario draws from 0-3, the detectors from 4-5
        m = sc.y.shape[0]
        random_basis, _ = np.linalg.qr(gen_gaussian(m, m, seed.split(6)))
        centered = sc.y - sc.y.mean(axis=1, keepdims=True)
        devs["random"].append(
            _top_rank_deviation(row_variance(random_basis.T @ centered), eigenvalues, rank)
        )
        # column j of eigenvectors @ rotation captures sum_i rotation_ij^2 lambda_i
        rotation, _ = np.linalg.qr(gen_gaussian(rank, rank, seed.split(7)))
        exact_subspace = (rotation**2).T @ eigenvalues[:rank]
        floor.append(_top_rank_deviation(exact_subspace, eigenvalues, rank))
    medians = [float(np.median(devs[name])) for name, _ in VARIANCE_LADDER]
    ordered = all(a > b for a, b in zip(medians, medians[1:]))
    ok = same_statistic and ordered
    ladder = ", ".join(
        f"{name}[{power:g}] {median:.3f}" for (name, power), median in zip(VARIANCE_LADDER, medians)
    )
    line = _report_line(
        3,
        ok,
        f"median top-{rank} deviation vs pca eigenvalues, [effective power of YY^T]: {ladder} "
        f"(strictly decreasing={ordered}), exact-subspace floor {float(np.median(floor)):.3f}, "
        f"same statistic as variance_compare={same_statistic}, 10 seeds",
    )
    assert ok, line


def _top_rank_deviation(variances, eigenvalues, rank):
    """VarianceTable.top_rank_deviation of one variance sequence: sorted
    descending, the largest relative deviation from the pca eigenvalues over
    the first `rank` indices."""
    top = np.sort(variances)[::-1][:rank]
    return float(np.max(np.abs(top - eigenvalues[:rank]) / eigenvalues[:rank]))


def test_criterion_4_q_beta_scalar_oracle():
    # residual spectrum {1, 0, ..., 0} behind a rank-1 normal block
    variances = np.array([2.0, 1.0] + [0.0] * 94)
    th = q_threshold(variances, 1, BETA)
    # independent recomputation of the defining arithmetic
    c = float(ndtri(1.0 - BETA))
    base = c * math.sqrt(2.0 / 9.0) + 1.0 - 2.0 / 9.0
    oracle = base**3
    scaled = q_threshold(10.0 * variances, 1, BETA)
    oracle_ok = abs(th.q_beta - 7.9047) <= 1e-3 and abs(th.q_beta - oracle) <= 1e-12
    homogeneity_err = abs(scaled.q_beta - 10.0 * th.q_beta) / (10.0 * th.q_beta)
    ok = oracle_ok and homogeneity_err <= 1e-9
    line = _report_line(4, ok, f"Q_beta {th.q_beta:.6f} (oracle {oracle:.6f}, expected 7.9047 +/- 1e-3), "
                               f"homogeneity error {homogeneity_err:.2e} (<= 1e-9)")
    assert ok, line


def test_criterion_5_projector_algebra():
    rng = np.random.default_rng(404)
    y = rng.normal(size=(60, 200))
    seed = SeedSpec(405)
    models = [
        build_pca_model(y, 12),
        build_rbad_model(y, 12, seed.split(0)),
        next(build_sspbad_candidates(y, 12, seed.split(1))),
    ]
    worst = 0.0
    for model in models:
        p = model.basis[:, : model.rank]
        c_hat = p @ p.T
        c_tilde = np.eye(model.m) - c_hat
        worst = max(
            worst,
            float(np.max(np.abs(c_hat + c_tilde - np.eye(model.m)))),
            float(np.max(np.abs(c_hat @ c_hat - c_hat))),
            float(np.max(np.abs(c_hat @ c_tilde))),
        )
    ok = worst <= 1e-10
    line = _report_line(5, ok, f"worst projector identity error {worst:.3e} (<= 1e-10) "
                               "across pca/rbad/sspbad")
    assert ok, line


def test_criterion_6_detection_rate_sweep():
    start = time.perf_counter()
    cfg = dataclasses.replace(REFERENCE, seed=SeedSpec(606))
    rows, curves = sweep_rank(cfg, ["pca", "rbad", "sspbad"], GRID, trials=20, beta=BETA)
    elapsed = time.perf_counter() - start
    mean = {c.method: dict(zip(c.ranks, c.mean_detection_rate)) for c in curves}

    margin_ok = all(
        mean[method][rank] >= mean["pca"][rank] - 0.02 for method in ("rbad", "sspbad") for rank in GRID
    )
    strict_ok = all(
        any(mean[method][rank] > mean["pca"][rank] for rank in GRID) for method in ("rbad", "sspbad")
    )
    # all-flags-false baseline on the same 20 scenarios
    baseline_rates = []
    for trial in range(20):
        sc = assemble_scenario(dataclasses.replace(cfg, seed=SeedSpec(606, trial)))
        empty = DetectionReport(
            spe=np.zeros(sc.y.shape[1]),
            threshold=None,
            flags=np.zeros(sc.y.shape[1], dtype=bool),
            model_summary=ModelSummary("pca", 24, None, None),
        )
        baseline_rates.append(detection_rate(score(empty, sc.labels)))
    baseline = float(np.mean(baseline_rates))
    beats_baseline = all(mean[m][24] > baseline for m in ("pca", "rbad", "sspbad"))
    flags_at_24 = sum(r.flag_count for r in rows if r.method == "pca" and r.rank == 24)

    ok = margin_ok and strict_ok and beats_baseline and flags_at_24 > 0 and elapsed <= 300.0
    summary = ", ".join(
        f"{m}@24={mean[m][24]:.3f}" for m in ("pca", "rbad", "sspbad")
    )
    line = _report_line(
        6,
        ok,
        f"{summary}, baseline={baseline:.3f}, margin_ok={margin_ok}, strict={strict_ok}, "
        f"runtime {elapsed:.0f}s (<= 300s)",
    )
    assert ok, line


def test_criterion_7_sweep_determinism(tmp_path):
    args = [
        sys.executable, "-m", "linkanom.cli", "sweep",
        "--m", "40", "--n", "80", "--t", "160", "--r-true", "8", "--anomaly-count", "20",
        "--method", "pca,rbad,sspbad", "--rank-grid", "4,8,16", "--trials", "2",
        "--master-seed", "707",
    ]
    outputs = {}
    for name, extra in (("first", []), ("second", []), ("parallel", ["--workers", "4"])):
        out = tmp_path / name
        proc = subprocess.run(
            [*args, *extra, "--output", str(out)], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs[name] = ((out / "sweep.csv").read_bytes(), (out / "sweep_mean.csv").read_bytes())
    rerun_ok = outputs["first"] == outputs["second"]
    parallel_ok = outputs["first"] == outputs["parallel"]
    ok = rerun_ok and parallel_ok
    line = _report_line(7, ok, f"rerun bit-identical={rerun_ok}, parallel==serial={parallel_ok}")
    assert ok, line


def test_criterion_8_sspbad_selection():
    rng = np.random.default_rng(808)

    def fake(count, total=30):
        flags = np.zeros(total, dtype=bool)
        flags[rng.choice(total, size=count, replace=False)] = True
        return DetectionReport(
            spe=np.zeros(total), threshold=None, flags=flags,
            model_summary=ModelSummary("sspbad", 5, None, None),
        )

    randomized_ok = True
    for _ in range(50):
        counts = rng.integers(0, 31, size=int(rng.integers(1, 7)))
        reports = [fake(int(c)) for c in counts]
        chosen = sspbad_select(reports)
        if chosen.flag_count != max(r.flag_count for r in reports):
            randomized_ok = False
            break
    tie_reports = [fake(3), fake(7), fake(7), fake(2)]
    tie_ok = sspbad_select(tie_reports) is tie_reports[1]
    ok = randomized_ok and tie_ok
    line = _report_line(8, ok, f"max-count selection on 50 randomized cases={randomized_ok}, "
                               f"first-maximum tie-break={tie_ok}")
    assert ok, line


def test_criterion_9_complexity_smoke():
    rng = np.random.default_rng(909)
    traffic = {m: rng.normal(size=(m, 4 * m)) for m in (120, 240)}
    # each fit reduces the m x 4m traffic and factors an m x m matrix:
    # pca's eigendecomposition, and the QR of the first sspbad candidate
    fits = {
        "build_pca_model": lambda y: build_pca_model(y, 8),
        "first sspbad candidate": lambda y: next(build_sspbad_candidates(y, 8, SeedSpec(909))),
    }
    # The two sizes alternate, so drift in machine speed lands on both.
    # Each m=120 sample runs 8 calls, the work of one m=240 call under
    # cubic growth, so both sizes average over spans of the same length.
    times = {}
    for _ in range(5):
        for m, calls in ((120, 8), (240, 1)):
            for name, fit in fits.items():
                elapsed = _cpu_timed(fit, traffic[m], calls)
                times[name, m] = min(times.get((name, m), math.inf), elapsed)
    ratios = {name: times[name, 240] / times[name, 120] for name in fits}
    ok = all(times[name, 120] < 1.0 and ratios[name] <= 10.0 for name in fits)
    line = _report_line(
        9,
        ok,
        "m=120: " + ", ".join(f"{name} {times[name, 120]*1e3:.1f}ms" for name in fits)
        + " CPU (< 1s); m=240 growth: "
        + ", ".join(f"{name} {ratios[name]:.1f}x" for name in fits) + " (<= 10x)",
    )
    assert ok, line


def _cpu_timed(fn, arg, calls):
    """CPU seconds per call of the calling thread: time lost to other
    processes and the spin of idle BLAS worker threads are not counted."""
    start = time.thread_time()
    for _ in range(calls):
        fn(arg)
    return (time.thread_time() - start) / calls
