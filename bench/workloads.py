"""Workloads of the linkanom benchmark, and the worker process that runs one.

`bench/run.py` starts this file as a script, one process per workload run:

    python3 bench/workloads.py --workload sweep_ref --seed 1 --seconds 20 --trace 0

The worker sets up (imports, reference rows, a toy-sized warm-up op),
prints `ready`, runs ops until `--seconds` have passed, checks every op's
output against `reference.json`, and prints one JSON line with its
results. With `--setup-only` it exits right after `ready`.

Every op drives the package through `linkanom.cli.main`, in-process. Its
inputs are stream indexes under a fixed master seed, drawn from the pool
recorded in `reference.json` in an order that `--seed` picks (input_order).
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: unpinned OpenBLAS
# timings on a 2-core machine jitter by up to 6x.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import glob
import io
import itertools
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

MASTER_SEED = 7  # the README's reference sweep
HELD_OUT_SEED = 1704  # perf claims must also hold here (see README.md)
METHODS = ("pca", "rbad", "sspbad")
RANKS = (8, 16, 24, 32, 48, 64)
REF_SIZE = (120, 240, 640)  # m, n, t
LARGE_SIZE = (480, 960, 2560)
TOY_SIZE = (24, 48, 96)
GOLDEN = (1 + 5 ** 0.5) / 2

# An op's scored row matches its reference row when the flag count is
# within FLAG_SLACK + FLAG_REL * reference and the detection rate within
# RATE_SLACK. That admits a roundoff flip of a snapshot sitting on the
# threshold (one flip moves the rate by about 1/73 at reference size) but
# not zero flags or a rate far off.
FLAG_SLACK = 2
FLAG_REL = 0.005
RATE_SLACK = 0.03


class Row(NamedTuple):
    detection_rate: float
    flag_count: int


def row_matches(got: Row, want: Row) -> bool:
    return (
        abs(got.flag_count - want.flag_count) <= FLAG_SLACK + FLAG_REL * want.flag_count
        and abs(got.detection_rate - want.detection_rate) <= RATE_SLACK
    )


class Call(NamedTuple):
    """One timed run of an op's CLI commands, before checking."""

    item: int
    seconds: float
    outputs: dict[str, str] | None  # None when a command failed


def _cli(main: Callable, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@dataclass(frozen=True)
class Sweep:
    """`linkanom sweep` over RANKS; one CLI call runs `trials` trials on
    consecutive stream indexes, and each trial is one op."""

    name: str
    size: tuple[int, int, int]
    methods: tuple[str, ...]
    trials: int
    workers: int
    pool: int  # recorded stream indexes 0 .. pool-1 per master seed

    def items(self) -> list[int]:
        return list(range(0, self.pool, self.trials))

    def ops(self, item: int) -> list[int]:
        return list(range(item, item + self.trials))

    def argv(self, size, ranks, master_seed, stream, workers, out: Path) -> list[str]:
        m, n, t = size
        return [
            "sweep", "--m", str(m), "--n", str(n), "--t", str(t),
            "--method", ",".join(self.methods),
            "--rank-grid", ",".join(map(str, ranks)),
            "--trials", str(self.trials), "--workers", str(workers),
            "--master-seed", str(master_seed), "--stream-index", str(stream),
            "--output", str(out),
        ]

    def warm_up(self, main, master_seed, work: Path) -> None:
        ranks = (TOY_SIZE[0] // 6, TOY_SIZE[0] // 3)
        _cli(main, self.argv(TOY_SIZE, ranks, master_seed, 0, self.workers, work / "warm"))

    def run(self, main, master_seed, item, workers, work: Path) -> Call:
        out = work / "sweep"
        argv = self.argv(self.size, RANKS, master_seed, item, workers, out)
        start = time.perf_counter()
        code = _cli(main, argv)
        seconds = time.perf_counter() - start
        outputs = {"sweep.csv": (out / "sweep.csv").read_text()} if code == 0 else None
        return Call(item, seconds, outputs)

    def rows(self, call: Call) -> dict[int, list[Row]]:
        """Scored rows per op (stream index), in (method, rank) order."""
        per_op: dict[int, list[Row]] = {stream: [] for stream in self.ops(call.item)}
        lines = call.outputs["sweep.csv"].splitlines()[1:]
        parsed = sorted(
            (self.methods.index(method), int(rank), int(trial), float(rate), int(flags))
            for method, rank, trial, rate, _, _, flags in (line.split(",") for line in lines)
        )
        for _, _, trial, rate, flags in parsed:
            per_op.setdefault(call.item + trial, []).append(Row(rate, flags))
        return per_op


@dataclass(frozen=True)
class ScenarioIO:
    """`linkanom generate` then `linkanom detect --input` with each method
    at one rank; one op per stream index."""

    name: str
    size: tuple[int, int, int]
    rank: int
    pool: int
    methods: tuple[str, ...] = METHODS
    workers: int = 1

    def items(self) -> list[int]:
        return list(range(self.pool))

    def ops(self, item: int) -> list[int]:
        return [item]

    def _round_trip(self, main, size, rank, master_seed, stream, work: Path) -> dict | None:
        m, n, t = size
        seed = ["--master-seed", str(master_seed), "--stream-index", str(stream)]
        scenario = work / "scenario"
        code = _cli(main, ["generate", "--m", str(m), "--n", str(n), "--t", str(t),
                           *seed, "--output", str(scenario)])
        reports = {}
        for method in self.methods:
            out = work / f"detect-{method}"
            code |= _cli(main, ["detect", "--input", str(scenario), "--method", method,
                                "--rank", str(rank), *seed, "--output", str(out)])
            reports[method] = out / "report.csv"
        return None if code else reports

    def warm_up(self, main, master_seed, work: Path) -> None:
        self._round_trip(main, TOY_SIZE, TOY_SIZE[0] // 6, master_seed, 0, work / "warm")

    def run(self, main, master_seed, item, workers, work: Path) -> Call:
        start = time.perf_counter()
        reports = self._round_trip(main, self.size, self.rank, master_seed, item, work)
        seconds = time.perf_counter() - start
        outputs = None
        if reports is not None:
            outputs = {method: path.read_text() for method, path in reports.items()}
        return Call(item, seconds, outputs)

    def rows(self, call: Call) -> dict[int, list[Row]]:
        rows = []
        for method in self.methods:
            tp = fp = fn = flags = 0
            for line in call.outputs[method].splitlines()[1:]:
                _, _, _, flag, label = line.split(",")
                flagged, anomalous = flag == "1", label == "1"
                flags += flagged
                tp += flagged and anomalous
                fp += flagged and not anomalous
                fn += anomalous and not flagged
            denominator = tp + fn + fp
            rows.append(Row(tp / denominator if denominator else 1.0, flags))
        return {call.item: rows}


WORKLOADS = {
    w.name: w
    for w in (
        # The README's reference sweep: sym_eig inside the pca fit dominates,
        # and it is the only workload that runs sweep_rank's thread pool.
        Sweep("sweep_ref", REF_SIZE, METHODS, trials=4, workers=2, pool=128),
        # 4x scale without pca (one sym_eig would take ~20 s): Householder QR,
        # sketch products and projections dominate; serial, so no pool.
        Sweep("sweep_large_rand", LARGE_SIZE, ("rbad", "sspbad"), trials=1, workers=1, pool=32),
        # The CLI round trip through CSV files: the only workload where the
        # storage layer dominates.
        ScenarioIO("scenario_io", REF_SIZE, rank=24, pool=48),
    )
}


class PassResult(NamedTuple):
    calls: list[Call]
    ops: int
    failed: int
    rates: list[float]


def run_pass(workload, main, master_seed, items, workers, work, reference,
             budget_s: float | None = None, tracer=None) -> PassResult:
    """Run ops over `items` in order (stopping once `budget_s` has passed,
    after at least one call) and check each op against the reference."""
    calls, ops, failed, rates = [], 0, 0, []
    start = time.perf_counter()
    for index, item in enumerate(items):
        if budget_s is not None and calls and time.perf_counter() - start >= budget_s:
            break
        if tracer is not None:
            tracer.begin_op(index)
        try:
            call = workload.run(main, master_seed, item, workers, work)
        finally:
            if tracer is not None:
                tracer.end_op()
        calls.append(call)
        streams = workload.ops(item)
        ops += len(streams)
        try:
            got = workload.rows(call) if call.outputs is not None else None
        except ValueError:  # malformed output file
            got = None
        if got is None:
            failed += len(streams)
            continue
        for stream in streams:
            rows = got.get(stream, [])
            want = [Row(*row) for row in reference[str(stream)]]
            failed += not (len(rows) == len(want) and all(map(row_matches, rows, want)))
            rates.extend(row.detection_rate for row in rows)
    return PassResult(calls, ops, failed, rates)


def input_order(workload, reference: dict, seed: int) -> list[int]:
    """The pool's items sorted by their reference detection rate, walked
    with a golden-ratio stride from a start drawn from `seed`. Every stretch
    of the walk mixes easy and hard inputs, so a run's detection_rate_mean
    hardly depends on the seed or on how many ops fit in the run."""
    items = sorted(
        workload.items(),
        key=lambda item: (
            statistics.fmean(row[0] for op in workload.ops(item) for row in reference[str(op)]),
            item,
        ),
    )
    n = len(items)
    stride = min((k for k in range(1, n + 1) if math.gcd(k, n) == 1),
                 key=lambda k: abs(k - n / GOLDEN))
    start = random.Random(seed).randrange(n)
    return [items[(start + k * stride) % n] for k in range(n)]


def ops_per_s(result: PassResult, workload) -> float:
    """Median over calls of ops per second of call time."""
    return statistics.median(len(workload.ops(c.item)) / c.seconds for c in result.calls)


def blas_info() -> dict:
    """numpy's BLAS build record plus the loaded OpenBLAS's own report of
    its configuration and thread count, where the library exposes them."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "runtime_config": None, "runtime_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["runtime_threads"] = threads()
                info["runtime_config"] = config().decode()
                return info
    return info


def record_name(workload: str, seed: int, trace: int, master_seed: int) -> str:
    """File stem of a run's record and spans in OUT."""
    name = f"{workload}-seed{seed}-trace{trace}"
    return name if master_seed == MASTER_SEED else f"{name}-master{master_seed}"


def environment(seed: int, master_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "master_seed": master_seed,
    }


def import_package():
    """Import linkanom from this checkout's src/, never from elsewhere."""
    init = SRC / "linkanom" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import linkanom
    import linkanom.cli

    if Path(linkanom.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported linkanom from {linkanom.__file__}, not {SRC}")
    return linkanom


def layer_metrics(spans, stats, ops: int, op_walls: dict[int, float]) -> dict:
    """Per-layer metrics from one pass's spans and their layer_stats, each
    per op where it is a sum, as name -> (value, unit)."""
    empty = tracing.LayerStats(0.0, 0, 0.0)

    def self_s(prefix: str) -> tuple[float, str]:
        return sum(s.self_s for name, s in stats.items() if name.startswith(prefix)) / ops, "s/op"

    def calls(name: str) -> tuple[float, str]:
        return stats.get(name, empty).calls / ops, "calls/op"

    def work(name: str, unit: str) -> tuple[float, str]:
        return stats.get(name, empty).work / ops, unit

    select = stats.get("detectors.sspbad_select", empty)
    return {
        "linalg.sym_eig.self_s": self_s("linalg.sym_eig"),
        "linalg.sym_eig.calls": calls("linalg.sym_eig"),
        "linalg.householder_qr.self_s": self_s("linalg.householder_qr"),
        "linalg.householder_qr.calls": calls("linalg.householder_qr"),
        "detectors.build_pca_model.self_s": self_s("detectors.build_pca_model"),
        "detectors.build_rbad_model.self_s": self_s("detectors.build_rbad_model"),
        "detectors.build_sspbad_candidates.self_s": self_s("detectors.build_sspbad_candidates"),
        "detectors.detect.self_s": self_s("detectors.detect"),
        "detectors.detect.calls": calls("detectors.detect"),
        "detectors.project.self_s": self_s("detectors.project"),
        "detectors.project.gflop": work("detectors.project", "GFLOP/op"),
        "detectors.q_threshold.self_s": self_s("detectors.q_threshold"),
        "detectors.q_threshold.degenerate": work("detectors.q_threshold", "count/op"),
        "detectors.sspbad_select.useful_ratio": (
            select.calls / select.work if select.work else 0.0, "ratio"),
        "traffic.assemble_scenario.self_s": self_s("traffic.assemble_scenario"),
        "ensembles.draw.self_s": self_s("ensembles."),
        "evaluation.score.self_s": self_s("evaluation.score"),
        "storage.self_s": self_s("storage."),
        "storage.write_matrix_csv.self_s": self_s("storage.write_matrix_csv"),
        "storage.write_matrix_csv.mb": work("storage.write_matrix_csv", "MB/op"),
        "storage.read_matrix_csv.self_s": self_s("storage.read_matrix_csv"),
        "storage.read_matrix_csv.mb": work("storage.read_matrix_csv", "MB/op"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.coverage": (tracing.coverage(spans, op_walls, "cli.main"), "ratio"),
    }


def layer_table(stats) -> list[dict]:
    """Every traced layer by self time, with its share of the total."""
    whole = sum(s.self_s for s in stats.values()) or 1.0
    return [
        {"layer": name, "self_s": s.self_s, "share": s.self_s / whole, "calls": s.calls}
        for name, s in sorted(stats.items(), key=lambda item: -item[1].self_s)
    ]


def run_traced(workload, linkanom, master_seed, order, seconds, work, reference, record):
    """An untraced pass, then a traced replay of the same calls. A pooled
    workload adds a serial traced replay: its rows must match the pooled
    ones bit for bit, and its spans give the layer self times, which in
    the pooled replay would include waits for the interpreter lock."""

    def traced_pass(workers):
        tracer = tracing.Tracer()
        restore = tracer.install(linkanom)
        try:
            result = run_pass(workload, linkanom.cli.main, master_seed, items, workers, work,
                              reference, tracer=tracer)
        finally:
            restore()
        return result, tracer.spans

    pooled = workload.workers > 1
    plain = run_pass(workload, linkanom.cli.main, master_seed, order, workload.workers, work,
                     reference, budget_s=seconds * (1 / 3 if pooled else 1 / 2))
    items = [call.item for call in plain.calls]
    traced, traced_spans = traced_pass(workload.workers)
    passes, layer_pass, spans, deterministic = [plain, traced], traced, traced_spans, None
    if pooled:
        layer_pass, spans = traced_pass(1)
        passes.append(layer_pass)
        deterministic = all(
            a.outputs is not None and a.outputs == b.outputs == c.outputs
            for a, b, c in zip(plain.calls, traced.calls, layer_pass.calls)
        )
    op_walls = {index: call.seconds for index, call in enumerate(layer_pass.calls)}
    stats = tracing.layer_stats(spans)
    metrics = layer_metrics(spans, stats, layer_pass.ops, op_walls)
    metrics["evaluation.pool.efficiency"] = (
        tracing.pool_efficiency(traced_spans, "evaluation.sweep_rank", workload.workers), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(c.seconds for c in traced.calls)
        / statistics.median(c.seconds for c in plain.calls), "ratio")
    record["layers"] = layer_table(stats)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{record['name']}.jsonl", "w") as handle:
        for index, pass_spans in enumerate([traced_spans, spans] if pooled else [spans]):
            for span in pass_spans:
                handle.write(json.dumps({"pass": index, **span._asdict()}) + "\n")
    return passes, deterministic, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--master-seed", type=int, default=MASTER_SEED,
                        choices=(MASTER_SEED, HELD_OUT_SEED))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    linkanom = import_package()
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[workload.name][str(args.master_seed)]
    order = input_order(workload, reference, args.seed)
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload.warm_up(linkanom.cli.main, args.master_seed, work)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        record = {"name": record_name(args.workload, args.seed, args.trace, args.master_seed)}
        if args.trace:
            passes, deterministic, metrics = run_traced(
                workload, linkanom, args.master_seed, itertools.cycle(order), args.seconds,
                work, reference, record)
        else:
            passes = [run_pass(workload, linkanom.cli.main, args.master_seed,
                               itertools.cycle(order), workload.workers, work, reference,
                               budget_s=args.seconds)]
            deterministic, metrics = None, {}
        rates = [rate for p in passes for rate in p.rates]
        record.update(
            attempted=sum(p.ops for p in passes),
            failed=sum(p.failed for p in passes),
            deterministic=deterministic,
            ops_per_s=ops_per_s(passes[0], workload),
            call_seconds=[call.seconds for call in passes[0].calls],
            detection_rate_mean=statistics.fmean(rates) if rates else 0.0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            per_layer=metrics,
            environment=environment(args.seed, args.master_seed),
        )
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
