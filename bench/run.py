"""Layered benchmark for linkanom: one workload run, one JSON result line.

    python3 bench/run.py --workload sweep_ref --seed 1 --seconds 20 --trace 0

Workloads: sweep_ref, sweep_large_rand, scenario_io (see README.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced replay. `--master-seed 1704` runs the held-out pool.

The workload runs in its own process (`workloads.py`). Set-up time is
measured from starting that process until it reports `ready`; with
`--trace 0` four extra set-up-only processes run first and the median of
the five set-ups is reported. The full record, with the environment and
the traced layer table, goes to `bench/out/<workload>-seed<n>-trace<t>.json`.
The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import HELD_OUT_SEED, MASTER_SEED, WORKLOADS, record_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], timeout_s: float) -> tuple[float, dict | None]:
    """Start a worker process; return its set-up time and its result line
    (None for a set-up-only worker). The worker is killed at `timeout_s`."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code}")
    return setup_s, json.loads(lines[-1]) if lines else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--master-seed", type=int, default=MASTER_SEED,
                        choices=(MASTER_SEED, HELD_OUT_SEED))
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "linkanom" / "__init__.py").is_file():
        print(f"error: no linkanom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    name = record_name(args.workload, args.seed, args.trace, args.master_seed)
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--master-seed", str(args.master_seed),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(worker_args + ["--setup-only"], SETUP_TIMEOUT_S)[0])
        setup_s, record = run_worker(worker_args, SETUP_TIMEOUT_S + 2 * args.seconds + 60)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in record["per_layer"].items()}
    else:
        metrics = {
            "ops_per_s": {"value": record["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            "detection_rate_mean": {"value": record["detection_rate_mean"], "unit": "ratio"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    result = {
        "correct": attempted > 0 and failed == 0 and record["deterministic"] is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(setup_samples_s=setups, result=result)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for layer in record.get("layers", [])[:8]:
        print(f"{layer['layer']:40s} {layer['self_s']:9.3f} s  {layer['share']:6.1%}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
