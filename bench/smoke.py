"""Smoke test of the benchmark: the shortest run of every workload.

    python3 bench/smoke.py

Runs each workload once with `--trace 0` and once with `--trace 1` at
`--seconds 1` (one CLI call per pass) and checks that the result line has
exactly the contract's keys, that every metric BENCHMARK.json names is
printed with its unit, that no op failed (ok_ratio 1, so fail_ratio 0),
and that a directory holding only BENCHMARK.json and bench/ makes the
benchmark exit non-zero without printing a result. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"metric {metric['name']}: {got}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"metric {metric['name']} is not a number: {got}")
    if set(result["metrics"]) != {metric["name"] for metric in wanted}:
        problems.append(f"metric names {sorted(result['metrics'])}")
    if not trace and result["metrics"]["ok_ratio"]["value"] != 1.0:
        problems.append(f"ok_ratio {result['metrics']['ok_ratio']}")
    return [f"{workload} trace {trace}: {problem}" for problem in problems]


def check_bare_directory(workload: str) -> list[str]:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "out"))
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
