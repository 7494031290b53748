"""Record the reference rows every benchmark op is checked against.

    python3 bench/record_reference.py        # rewrites bench/reference.json

For each workload and each of the two master seeds, this scores every
stream index of the workload's pool through the library API (serial
`sweep_rank`, or build + detect on the in-memory scenario), a path that
shares no code with the benchmark's CLI round trip and CSV parsing. Rows
are stored per stream index as [detection_rate, flag_count] in (method,
rank) order. It takes several minutes at the parent commit's speed.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def sweep_rows(la, workload: wl.Sweep, master_seed: int) -> dict[str, list]:
    m, n, t = workload.size
    cfg = la.ScenarioConfig(m=m, n=n, t=t, anomaly_count=la.default_anomaly_count(m, t),
                            seed=la.SeedSpec(master_seed, 0))
    rows, _ = la.sweep_rank(cfg, workload.methods, wl.RANKS, trials=workload.pool)
    per_stream: dict[str, list] = {str(s): [] for s in range(workload.pool)}
    for row in rows:  # sorted by (method, rank, trial)
        per_stream[str(row.trial)].append([round(row.detection_rate, 9), row.flag_count])
    return per_stream


def scenario_rows(la, workload: wl.ScenarioIO, master_seed: int) -> dict[str, list]:
    m, n, t = workload.size
    per_stream = {}
    for stream in range(workload.pool):
        seed = la.SeedSpec(master_seed, stream)
        cfg = la.ScenarioConfig(m=m, n=n, t=t, anomaly_count=la.default_anomaly_count(m, t),
                                seed=seed)
        scenario = la.assemble_scenario(cfg)
        y, labels = scenario.y, scenario.labels
        reports = {
            "pca": la.detect(la.build_pca_model(y, workload.rank), y),
            "rbad": la.detect(la.build_rbad_model(y, workload.rank, seed), y),
            "sspbad": la.sspbad_detect(y, workload.rank, seed),
        }
        per_stream[str(stream)] = [
            [round(la.detection_rate(la.score(reports[method], labels)), 9),
             reports[method].flag_count]
            for method in workload.methods
        ]
    return per_stream


def main() -> int:
    la = wl.import_package()
    reference = {}
    for workload in wl.WORKLOADS.values():
        record = sweep_rows if isinstance(workload, wl.Sweep) else scenario_rows
        reference[workload.name] = {
            str(seed): record(la, workload, seed) for seed in (wl.MASTER_SEED, wl.HELD_OUT_SEED)
        }
        print(f"recorded {workload.name}", file=sys.stderr)
    wl.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
