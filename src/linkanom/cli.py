"""Command-line surface: generate scenarios, run detection, sweep ranks,
and tabulate captured variances.

Every run writes a `config.echo` with the fully-resolved parameters it
used; flags override config-file values, which override defaults.
`_resolve` settles every value before a subcommand runs, and the
subcommand gets a read-only view of it, so the echo is what ran.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .detectors import (
    DEFAULT_BETA,
    DEFAULT_POWER_EXPONENT,
    METHOD_PCA,
    METHOD_SSPBAD,
    METHODS,
    detect_method,
)
from .ensembles import SeedSpec
from .evaluation import sweep_rank, variance_compare
from .linalg import _ONE_BLAS_THREAD
from .storage import (
    _all_or_none,
    read_config_file,
    read_scenario,
    write_config_file,
    write_scenario,
    write_table,
)
from .traffic import ScenarioConfig, assemble_scenario, default_anomaly_count

__all__ = ["main"]

DEFAULT_RANK_GRID = (8, 16, 24, 32, 48, 64)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = tuple(item.strip() for item in text.split(","))
    if not any(items):
        raise ValueError(f"expected at least one comma-separated item, got {text!r}")
    if not all(items):
        raise ValueError(f"item {items.index('') + 1} of comma-separated list {text!r} is empty")
    return items


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _parse_str_list(text))


def _parse_path(text: str) -> str:
    """`text` as a path the OS can name. Text the locale cannot encode (a
    config file is UTF-8, while an ASCII locale hands paths over as bytes)
    names the file whose name is its UTF-8 bytes, as `config.echo` wrote
    them."""
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        return os.fsdecode(text.encode("utf-8", "surrogateescape"))
    return text


@dataclass(frozen=True)
class _Field:
    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str


_FIELDS = [
    _Field("m", int, ScenarioConfig.m, "link count"),
    _Field("n", int, ScenarioConfig.n, "origin-destination flow count"),
    _Field("t", int, ScenarioConfig.t, "snapshot count"),
    _Field("r_true", int, ScenarioConfig.r_true, "true rank of the flow matrix"),
    _Field("routing_density", float, ScenarioConfig.routing_density,
           "probability of a flow traversing a link"),
    _Field("anomaly_count", int, None, "nonzero anomalies (default: round(0.001*m*t))"),
    _Field("noise_variance", float, ScenarioConfig.noise_variance, "measurement-noise variance"),
    _Field("master_seed", int, 0, "64-bit master seed"),
    _Field("stream_index", int, 0, "base stream index under the master seed"),
    _Field("method", _parse_str_list, None, "detection method(s), comma-separated"),
    _Field("rank", int, 24, "normal-subspace rank"),
    _Field("power_exponent", int, DEFAULT_POWER_EXPONENT, "power-iteration exponent for rbad"),
    _Field("beta", float, DEFAULT_BETA, "Q-statistic false-alarm level"),
    _Field("rank_grid", _parse_int_list, DEFAULT_RANK_GRID, "ranks to sweep, comma-separated"),
    _Field("trials", int, 20, "number of sweep trials"),
    _Field("workers", int, 1, "parallel trial workers"),
    _Field("center", _parse_bool, False, "center traffic rows in rbad/sspbad models"),
    _Field("input", _parse_path, None, "scenario directory: Y.csv, and labels.csv for detect"),
    _Field("output", _parse_path, ".", "output directory"),
]
_FIELD_MAP = {field.name: field for field in _FIELDS}


@functools.cache  # parse_args keeps no state in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkanom",
        description="Randomized-subspace anomaly detection for link-traffic matrices.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=subcommand.help)
        sub.add_argument("--config", help="flat key = value config file (flags win)")
        for field_name in subcommand.fields:
            field = _FIELD_MAP[field_name]
            flag = "--" + field_name.replace("_", "-")
            sub.add_argument(flag, dest=field_name, default=None, help=field.help, metavar="V")
    return parser


def _resolve(args: argparse.Namespace) -> Mapping[str, Any]:
    """defaults < config file < explicit flags, every value settled here
    and returned read-only."""
    subcommand = _SUBCOMMANDS[args.subcommand]
    file_values: dict[str, str] = {}
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key == "subcommand":
                continue  # provenance only
            if key not in _FIELD_MAP:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
            file_values[key] = value
    resolved: dict[str, Any] = {"subcommand": args.subcommand}
    for field_name in subcommand.fields:
        field = _FIELD_MAP[field_name]
        raw = getattr(args, field_name)
        if raw is None and field_name in file_values:
            raw = file_values[field_name]
        if raw is None:
            resolved[field_name] = subcommand.defaults.get(field_name, field.default)
        else:
            try:
                resolved[field_name] = field.parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {field_name}: {exc}") from None
    if "anomaly_count" in resolved and resolved["anomaly_count"] is None:
        resolved["anomaly_count"] = default_anomaly_count(resolved["m"], resolved["t"])
    return MappingProxyType(resolved)


def _echo_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_echo_value(item) for item in value)
    return str(value)


def _scenario_config(cfg: Mapping[str, Any]) -> ScenarioConfig:
    return ScenarioConfig(
        m=cfg["m"],
        n=cfg["n"],
        t=cfg["t"],
        r_true=cfg["r_true"],
        routing_density=cfg["routing_density"],
        anomaly_count=cfg["anomaly_count"],
        noise_variance=cfg["noise_variance"],
        seed=SeedSpec(cfg["master_seed"], cfg["stream_index"]),
    )


def _load_traffic(cfg: Mapping[str, Any], need_labels: bool) -> tuple[np.ndarray, np.ndarray | None]:
    if not cfg["input"]:
        raise ValueError("no input given: pass --input SCENARIO_DIR")
    return read_scenario(cfg["input"], labels=need_labels)


def _cmd_generate(cfg: Mapping[str, Any], out: Path) -> None:
    scenario_cfg = _scenario_config(cfg)
    scenario = assemble_scenario(scenario_cfg)
    write_scenario(scenario, out)
    print(
        f"wrote scenario (m={scenario_cfg.m}, n={scenario_cfg.n}, t={scenario_cfg.t}, "
        f"anomalies={scenario_cfg.anomaly_count}) to {out}"
    )


def _cmd_detect(cfg: Mapping[str, Any], out: Path) -> None:
    if len(cfg["method"]) != 1:
        raise ValueError("detect takes exactly one --method")
    (method,) = cfg["method"]
    y, labels = _load_traffic(cfg, need_labels=True)
    seed = SeedSpec(cfg["master_seed"], cfg["stream_index"])
    (report,) = detect_method(method, y, [cfg["rank"]], seed, beta=cfg["beta"],
                              power_exponent=cfg["power_exponent"], center=cfg["center"])
    q_beta = report.threshold.q_beta if report.threshold is not None else float("nan")
    columns = zip(report.spe.tolist(), report.flags.tolist(), labels.tolist())
    rows = [(j, spe, q_beta, int(flag), int(label)) for j, (spe, flag, label) in enumerate(columns)]
    header = ("snapshot", "spe", "q_beta", "flag", "label")
    write_table(header, rows, out / "report.csv")
    picked = f", ensemble={report.model_summary.ensemble.value}" if method == METHOD_SSPBAD else ""
    print(
        f"flagged {report.flag_count} of {report.spe.shape[0]} snapshots "
        f"(method={method}, rank={cfg['rank']}, q_beta={q_beta:.6g}{picked})"
    )


def _cmd_sweep(cfg: Mapping[str, Any], out: Path) -> None:
    rows, curves = sweep_rank(
        _scenario_config(cfg),
        cfg["method"],
        cfg["rank_grid"],
        cfg["trials"],
        beta=cfg["beta"],
        power_exponent=cfg["power_exponent"],
        center=cfg["center"],
        workers=cfg["workers"],
    )
    header = ("method", "rank", "trial", "detection_rate", "tpr", "far", "flag_count")
    table = [(r.method, r.rank, r.trial, r.detection_rate, r.tpr, r.far, r.flag_count)
             for r in rows]
    write_table(header, table, out / "sweep.csv")
    header = ("method", "rank", "mean_detection_rate", "std_detection_rate")
    means = [(curve.method, *point) for curve in curves
             for point in zip(curve.ranks, curve.mean_detection_rate, curve.std_detection_rate)]
    write_table(header, means, out / "sweep_mean.csv")
    print(f"wrote {len(rows)} sweep rows over {cfg['trials']} trials to {out}")


def _cmd_variances(cfg: Mapping[str, Any], out: Path) -> None:
    y, _ = _load_traffic(cfg, need_labels=False)
    seed = SeedSpec(cfg["master_seed"], cfg["stream_index"])
    table = variance_compare(y, cfg["rank"], seed, cfg["power_exponent"])
    rows = [(i, *row) for i, row in enumerate(table.variances.tolist())]
    write_table(("index", *table.methods), rows, out / "variances.csv")
    worst = max(table.top_rank_deviation.items(), key=lambda item: item[1])
    print(
        f"wrote variance table ({table.variances.shape[0]} indices x {len(table.methods)} "
        f"methods); max top-{table.rank} deviation vs pca: {worst[1]:.3%} ({worst[0]})"
    )


class _Subcommand(NamedTuple):
    run: Callable[[Mapping[str, Any], Path], None]
    help: str
    fields: tuple[str, ...]
    defaults: Mapping[str, Any] = MappingProxyType({})  # over the fields' own


_SCENARIO_FIELDS = ("m", "n", "t", "r_true", "routing_density", "anomaly_count",
                    "noise_variance", "master_seed", "stream_index")
_SUBCOMMANDS = {
    "generate": _Subcommand(_cmd_generate, "generate a synthetic traffic scenario directory",
                            (*_SCENARIO_FIELDS, "output")),
    "detect": _Subcommand(_cmd_detect, "flag anomalous snapshots in a scenario",
                          ("input", "method", "rank", "power_exponent", "beta",
                           "center", "master_seed", "stream_index", "output"),
                          {"method": (METHOD_PCA,)}),
    "sweep": _Subcommand(_cmd_sweep, "detection rate vs. normal-subspace rank over many trials",
                         (*_SCENARIO_FIELDS, "method", "rank_grid", "trials", "beta",
                          "power_exponent", "center", "workers", "output"),
                         {"method": METHODS}),
    "variances": _Subcommand(_cmd_variances,
                             "captured-variance table for all methods on one scenario",
                             ("input", "rank", "power_exponent", "master_seed",
                              "stream_index", "output")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        out = Path(cfg["output"])
        # a failed run leaves the file system as it found it; the echo is
        # staged first, so one that would not read back fails before any work
        with _all_or_none(out):
            echo = {key: _echo_value(value) for key, value in cfg.items() if value is not None}
            write_config_file(echo, out / "config.echo")
            # one BLAS thread, so no output byte depends on the core count
            with _ONE_BLAS_THREAD:
                _SUBCOMMANDS[args.subcommand].run(cfg, out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
