"""The input contract of the public callables.

Arrays: an array of the wrong kind (complex, text or objects), of the
wrong number of dimensions, ragged, or with a NaN or inf entry raises a
ValueError whose message starts with the parameter's name, never a
TypeError or a warning.

Scalars, enums and sequences: a bool, text, a complex number, a
`Fraction`, None, NaN, inf or a value out of range raises a ValueError
naming the parameter, and numpy integer and floating scalars are stored
as Python ints and floats. A seed is a `SeedSpec`, and a switch a bool or
numpy bool, or the same ValueError is raised.

The command line: bad input exits 1 with one `error: ` line and leaves
no output directory; an argparse usage error exits 2 through SystemExit.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linkanom import (
    DetectionReport,
    EnsembleKind,
    ModelSummary,
    ScenarioConfig,
    SeedSpec,
    SubspaceModel,
    build_pca_model,
    build_rbad_model,
    build_sspbad_candidates,
    detect_method,
    detect_ranks,
    ensemble_matrix,
    gen_bernoulli,
    gen_gaussian,
    q_threshold,
    score,
    sweep_rank,
    variance_compare,
)
from linkanom import cli
from linkanom.storage import write_labels_csv, write_matrix_csv

_MODEL = build_pca_model(np.random.default_rng(3).normal(size=(3, 12)), 1)


def _report() -> DetectionReport:
    # the label rule comes before the one-label-per-flag check, so any
    # number of flags reaches it
    summary = ModelSummary("pca", 1, None, None)
    return DetectionReport(np.zeros(3), None, np.zeros(3, dtype=bool), summary)


def _model(**fields) -> SubspaceModel:
    valid = {"basis": np.eye(3), "variances": np.array([3.0, 2.0, 1.0]), "rank": 1,
             "method": "pca", "mean": np.zeros(3)}
    return SubspaceModel(**(valid | fields))


# (parameter name as the message gives it, expected ndim, call with the bad array)
CALLABLES = {
    "write_matrix_csv": ("matrix", 2, lambda a, path: write_matrix_csv(a, path / "m.csv")),
    "q_threshold": ("variances", 1, lambda a, path: q_threshold(a, 1, 0.01)),
    "score": ("labels", 1, lambda a, path: score(_report(), a)),
    "write_labels_csv": ("labels", 1, lambda a, path: write_labels_csv(a, path / "l.csv")),
    "SubspaceModel-basis": ("basis", 2, lambda a, path: _model(basis=a)),
    "SubspaceModel-variances": ("variances", 1, lambda a, path: _model(variances=a)),
    "SubspaceModel-mean": ("mean", 1, lambda a, path: _model(mean=a)),
    "build_pca_model": ("traffic y", 2, lambda a, path: build_pca_model(a, 1)),
    "detect_ranks": ("traffic y", 2, lambda a, path: detect_ranks(_MODEL, a, [1])),
}


def _ragged(a: np.ndarray) -> list:
    """`a` (every side at least 2) as a nested list that numpy cannot make
    rectangular: the first innermost list holds a list among its numbers."""
    nested = a.tolist()
    inner = nested
    for _ in range(a.ndim - 1):
        inner = inner[0]
    inner[0] = [inner[0], inner[0]]
    return nested


@st.composite
def bad_arrays(draw, ndim: int):
    kind = draw(st.sampled_from(["complex", "text", "object", "ndim", "non-finite", "ragged"]))
    if kind == "ndim":
        ndim = draw(st.sampled_from([d for d in range(4) if d != ndim]))
    min_side = 2 if kind == "ragged" else 1
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=min_side, max_side=4))
    if kind == "complex":
        return draw(hnp.arrays(complex, shape, elements=st.complex_numbers(max_magnitude=1e3)))
    if kind == "text":
        return draw(hnp.arrays("U4", shape, elements=st.text("01.-e", max_size=4)))
    a = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    if kind == "object":
        return a.astype(object)
    if kind == "ragged":
        return _ragged(a)
    if kind == "non-finite":
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


def _raises_naming(prefix: str, call, *args):
    """The ValueError `call(*args)` raises under warnings-as-errors; its
    message must start with `prefix` (a regex) as a whole word."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            call(*args)
    assert re.match(rf"(?:{prefix})\b", str(excinfo.value)), str(excinfo.value)
    return excinfo.value


@pytest.mark.parametrize("callable_", CALLABLES)
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bad_arrays_raise_a_value_error_naming_the_parameter(tmp_path, callable_, data):
    name, ndim, call = CALLABLES[callable_]
    bad = data.draw(bad_arrays(ndim))
    _raises_naming(re.escape(name), call, bad, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("callable_", CALLABLES)
def test_ragged_nested_lists_are_named(tmp_path, callable_):
    # numpy's own ValueError ("inhomogeneous shape") named no parameter
    name, ndim, call = CALLABLES[callable_]
    error = _raises_naming(re.escape(name), call, _ragged(np.ones((2,) * ndim)), tmp_path)
    assert str(error) == f"{name} must be a rectangular array, not a ragged sequence"
    assert list(tmp_path.iterdir()) == []


# -- scalars, enums and sequences ---------------------------------------

_Y = np.random.default_rng(4).normal(size=(6, 20))
_SEED = SeedSpec(3)
_CFG = dict(m=6, n=8, t=20, r_true=2, anomaly_count=2)  # n * t = 160, min(n, t) = 8


def _config(**fields) -> ScenarioConfig:
    return ScenarioConfig(**(_CFG | fields))


def _sweep(**args):
    given_ = dict(cfg=_config(), methods=["pca"], rank_grid=[2], trials=1) | args
    return sweep_rank(**given_)


# what every rule rejects: no bool, text, complex, Fraction, None, NaN or inf
# is an integer, a finite real, a sequence or a member of an enum
NOT_A_VALUE = [True, np.True_, "3", 3 + 0j, Fraction(1, 2), None, math.nan, math.inf]

# parameter -> (message prefix, values out of range, call with the value)
PARAMETERS = {
    "ScenarioConfig-m": ("m", [0], lambda v: _config(m=v)),
    "ScenarioConfig-n": ("n", [0], lambda v: _config(n=v)),
    "ScenarioConfig-t": ("t", [0], lambda v: _config(t=v)),
    "ScenarioConfig-r_true": ("r_true", [-1, 9], lambda v: _config(r_true=v)),
    "ScenarioConfig-routing_density": ("routing_density", [-0.1, 1.5],
                                       lambda v: _config(routing_density=v)),
    "ScenarioConfig-anomaly_count": ("anomaly_count", [-1, 161], lambda v: _config(anomaly_count=v)),
    "ScenarioConfig-noise_variance": ("noise_variance", [-1e-3], lambda v: _config(noise_variance=v)),
    # was accepted, and failed in assemble_scenario on 7.split
    "ScenarioConfig-seed": ("seed", [7, (7, 0)], lambda v: _config(seed=v)),
    "SeedSpec-master_seed": ("master_seed", [-1, 2**64], lambda v: SeedSpec(v)),
    "SeedSpec-stream_index": ("stream_index", [-1], lambda v: SeedSpec(7, v)),
    "SeedSpec-branch": ("branch", [(-1,), 3], lambda v: SeedSpec(7, 0, v)),
    "gen_gaussian-rows": ("rows", [0], lambda v: gen_gaussian(v, 2, _SEED)),
    "gen_gaussian-cols": ("cols", [0], lambda v: gen_gaussian(2, v, _SEED)),
    "gen_gaussian-stddev": ("stddev", [-1.0], lambda v: gen_gaussian(2, 2, _SEED, v)),
    # an int seed raised an AttributeError from 7.generator
    "gen_gaussian-seed": ("seed", [7, "7"], lambda v: gen_gaussian(2, 2, v)),
    "gen_bernoulli-rows": ("rows", [0], lambda v: gen_bernoulli(v, 2, 0.5, _SEED)),
    "gen_bernoulli-p": ("p", [-0.5, 1.5], lambda v: gen_bernoulli(2, 2, v, _SEED)),
    "gen_bernoulli-seed": ("seed", [7, "7"], lambda v: gen_bernoulli(2, 2, 0.5, v)),
    "ensemble_matrix-kind": ("unknown ensemble kind", ["gaussian"],
                             lambda v: ensemble_matrix(v, 2, 2, _SEED)),
    "ensemble_matrix-rows": ("rows", [0], lambda v: ensemble_matrix(EnsembleKind.MARKOV, v, 2, _SEED)),
    "ensemble_matrix-cols": ("cols", [0],
                             lambda v: ensemble_matrix(EnsembleKind.RADEMACHER, 2, v, _SEED)),
    "ensemble_matrix-seed": ("seed", [7, "7"], lambda v: ensemble_matrix(EnsembleKind.MARKOV, 2, 2, v)),
    "build_pca_model-rank": ("rank", [0, 6], lambda v: build_pca_model(_Y, v)),
    "build_rbad_model-rank": ("rank", [0, 6], lambda v: build_rbad_model(_Y, v, _SEED)),
    "build_rbad_model-power_exponent": ("power_exponent", [-1],
                                        lambda v: build_rbad_model(_Y, 2, _SEED, v)),
    "build_rbad_model-seed": ("seed", [7, "7"], lambda v: build_rbad_model(_Y, 2, v)),
    "build_sspbad_candidates-rank": ("rank", [0, 6], lambda v: build_sspbad_candidates(_Y, v, _SEED)),
    "build_sspbad_candidates-seed": ("seed", [7, "7"], lambda v: build_sspbad_candidates(_Y, 2, v)),
    # each was stored as given and came back in detect_ranks' ModelSummary
    "SubspaceModel-method": ("unknown method", [3, "bogus"], lambda v: _model(method=v)),
    "SubspaceModel-ensemble": ("ensemble", ["gaussian"],
                               lambda v: _model(method="sspbad", ensemble=v)),
    "SubspaceModel-power_exponent": ("power_exponent", [-3, "2"],
                                     lambda v: _model(method="rbad", power_exponent=v)),
    "detect_ranks-ranks": ("ranks", [[]], lambda v: detect_ranks(_MODEL, _Y[:3], v)),
    "detect_ranks-rank": ("rank", [0, 3], lambda v: detect_ranks(_MODEL, _Y[:3], [1, v])),
    "detect_ranks-beta": ("beta", [0.0, 1.0, -0.5, 1e-17],
                          lambda v: detect_ranks(_MODEL, _Y[:3], [1], v)),
    "detect_method-method": ("unknown method", ["PCA"], lambda v: detect_method(v, _Y, [2], _SEED)),
    "detect_method-ranks": ("ranks", [[]], lambda v: detect_method("pca", _Y, v, _SEED)),
    "detect_method-rank": ("rank", [0, 6], lambda v: detect_method("rbad", _Y, [v], _SEED)),
    "detect_method-beta": ("beta", [0.0, 1.5], lambda v: detect_method("pca", _Y, [2], _SEED, beta=v)),
    "detect_method-power_exponent": ("power_exponent", [-1],
                                     lambda v: detect_method("pca", _Y, [2], _SEED, power_exponent=v)),
    # pca, which draws nothing, never read it
    **{f"detect_method-{method}-seed": ("seed", [7, "7"],
                                        lambda v, method=method: detect_method(method, _Y, [2], v))
       for method in ("pca", "rbad", "sspbad")},
    "q_threshold-rank": ("rank", [0, 3], lambda v: q_threshold([3.0, 2.0, 1.0], v, 0.01)),
    "q_threshold-beta": ("beta", [0.0, 1.0, 2.0], lambda v: q_threshold([3.0, 2.0, 1.0], 1, v)),
    "sweep_rank-methods": ("methods", [[], ["pca", "pca"]], lambda v: _sweep(methods=v)),
    "sweep_rank-method": ("unknown method", ["PCA"], lambda v: _sweep(methods=[v])),
    "sweep_rank-rank_grid": ("rank_grid", [[]], lambda v: _sweep(rank_grid=v)),
    "sweep_rank-rank": ("rank grid value", [0, 6], lambda v: _sweep(rank_grid=[v])),
    "sweep_rank-trials": ("trials", [0], lambda v: _sweep(trials=v)),
    "sweep_rank-workers": ("workers", [0], lambda v: _sweep(workers=v)),
    "sweep_rank-beta": ("beta", [0.0, 1.0], lambda v: _sweep(beta=v)),
    "sweep_rank-power_exponent": ("power_exponent", [-1], lambda v: _sweep(power_exponent=v)),
    "variance_compare-rank": ("rank", [0, 6], lambda v: variance_compare(_Y, v, _SEED)),
    "variance_compare-power_exponent": ("power_exponent", [-1],
                                        lambda v: variance_compare(_Y, 2, _SEED, v)),
    "variance_compare-seed": ("seed", [7, "7"], lambda v: variance_compare(_Y, 2, v)),
}


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_bad_scalars_raise_a_value_error_naming_the_parameter(parameter):
    prefix, out_of_range, call = PARAMETERS[parameter]
    for value in NOT_A_VALUE + out_of_range:
        _raises_naming(prefix, call, value)


# a model whose spectrum or metadata contradicts itself: each was built, and
# the metadata came back in detect_ranks' ModelSummary
BAD_MODELS = {
    "unsorted-variances": ("variances", dict(variances=[1.0, 2.0, 3.0])),
    "negative-variances": ("variances", dict(variances=[3.0, 2.0, -1e-9])),
    "pca-with-ensemble": ("ensemble", dict(ensemble=EnsembleKind.GAUSSIAN)),
    "rbad-with-ensemble": ("ensemble", dict(method="rbad", power_exponent=2,
                                            ensemble=EnsembleKind.MARKOV)),
    "sspbad-without-ensemble": ("ensemble", dict(method="sspbad")),
    "rbad-without-power_exponent": ("power_exponent", dict(method="rbad")),
    "pca-with-power_exponent": ("power_exponent", dict(power_exponent=2)),
    "sspbad-with-power_exponent": ("power_exponent", dict(method="sspbad", power_exponent=0,
                                                          ensemble=EnsembleKind.RADEMACHER)),
}


@pytest.mark.parametrize("case", BAD_MODELS)
def test_bad_models_raise_a_value_error_naming_the_field(case):
    prefix, fields = BAD_MODELS[case]
    _raises_naming(prefix, lambda: _model(**fields))


def test_model_keeps_a_read_only_copy_of_its_spectrum():
    given_ = np.array([3.0, 2.0, 1.0])
    model = _model(variances=given_)
    given_[:] = [1.0, 2.0, 3.0]
    np.testing.assert_array_equal(model.variances, [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="read-only"):
        model.variances[0] = -1.0
    # roundoff below zero, or out of order, is kept as given
    assert _model(variances=[3.0, 3.0 + 1e-11, -1e-13]).variances[2] == -1e-13


def test_an_empty_spectrum_is_named_by_its_rank():
    # the spectrum rule reads lambda_1 only when there is one
    _raises_naming("rank", q_threshold, [], 1, 0.01)
    _raises_naming("rank", lambda: SubspaceModel(np.zeros((0, 0)), [], 1, "pca", []))


# a switch takes a bool or numpy bool only: any truthy value used to center
NOT_A_BOOL = ["no", 1, None, 0, 1.0, "True", np.int64(1)]
SWITCHES = {
    "build_rbad_model-center": lambda v: build_rbad_model(_Y, 2, _SEED, center=v),
    "build_sspbad_candidates-center": lambda v: build_sspbad_candidates(_Y, 2, _SEED, center=v),
    **{f"detect_method-{method}-center":
       lambda v, method=method: detect_method(method, _Y, [2], _SEED, center=v)
       for method in ("pca", "rbad", "sspbad")},
    "sweep_rank-center": lambda v: _sweep(center=v),
}


@pytest.mark.parametrize("parameter", SWITCHES)
def test_bad_switches_raise_a_value_error_naming_the_parameter(parameter):
    for value in NOT_A_BOOL:
        _raises_naming("center", SWITCHES[parameter], value)


@pytest.mark.parametrize("call", [
    # each raised a TypeError from list(), or (a str) split it into items
    lambda: detect_ranks(_MODEL, _Y[:3], 1),
    lambda: detect_method("pca", _Y, 3, _SEED),
    lambda: sweep_rank(_config(), ["pca"], 3, 1),
    lambda: sweep_rank(_config(), None, [3], 1),
    lambda: sweep_rank(_config(), "pca", [3], 1),
], ids=["detect_ranks", "detect_method", "sweep_rank-rank_grid", "sweep_rank-methods-None",
        "sweep_rank-methods-str"])
def test_sequences_take_no_scalar_or_string(call):
    _raises_naming("ranks|rank_grid|methods", call)


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int8])
def test_numpy_integers_are_stored_as_python_ints(integer):
    cfg = ScenarioConfig(**{name: integer(value) for name, value in _CFG.items()},
                         seed=SeedSpec(integer(7), integer(1), (integer(2),)))
    assert cfg == _config(seed=SeedSpec(7, 1, (2,)))
    stored = [getattr(cfg, name) for name in _CFG] + [cfg.seed.master_seed, cfg.seed.stream_index,
                                                      *cfg.seed.branch]
    assert all(type(value) is int for value in stored)
    model = build_rbad_model(_Y, integer(2), _SEED, integer(1))
    assert type(model.rank) is int and type(model.power_exponent) is int
    assert type(_model(method="rbad", power_exponent=integer(3)).power_exponent) is int
    (report,) = detect_ranks(model, _Y, [integer(3)])
    assert type(report.model_summary.rank) is int
    rows, _ = sweep_rank(_config(), ["pca"], [integer(2)], integer(1), workers=integer(1))
    assert type(rows[0].rank) is int


@pytest.mark.parametrize("real", [np.float32, np.float64, np.int64])
def test_numpy_reals_are_stored_as_python_floats(real):
    cfg = _config(routing_density=real(1) / 4, noise_variance=real(1) / 8)
    assert type(cfg.routing_density) is float and type(cfg.noise_variance) is float
    th = q_threshold([3.0, 2.0, 1.0], 1, real(1) / 64)
    assert type(th.beta) is float and th == q_threshold([3.0, 2.0, 1.0], 1, float(real(1) / 64))
    stddev = np.float32(0.3)
    np.testing.assert_array_equal(gen_gaussian(3, 4, _SEED, stddev),
                                  gen_gaussian(3, 4, _SEED, float(stddev)))


# -- the command line ---------------------------------------------------

_SMALL_ARGV = ["--m", "12", "--n", "24", "--t", "40", "--r-true", "3", "--anomaly-count", "3"]

# the text of a bad value of each field kind, by its parser
BAD_TEXT = {
    int: ["x", "2.5", "-1"],
    float: ["x", "nan", "inf", "-1"],
    cli._parse_str_list: ["", "bogus", "pca,"],
    cli._parse_int_list: ["8,x", "", "-1", "2,,3"],  # 2 and 3 are in range at m = 12
    cli._parse_bool: ["maybe"],
    cli._parse_path: ["{tmp}/missing"],
}


def _base_argv(subcommand: str) -> list[str]:
    """A run of `subcommand` that succeeds; the field under test follows it,
    so its flag wins (a bad `--input` replaces the good one)."""
    if subcommand in ("generate", "sweep"):
        extra = ["--method", "pca", "--rank-grid", "2", "--trials", "1"] if subcommand == "sweep" else []
        return [subcommand, *_SMALL_ARGV, *extra]
    return [subcommand, "--input", "{scen}", "--rank", "2"]


CLI_FIELDS = [
    pytest.param(subcommand, field, text, id=f"{subcommand}-{field}={text}")
    for subcommand, spec in cli._SUBCOMMANDS.items()
    for field in spec.fields
    for text in BAD_TEXT[cli._FIELD_MAP[field].parse]
    if field != "output"
]


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    scen = tmp_path_factory.mktemp("cli") / "scen"
    assert cli.main(["generate", *_SMALL_ARGV, "--output", str(scen)]) == 0
    return scen


def _fails_cleanly(argv, tmp_path, scenario_dir, capsys) -> str:
    out = tmp_path / "out" / "run"
    argv = [arg.format(scen=scenario_dir, tmp=tmp_path) for arg in argv]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("subcommand, field, text", CLI_FIELDS)
def test_cli_bad_field_value_exits_1(tmp_path, scenario_dir, capsys, subcommand, field, text):
    argv = [*_base_argv(subcommand), "--" + field.replace("_", "-"), text]
    _fails_cleanly(argv, tmp_path, scenario_dir, capsys)


@pytest.mark.parametrize("argv, message", [
    (["generate", "--config", "{tmp}/missing.cfg"], "missing.cfg"),
    (["generate", "--config", "{tmp}/unknown.cfg"], "unknown config key 'turbo'"),
    (["generate", "--config", "{tmp}/repeated.cfg"], "key 'm' is set on line 1 and again on line 2"),
    (["detect"], "no input given: pass --input SCENARIO_DIR"),
    (["variances"], "no input given: pass --input SCENARIO_DIR"),
], ids=["missing-config", "unknown-key", "repeated-key", "no-source-detect", "no-source-variances"])
def test_cli_bad_config_and_sources_exit_1(tmp_path, scenario_dir, capsys, argv, message):
    (tmp_path / "unknown.cfg").write_text("turbo = yes\n")
    (tmp_path / "repeated.cfg").write_text("m = 8\nm = 9\n")
    assert message in _fails_cleanly(argv, tmp_path, scenario_dir, capsys)


@pytest.mark.parametrize("argv", [
    ["generate", "--bogus"], ["sweep", "--m"], ["defragment"], [],
], ids=["unknown-flag", "missing-value", "unknown-subcommand", "no-subcommand"])
def test_cli_usage_errors_exit_2_through_system_exit(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as rejected:
        cli.main([*argv, "--output", str(out)] if argv else argv)
    assert rejected.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()
