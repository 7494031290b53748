"""The input contract of every public callable that takes an array: an
array of the wrong kind (complex, text or objects), of the wrong number of
dimensions, or with a NaN or inf entry raises a ValueError whose message
starts with the parameter's name, never a TypeError or a warning."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linkanom import (
    DetectionReport,
    ModelSummary,
    SubspaceModel,
    build_pca_model,
    detect_ranks,
    householder_qr,
    q_threshold,
    score,
    sym_eig,
)
from linkanom.storage import write_labels_csv, write_matrix_csv

_MODEL = build_pca_model(np.random.default_rng(3).normal(size=(3, 12)), 1)


def _report(labels: np.ndarray) -> DetectionReport:
    # one flag per label when the labels are 1-D, so the label rule itself is reached
    t = labels.shape[0] if labels.ndim == 1 else 3
    return DetectionReport(np.zeros(t), None, np.zeros(t, dtype=bool), ModelSummary("pca", 1, None, None))


def _model(**arrays) -> SubspaceModel:
    fields = {"basis": np.eye(3), "variances": np.array([3.0, 2.0, 1.0]), "mean": np.zeros(3)}
    return SubspaceModel(**(fields | arrays), rank=1, method="pca", centered=True)


# (parameter name as the message gives it, expected ndim, call with the bad array)
CALLABLES = {
    "householder_qr": ("b", 2, lambda a, path: householder_qr(a)),
    "sym_eig": ("s", 2, lambda a, path: sym_eig(a)),
    "write_matrix_csv": ("matrix", 2, lambda a, path: write_matrix_csv(a, path / "m.csv")),
    "q_threshold": ("variances", 1, lambda a, path: q_threshold(a, 1, 0.01)),
    "score": ("labels", 1, lambda a, path: score(_report(a), a)),
    "write_labels_csv": ("labels", 1, lambda a, path: write_labels_csv(a, path / "l.csv")),
    "SubspaceModel-basis": ("basis", 2, lambda a, path: _model(basis=a)),
    "SubspaceModel-variances": ("variances", 1, lambda a, path: _model(variances=a)),
    "SubspaceModel-mean": ("mean", 1, lambda a, path: _model(mean=a)),
    "build_pca_model": ("traffic y", 2, lambda a, path: build_pca_model(a, 1)),
    "detect_ranks": ("traffic y", 2, lambda a, path: detect_ranks(_MODEL, a, [1])),
}


@st.composite
def bad_arrays(draw, ndim: int) -> np.ndarray:
    kind = draw(st.sampled_from(["complex", "text", "object", "ndim", "non-finite"]))
    if kind == "ndim":
        ndim = draw(st.sampled_from([d for d in range(4) if d != ndim]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=4))
    if kind == "complex":
        return draw(hnp.arrays(complex, shape, elements=st.complex_numbers(max_magnitude=1e3)))
    if kind == "text":
        return draw(hnp.arrays("U4", shape, elements=st.text("01.-e", max_size=4)))
    a = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    if kind == "object":
        return a.astype(object)
    if kind == "non-finite":
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


@pytest.mark.parametrize("callable_", CALLABLES)
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bad_arrays_raise_a_value_error_naming_the_parameter(tmp_path, callable_, data):
    name, ndim, call = CALLABLES[callable_]
    bad = data.draw(bad_arrays(ndim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            call(bad, tmp_path)
    assert str(excinfo.value).startswith(f"{name} "), str(excinfo.value)
    assert list(tmp_path.iterdir()) == []
