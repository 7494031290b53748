"""The array rules every module applies to what a caller hands in
(`_as_matrix`, and `_as_labels` for ground truth), and the hold that
keeps numpy's bundled OpenBLAS at one thread while the package computes
(`_ONE_BLAS_THREAD`). The factorizations themselves are numpy's
(`np.linalg.qr`, `np.linalg.eigh`), called where they are used.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable

import numpy as np


def _as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """The one rule for array input: `a` as a finite float64 array with
    `ndim` dimensions. Only bool, integer and real input is cast: complex
    would lose its imaginary part, and object or string input be parsed."""
    try:
        a = np.asarray(a)
    except ValueError:  # numpy's own message names no parameter
        raise ValueError(f"{name} must be a rectangular array, not a ragged sequence") from None
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={a.ndim}")
    finite = np.isfinite(a)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise ValueError(f"{name} has {bad} non-finite values (NaN or inf)")
    return a


def _as_labels(labels) -> np.ndarray:
    """The one rule for ground-truth labels: the array rule with ndim 1,
    nonempty, every value 0 or 1 (bool included); returned as bool."""
    labels = _as_matrix(labels, "labels", ndim=1)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    bad = (labels != 0.0) & (labels != 1.0)
    if bad.any():
        raise ValueError(f"labels must be 0/1 or bool, got {labels[bad][0]:.17g}")
    return labels == 1.0


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked up
    by ctypes under numpy.libs; None when no library there exposes them."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Holds OpenBLAS, whose thread count is process-wide, at one thread
    while any holder is inside, so no result depends on the caller's count;
    the count from before the first of overlapping or nested holders is
    restored when the last one leaves. A no-op without `_openblas_threads`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._previous = 1

    def __enter__(self) -> None:
        found = _openblas_threads()
        if found is not None:
            with self._lock:
                if self._holders == 0:
                    self._previous = found[0]()
                    found[1](1)
                self._holders += 1

    def __exit__(self, *exc_info) -> None:
        found = _openblas_threads()
        if found is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    found[1](self._previous)


_ONE_BLAS_THREAD = _OneBlasThread()
