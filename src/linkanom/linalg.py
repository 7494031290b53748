"""Dense real-matrix kernels: Householder QR and symmetric
eigendecomposition (LAPACK through numpy). Column signs are LAPACK's;
every caller uses a factor only through its span.

All matrices are 2-D, finite float64 numpy arrays. Every function here is
pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "householder_qr",
    "sym_eig",
]


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


def householder_qr(b) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization of a tall or square matrix (LAPACK geqrf,
    Householder reflections, through numpy).

    Returns (q, r) with q (m x n) having orthonormal columns, r (n x n)
    upper triangular, and q @ r == b up to roundoff; the signs of r's
    diagonal (and of q's columns) are LAPACK's. Rank-deficient input is
    allowed and yields near-zero diagonal entries in r.
    """
    b = _as_matrix(b, "b")
    m, n = b.shape
    if m < n:
        raise ValueError(f"householder_qr needs rows >= cols, got shape {b.shape}")
    return np.linalg.qr(b)


# relative asymmetry max|s - s^T| / max|s| that sym_eig accepts
_SYMMETRY_TOL = 1e-10


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix (LAPACK syevd through
    numpy's eigh).

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending,
    column j of eigenvectors paired with eigenvalues[j]. The columns are
    orthonormal; their signs are LAPACK's.
    """
    s = _as_matrix(s, "s")
    n, n2 = s.shape
    if n != n2:
        raise ValueError(f"sym_eig needs a square matrix, got shape {s.shape}")
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    if scale > 0.0:
        asym = float(np.max(np.abs(s - s.T)))
        if asym > _SYMMETRY_TOL * scale:
            raise ValueError(
                f"matrix is not symmetric: max |s - s^T| = {asym:.3e} "
                f"exceeds {_SYMMETRY_TOL:.0e} * max|s|"
            )
    eigenvalues, vectors = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]
