"""Matrix-kernel tests: hand-checkable cases, independent brute-force
oracles, and the algebraic invariants the detectors rely on."""

import numpy as np
import pytest

from linkanom.linalg import householder_qr, sym_eig


def row_variance(m):
    return np.var(m, axis=1, ddof=1)


class TestHouseholderQr:
    def test_identity(self):
        q, r = householder_qr(np.eye(4))
        np.testing.assert_allclose(q, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(4), atol=1e-15)

    def test_3_4_5_column(self):
        # the factor is unique up to the column's sign, which is LAPACK's
        q, r = householder_qr(np.array([[3.0], [4.0]]))
        sign = np.sign(r[0, 0])
        np.testing.assert_allclose(sign * q, [[0.6], [0.8]], atol=1e-15)
        np.testing.assert_allclose(sign * r, [[5.0]], atol=1e-15)

    def test_random_120_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(120, 120))
        q, r = householder_qr(b)
        n = b.shape[1]
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12 * n
        assert np.linalg.norm(q @ r - b) <= 1e-12 * np.linalg.norm(b)

    def test_upper_triangular(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(30, 20))
        q, r = householder_qr(b)
        assert r.shape == (20, 20)
        np.testing.assert_allclose(r, np.triu(r), atol=0)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(40, 40))
        q1, r1 = householder_qr(b)
        q2, r2 = householder_qr(b.copy())
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(r1, r2)

    def test_rank_deficient_allowed(self):
        rng = np.random.default_rng(6)
        low = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 30))
        q, r = householder_qr(low)
        assert np.max(np.abs(q.T @ q - np.eye(30))) <= 1e-12 * 30
        assert np.linalg.norm(q @ r - low) <= 1e-12 * np.linalg.norm(low)
        # trailing diagonal entries collapse to ~0 at rank 5
        assert np.max(np.abs(np.diag(r)[5:])) <= 1e-10 * np.abs(r[0, 0])

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            householder_qr(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        b = np.eye(3)
        b[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            householder_qr(b)


class TestInputDtypes:
    """Only bool, integer and real matrices are cast to float: complex
    input would lose its imaginary part, and text or objects be parsed."""

    @pytest.mark.parametrize("b", [
        pytest.param(np.array([[1 + 1j, 2], [3, 4]]), id="complex"),
        pytest.param([["1", "2"], ["3", "4"]], id="text"),
        pytest.param(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object), id="object"),
    ])
    def test_rejected_before_the_cast(self, b):
        with pytest.raises(ValueError, match=r"^b must hold real numbers, got dtype "):
            householder_qr(b)
        with pytest.raises(ValueError, match=r"^s must hold real numbers, got dtype "):
            sym_eig(b)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.int64, np.float32, np.float64])
    def test_bool_integer_and_real_accepted(self, dtype):
        s = np.array([[1, 0], [0, 1]], dtype=dtype)
        eigenvalues, _ = sym_eig(s)
        np.testing.assert_array_equal(eigenvalues, [1.0, 1.0])
        q, r = householder_qr(s)
        np.testing.assert_array_equal(np.abs(q @ r), np.eye(2))


class TestSymEig:
    def test_diagonal_input(self):
        lam, w = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(lam, [3.0, 2.0, 1.0], atol=1e-14)
        expected = np.eye(3)[:, [0, 2, 1]]
        np.testing.assert_allclose(np.abs(w), expected, atol=1e-14)  # up to column sign
        lam, w = sym_eig(np.zeros((0, 0)))
        assert lam.shape == (0,) and w.shape == (0, 0)

    def test_classic_2x2(self):
        lam, w = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-14)
        # each eigenvector is unique up to its sign, which is LAPACK's
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(w[:, 0] * np.sign(w[0, 0]), [s, s], atol=1e-14)
        np.testing.assert_allclose(w[:, 1] * np.sign(w[0, 1]), [s, -s], atol=1e-14)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(50, 50))
        s = g.T @ g
        s = 0.5 * (s + s.T)
        lam, w = sym_eig(s)
        assert np.linalg.norm(w @ np.diag(lam) @ w.T - s) <= 1e-9 * np.linalg.norm(s)
        assert np.max(np.abs(w.T @ w - np.eye(50))) <= 1e-12 * 50
        assert (np.diff(lam) <= 1e-12).all()

    def test_covariance_eigenvalues_nonnegative_and_trace(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(25, 80))
        centered = y - y.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / 79
        lam, _ = sym_eig(cov)
        assert (lam >= -1e-10).all()
        assert abs(lam.sum() - np.trace(cov)) <= 1e-9 * abs(np.trace(cov))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(12, 12))
        s = g + g.T
        _, w1 = sym_eig(s)
        _, w2 = sym_eig(s.copy())
        np.testing.assert_array_equal(w1, w2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        # LAPACK would return NaN eigenvalues without an error
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestCrossKernelInvariants:
    def test_variance_identity_projected_traffic(self):
        # row variances of W^T (Y - mu) equal the covariance eigenvalues
        rng = np.random.default_rng(13)
        y = rng.normal(size=(30, 200))
        centered = y - y.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / 199
        lam, w = sym_eig(0.5 * (cov + cov.T))
        projected_var = row_variance(w.T @ centered)
        np.testing.assert_allclose(projected_var, lam, rtol=1e-8)
