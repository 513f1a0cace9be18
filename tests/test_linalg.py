import numpy as np
import pytest
import scipy.sparse as sp

from mgopt.linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    factor,
    matvec,
)

from helpers import thomas_solve


def test_factor_solve_diagonal():
    a = sp.diags(np.arange(1.0, 6.0)).tocsr()
    f = factor(a, "cholesky")
    b = np.ones(5)
    assert np.allclose(f.solve(b), b / np.arange(1.0, 6.0), rtol=1e-14)


def test_factor_solve_1d_laplacian_vs_thomas():
    n = 50
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    a = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    x = factor(a, "cholesky").solve(b)
    x_ref = thomas_solve(off, main, off, b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_cholesky_rejects_indefinite():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefiniteError, match="pivot"):
        factor(a, "cholesky")


def test_lu_rejects_singular():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        factor(a, "lu")


def test_factor_validates_input():
    with pytest.raises(ValueError):
        factor(sp.csr_matrix((2, 3)), "lu")
    with pytest.raises(ValueError, match="kind"):
        factor(sp.identity(2).tocsr(), "qr")
    f = factor(sp.identity(3).tocsr(), "lu")
    with pytest.raises(ValueError, match="mismatch"):
        f.solve(np.ones(4))


def test_spd_solve_round_trip():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((20, 20))
    a = sp.csr_matrix(m @ m.T + 20 * np.eye(20))
    f = factor(a, "cholesky")
    x = rng.standard_normal(20)
    assert np.linalg.norm(f.solve(a @ x) - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_matvec_equals_scipy_product_bit_for_bit(fmt, index_dtype):
    # rows 3 and 7 and column 5 are empty; the kernel must leave zeros there
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((11, 9)) * (rng.random((11, 9)) < 0.4)
    dense[[3, 7]] = 0.0
    dense[:, 5] = 0.0
    a = sp.csr_matrix(dense).asformat(fmt)
    a.indptr = a.indptr.astype(index_dtype)
    a.indices = a.indices.astype(index_dtype)
    x = rng.standard_normal(9)
    out = matvec(a, x)
    assert out.dtype == np.float64 and out.shape == (11,)
    assert np.array_equal(out, a @ x)
    assert not np.any(out[[3, 7]])
    # a strided view of a vector, as a column of a C-ordered block
    block = rng.standard_normal((9, 3))
    assert np.array_equal(matvec(a, block[:, 1]), a @ block[:, 1])
    assert np.array_equal(matvec(a.T, out), a.T @ out)


def test_matvec_rejects_a_vector_of_the_wrong_size():
    a = sp.random(4, 6, density=0.5, format="csr", random_state=0)
    for x in (np.ones(5), np.ones(7), np.ones((6, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matvec(a, x)
