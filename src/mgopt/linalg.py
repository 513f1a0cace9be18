"""Factorization-backed sparse solves, a dense eigenvalue probe, MatrixMarket I/O.

Matrices are scipy CSR/CSC throughout.  ``factor`` makes complete SuperLU
decompositions with fill-reducing orderings, computed once and reused.
``K_FF`` is not factored here: ``assembly.factor_graph`` factors it along
the graph, and ``Factorization`` kind ``"graph"`` wraps that solver, so
every factorization is solved through ``Factorization.solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(ValueError):
    """A symmetric factorization hit a nonpositive pivot."""


class SingularMatrixError(ValueError):
    """A matrix was structurally or numerically singular."""


@dataclass(frozen=True, eq=False)
class Factorization:
    """Sparse factorization handle: SPD Cholesky-mode or general LU from
    ``factor``, or ``"graph"`` around any solver object with a ``solve`` method."""

    kind: str
    n: int
    _lu: object

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: factor of size {self.n}, rhs {b.shape}")
        return self._lu.solve(b)


def factor(a, kind: str = "cholesky") -> Factorization:
    """Factor a sparse matrix for repeated solves.

    ``kind="cholesky"`` expects a symmetric positive definite matrix and uses
    SuperLU in symmetric mode (MMD ordering on A+A^T, diagonal pivoting), so
    its pivots carry the LDL^T inertia; any nonpositive pivot raises
    NotPositiveDefiniteError naming the pivot.  ``kind="lu"`` is a general LU
    with COLAMD ordering.
    """
    a = a.tocsc()
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"cannot factor a {a.shape[0]}x{a.shape[1]} matrix")
    if kind == "cholesky":
        try:
            lu = spla.splu(
                a,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(f"symmetric factorization failed: {exc}") from exc
        pivots = lu.U.diagonal()
        bad = np.nonzero(pivots <= 0)[0]
        if bad.size:
            k = int(bad[0])
            orig = int(lu.perm_c[k])
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: pivot {k} (original index {orig}) "
                f"is {pivots[k]:.3e}"
            )
    elif kind == "lu":
        try:
            lu = spla.splu(a)
        except RuntimeError as exc:
            raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    else:
        raise ValueError(f"unknown factorization kind {kind!r}")
    return Factorization(kind, a.shape[0], lu)


def dense_eigs(a, cap: int = 2000) -> np.ndarray:
    """Eigenvalues of a general real matrix (dense probe, size-capped)."""
    n = a.shape[0]
    if n > cap:
        raise ValueError(f"dense eigenvalue probe capped at {cap}, got {n}")
    dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    return scipy.linalg.eigvals(dense)


def read_matrix_market(path) -> sp.csr_matrix:
    return sp.csr_matrix(scipy.io.mmread(str(path)))


def write_matrix_market(path, a) -> None:
    scipy.io.mmwrite(str(path), sp.coo_matrix(a))
