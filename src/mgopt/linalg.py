"""Factorization-backed sparse solves and the Krylov loops' matvec.

Matrices are scipy CSR/CSC throughout.  ``factor`` makes complete SuperLU
decompositions with fill-reducing orderings, computed once and reused.
``K_FF`` is not factored here: ``assembly.factor_graph`` factors it along
the graph, and a ``Factorization`` wraps that solver too, so every full
solve goes through ``Factorization.solve``; only the
nonsymmetric preconditioner's Woodbury correction reads the graph
factor's chain and vertex parts (``GraphFactor.parts``) directly.  ``matvec``
is the one sparse matrix-vector product the Krylov loops call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

# scipy's compiled matvec kernels live in a private module; only ``matvec``
# reads it, so a scipy release that moves them breaks one function
from scipy.sparse import _sparsetools


# Largest dimension of a matrix made dense: the KKT operator in oracles and
# eigenvalue probes, and the ideal preconditioner.
DENSE_CAP = 2000


_MATVEC = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}


def matvec(a, x) -> np.ndarray:
    """``a @ x`` for a float CSR or CSC matrix and a float vector, bit for bit.

    Runs the compiled kernel scipy's ``@`` dispatches to, into a zeroed
    output, without the dispatch: about 4 us less per call, which the Krylov
    loops pay thousands of times per solve.
    """
    m, n = a.shape
    if x.shape != (n,):  # the kernel reads n entries of x unchecked
        raise ValueError(f"dimension mismatch: {m}x{n} matrix, vector {x.shape}")
    out = np.zeros(m)
    _MATVEC[a.format](m, n, a.indptr, a.indices, a.data, x, out)
    return out


class NotPositiveDefiniteError(ValueError):
    """A symmetric factorization hit a nonpositive pivot."""


class SingularMatrixError(ValueError):
    """A matrix was structurally or numerically singular."""


@dataclass(frozen=True, eq=False)
class Factorization:
    """Sparse factorization handle around any solver object with a ``solve``
    method: SuperLU's from ``factor``, or the graph factor of K_FF."""

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
    return Factorization(a.shape[0], lu)

