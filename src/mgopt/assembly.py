"""Assembly of the FE operators on extended meshes and their block partition.

The stiffness matrix is built from the extended incidence matrix as
E W_E E^T with W_E = blkdiag{(1/h_e) I}, the mass matrix from its absolute
value as (|E| W |E|^T + its diagonal)/6 with W = blkdiag{h_e I}; a per-edge
coefficient in the interval weights yields the potential mass matrix.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import linalg
from .mesh import (
    ExtendedMesh,
    extended_incidence,
    interval_end_dofs,
    interval_samples,
    nodal_values,
)


class SingularOperatorError(ValueError):
    """The free-node system matrix is not invertible (no coercivity)."""


Blocks = namedtuple("Blocks", ["ff", "fd", "df", "dd"])

# The beta-independent part of the matched nonsymmetric preconditioner:
# ``gram`` is K_FD^T C^{-1} K_FD (n_D x n_D, C = K_FF M_FF^{-1} K_FF) and
# ``block`` is the dense n_f x n_D C^{-1} K_FD, or None above the threshold.
SchurLowRank = namedtuple("SchurLowRank", ["gram", "block"])

# Most controls for which the Woodbury correction of the matched
# nonsymmetric preconditioner keeps C^{-1} K_FD as a dense n_f x n_D block
# (one GEMV per apply); beyond it the apply recomputes C^{-1} K_FD z with two
# more solves with the shared K_FF factor and no n_f x n_D array exists.  The
# two forms agree to ~1e-15 relative.  The GEMV grows with n_D and the
# solves do not, and both grow with n_f, so the crossover is a control count.
# CPU time of one whole apply, dense vs recompute, on fdmL:40 (one BLAS
# thread, 2-core x86 host, two runs, medians of 10 x 10 applies):
#   n_f 147k: n_D 12 12.4 vs 20.9 ms; 60 18.8-19.3 vs 20.7-21.4; 80 22.1-22.6
#             vs 22.8-23.7; 100 24.2-24.4 vs 19.8-23.5; 150 28.0 vs 19.2
#   n_f  36k: n_D 60 3.9 vs 4.9-5.3 ms; 80 2.9-3.1 vs 3.0-3.7; 100 3.6-4.1
#             vs 3.4-4.4; 200 6.7 vs 3.2; 400 12.7-14.1 vs 3.8-5.2
# and on fdmL:10, ne 512 (n_f 66k, n_D 12) 3.8 vs 7.5 ms.  Above the
# crossover the block would also hold n_f * n_D doubles (118 MB at
# n_f 147k, n_D 100) for no gain.
SCHUR_DENSE_MAX_CONTROLS = 80


def _per_edge(mesh: ExtendedMesh, value, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(mesh.graph.n_edges, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (mesh.graph.n_edges,):
        raise ValueError(f"{name} must be a scalar or one value per edge")
    return arr


def assemble_stiffness(mesh: ExtendedMesh) -> sp.csr_matrix:
    """Stiffness matrix of the refined graph in global DOF order."""
    et = extended_incidence(mesh)
    w = np.repeat(1.0 / mesh.h_per_edge, mesh.n_intervals)
    return (et @ sp.diags(w) @ et.T).tocsr()


def assemble_mass(mesh: ExtendedMesh, coefficient=1.0) -> sp.csr_matrix:
    """Mass matrix, optionally weighted by a nonnegative per-edge coefficient."""
    c = _per_edge(mesh, coefficient, "coefficient")
    if np.any(c < 0):
        raise ValueError("mass coefficient must be nonnegative")
    et_abs = abs(extended_incidence(mesh))
    w = np.repeat(c * mesh.h_per_edge, mesh.n_intervals)
    b = (et_abs @ sp.diags(w) @ et_abs.T).tocsr()
    return ((b + sp.diags(b.diagonal())) / 6.0).tocsr()


def assemble_load(mesh: ExtendedMesh, g, mass=None) -> np.ndarray:
    """Load vector (g, phi_i) of edgewise data g.

    Scalar data is the mass matrix times a constant, exact; the edgewise sum
    below is exact too but rounds differently, which moves MINRES iteration
    counts by one or two on some benchmark seeds.  Other data is
    integrated edge by edge: every interval's local mass matrix times the
    samples of g at its two ends, taken on its own edge, scatter-added into
    the global vector.  That is exact whenever g is linear on each interval,
    including per-edge constants that jump at a vertex, and carries the
    usual O(h^2) consistency error for smooth samplers.  The mass matrix
    times vertex-averaged ``nodal_values`` interpolates such data but must
    not integrate it: it is O(h) wrong on the end intervals of every edge.
    """
    if np.isscalar(g):
        if mass is None:
            mass = assemble_mass(mesh)
        return mass @ nodal_values(mesh, g)
    tail, head = interval_samples(mesh, g)
    tail_dof, head_dof = interval_end_dofs(mesh)
    w = np.repeat(mesh.h_per_edge, mesh.n_intervals) / 6.0
    return np.bincount(tail_dof, w * (2.0 * tail + head), mesh.n_dof) + np.bincount(
        head_dof, w * (tail + 2.0 * head), mesh.n_dof
    )


def l2_distance_sq(mesh: ExtendedMesh, y, g) -> float:
    """||y - g||^2_{L2} of nodal values y and edgewise data g, interval by interval.

    g is sampled on each edge on its own, as in ``assemble_load``; exact
    whenever g is linear on each interval.
    """
    y = np.asarray(y, dtype=float)
    tail, head = interval_samples(mesh, g)
    tail_dof, head_dof = interval_end_dofs(mesh)
    a = y[tail_dof] - tail
    b = y[head_dof] - head
    h = np.repeat(mesh.h_per_edge, mesh.n_intervals)
    return float(h @ (a * a + a * b + b * b)) / 3.0


def partition_blocks(matrix, mesh: ExtendedMesh) -> Blocks:
    """FF/FD/DF/DD views of a DOF-ordered operator (free = interior + Kirchhoff)."""
    nf = mesh.n_free
    csr = matrix.tocsr()
    top = csr[:nf].tocsc()
    bottom = csr[nf:].tocsc()
    return Blocks(
        ff=top[:, :nf].tocsr(),
        fd=top[:, nf:].tocsr(),
        df=bottom[:, :nf].tocsr(),
        dd=bottom[:, nf:].tocsr(),
    )


@dataclass(frozen=True)
class ProblemData:
    """Regularization weight and edgewise problem data.

    c0 is a nonnegative per-edge constant (or one scalar); f and ybar may be
    scalars, per-edge constants, or nodal samplers ``g(edge, x)``.  Data may
    jump at a vertex: each edge's loads are integrated from its own values.
    """

    beta: float
    c0: object = 0.0
    f: object = 0.0
    ybar: object = 0.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"regularization weight must be positive, got {self.beta}")
        c0 = self.c0
        if np.isscalar(c0):
            if c0 < 0:
                raise ValueError("potential coefficient c0 must be nonnegative")
        elif np.any(np.asarray(c0, dtype=float) < 0):
            raise ValueError("potential coefficient c0 must be nonnegative")


@dataclass(eq=False)
class FeOperators:
    """Assembled operators, their free/Dirichlet blocks, and load vectors."""

    mesh: ExtendedMesh
    data: ProblemData
    A: sp.csr_matrix
    M: sp.csr_matrix
    M_c0: sp.csr_matrix
    K: sp.csr_matrix
    K_FF: sp.csr_matrix
    K_FD: sp.csr_matrix
    K_DF: sp.csr_matrix
    K_DD: sp.csr_matrix
    M_FF: sp.csr_matrix
    M_FD: sp.csr_matrix
    M_DF: sp.csr_matrix
    M_DD: sp.csr_matrix
    f_vec: np.ndarray
    ybar_vec: np.ndarray
    _kff: linalg.Factorization | None = field(default=None, repr=False)
    _schur_low_rank: SchurLowRank | None = field(default=None, repr=False)

    @property
    def n_free(self) -> int:
        return self.mesh.n_free

    @property
    def n_dirichlet(self) -> int:
        return self.mesh.dirichlet_vertices.size

    @property
    def f_F(self) -> np.ndarray:
        return self.f_vec[: self.n_free]

    @property
    def f_D(self) -> np.ndarray:
        return self.f_vec[self.n_free :]

    @property
    def ybar_F(self) -> np.ndarray:
        return self.ybar_vec[: self.n_free]

    @property
    def ybar_D(self) -> np.ndarray:
        return self.ybar_vec[self.n_free :]

    def require_coercive(self) -> None:
        """Raise SingularOperatorError if a graph component has no Dirichlet node and c0 = 0."""
        floating = floating_components(self.mesh, self.data.c0)
        if floating:
            raise SingularOperatorError(
                f"operator not coercive: {len(floating)} component(s) with no Dirichlet "
                f"node and zero potential; the first holds vertices {floating[0][:8].tolist()}"
            )

    def kff_factor(self) -> linalg.Factorization:
        """Cached Cholesky-mode factorization of K_FF, shared by all solves."""
        if self._kff is None:
            self.require_coercive()
            try:
                self._kff = linalg.factor(self.K_FF, "cholesky")
            except (linalg.NotPositiveDefiniteError, linalg.SingularMatrixError) as exc:
                raise SingularOperatorError(f"operator not coercive: {exc}") from exc
        return self._kff

    def c_solve(self, v) -> np.ndarray:
        """C^{-1} v for C = K_FF M_FF^{-1} K_FF: two solves with the shared K_FF factor."""
        kff = self.kff_factor()
        return kff.solve(self.M_FF @ kff.solve(v))

    def schur_low_rank(self) -> SchurLowRank:
        """Cached beta-independent blocks of the matched Schur approximation.

        Builds the n_D x n_D Gram matrix K_FD^T C^{-1} K_FD one control at a
        time, each column from one C^{-1} K_FD e_j, and keeps those columns as
        the dense n_f x n_D block C^{-1} K_FD only for at most
        ``SCHUR_DENSE_MAX_CONTROLS`` controls.  Built once per operator set.
        """
        if self._schur_low_rank is None:
            n_f, n_d = self.n_free, self.n_dirichlet
            kfd = self.K_FD.tocsc()
            gram = np.empty((n_d, n_d))
            block = np.empty((n_f, n_d), order="F") if n_d <= SCHUR_DENSE_MAX_CONTROLS else None
            column = np.zeros(n_f)
            for j in range(n_d):
                rows = kfd.indices[kfd.indptr[j] : kfd.indptr[j + 1]]
                column[rows] = kfd.data[kfd.indptr[j] : kfd.indptr[j + 1]]
                c = self.c_solve(column)
                column[rows] = 0.0
                # K_DF is K_FD^T exactly: K is assembled symmetric.
                gram[:, j] = self.K_DF @ c
                if block is not None:
                    block[:, j] = c
            self._schur_low_rank = SchurLowRank(gram, block)
        return self._schur_low_rank

    def cinv_kfd(self, s) -> np.ndarray:
        """C^{-1} K_FD s: from the cached dense block, or by two more K_FF solves."""
        block = self.schur_low_rank().block
        if block is not None:
            return block @ s
        return self.c_solve(self.K_FD @ s)

    def l2_inner(self, a, b) -> float:
        return float(np.asarray(a) @ (self.M @ np.asarray(b)))

    def l2_norm(self, v) -> float:
        return float(np.sqrt(max(self.l2_inner(v, v), 0.0)))

    def h1_seminorm(self, v) -> float:
        v = np.asarray(v)
        return float(np.sqrt(max(v @ (self.A @ v), 0.0)))

    def h1_norm(self, v) -> float:
        return float(np.sqrt(self.l2_norm(v) ** 2 + self.h1_seminorm(v) ** 2))


def floating_components(mesh: ExtendedMesh, c0) -> list[np.ndarray]:
    """Vertex sets of the graph components with no Dirichlet vertex and c0 = 0.

    The state operator K = A + M_c0 is singular exactly when such a component
    exists: constants on it lie in its kernel.  Found from the graph, since a
    factorization may meet the zero pivot only up to roundoff.
    """
    g = mesh.graph
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2)
    adjacency = sp.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(g.n_vertices, g.n_vertices)
    )
    n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    anchored = np.zeros(n_comp, dtype=bool)
    anchored[labels[mesh.dirichlet_vertices]] = True
    anchored[labels[edges[_per_edge(mesh, c0, "c0") > 0, 0]]] = True
    return [np.flatnonzero(labels == k) for k in np.flatnonzero(~anchored)]


def build_operators(mesh: ExtendedMesh, data: ProblemData) -> FeOperators:
    """Assemble A, M, M_c0, K = A + M_c0, their blocks, and the load vectors."""
    a = assemble_stiffness(mesh)
    m = assemble_mass(mesh)
    m_c0 = assemble_mass(mesh, data.c0)
    k = (a + m_c0).tocsr()
    kb = partition_blocks(k, mesh)
    mb = partition_blocks(m, mesh)
    return FeOperators(
        mesh=mesh,
        data=data,
        A=a,
        M=m,
        M_c0=m_c0,
        K=k,
        K_FF=kb.ff,
        K_FD=kb.fd,
        K_DF=kb.df,
        K_DD=kb.dd,
        M_FF=mb.ff,
        M_FD=mb.fd,
        M_DF=mb.df,
        M_DD=mb.dd,
        f_vec=assemble_load(mesh, data.f, m),
        ybar_vec=assemble_load(mesh, data.ybar, m),
    )
