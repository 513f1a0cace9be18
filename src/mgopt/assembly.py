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
import scipy.linalg
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
    M_FF: sp.csr_matrix
    M_FD: sp.csr_matrix
    M_DF: sp.csr_matrix
    M_DD: sp.csr_matrix
    f_vec: np.ndarray
    ybar_vec: np.ndarray
    _kff: linalg.Factorization | None = field(default=None, repr=False)
    _condensation: VertexCondensation | None = field(default=None, repr=False)

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

    def condensation(self) -> VertexCondensation:
        """Cached condensed form of K_FF^{-1} K_FD and its Gram matrix; see ``condense``."""
        if self._condensation is None:
            self._condensation = condense(self)
        return self._condensation

    def l2_inner(self, a, b) -> float:
        return float(np.asarray(a) @ (self.M @ np.asarray(b)))

    def l2_norm(self, v) -> float:
        return float(np.sqrt(max(self.l2_inner(v, v), 0.0)))

    def h1_seminorm(self, v) -> float:
        v = np.asarray(v)
        return float(np.sqrt(max(v @ (self.A @ v), 0.0)))


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


@dataclass(frozen=True, eq=False)
class VertexCondensation:
    """H = K_FF^{-1} K_FD condensed onto the Kirchhoff vertices, and H^T M_FF H.

    With I the interior DOFs, V the Kirchhoff and D the Dirichlet vertices,
    W = K_II^{-1} K_IV, Z = K_II^{-1} K_ID, S = K_VV - K_VI W and
    R = K_VD - K_VI Z: H s = Zf s + Wf S^{-1} R s for the sparse lift
    [Wf, Zf] = [[-W, Z], [I, 0]].  H is only needed next to M_FF, so
    ``mass_lift`` keeps M_FF [Wf, Zf].  ``gram`` is H^T M_FF H =
    K_FD^T C^{-1} K_FD for C = K_FF M_FF^{-1} K_FF.
    """

    mass_lift: sp.csr_matrix
    r: sp.csc_matrix
    s_factor: linalg.Factorization | None  # None when there is no Kirchhoff vertex
    gram: np.ndarray

    def _vertex_solve(self, b):
        return b if self.s_factor is None else self.s_factor.solve(b)

    def mass_h(self, s) -> np.ndarray:
        """M_FF H s."""
        return self.mass_lift @ np.concatenate([self._vertex_solve(self.r @ s), s])

    def h_t_mass(self, v) -> np.ndarray:
        """H^T M_FF v."""
        t = self.mass_lift.T @ v
        n_k = self.r.shape[0]
        return t[n_k:] + self.r.T @ self._vertex_solve(t[:n_k])


def condense(ops: FeOperators) -> VertexCondensation:
    """Static condensation of K_FF^{-1} K_FD onto the Kirchhoff vertices (Kron reduction).

    K_II is tridiagonal with no coupling between edges (the interior DOFs
    are numbered edge by edge), so one banded solve with the indicators of
    every edge's first and last interior node gives all end responses.  The
    Gram matrix is [Y; I]^T B [Y; I] with B = lift^T M_FF lift and
    Y = S^{-1} R, a block of controls at a time: no K_FF solve, and no dense
    n_K x n_D array.
    """
    ops.require_coercive()
    mesh = ops.mesh
    n_i, n_f, n_d = mesh.n_interior, ops.n_free, ops.n_dirichlet
    n_k = n_f - n_i
    inner = np.flatnonzero(mesh.n_intervals > 1)
    first, last = mesh.interior_offsets[inner], mesh.interior_offsets[inner + 1] - 1
    # columns: every edge's response to a unit load next to its tail, its head
    ends = np.zeros((n_i, 2))
    ends[first, 0] = 1.0
    ends[last, 1] = 1.0
    if n_i:
        band = np.vstack([np.append(0.0, ops.K_FF.diagonal(1)[: n_i - 1]), ops.K_FF.diagonal()[:n_i]])
        # scipy's tridiagonal path fails on a 1 x 1 system: pass the diagonal alone
        ends = scipy.linalg.solveh_banded(band if n_i > 1 else band[1:], ends, check_finite=False)
    # Interior row i of the lift holds, in the column of each end of its
    # edge, that end's coupling to the edge times its response at i; the
    # -W block carries a minus sign.
    end_dof = mesh.vertex_dof[np.asarray(mesh.graph.edges, dtype=int).reshape(-1, 2)]
    coupling = np.zeros(end_dof.shape)
    if inner.size:
        coupling[inner, 0] = np.asarray(ops.K[first, end_dof[inner, 0]]).ravel()
        coupling[inner, 1] = np.asarray(ops.K[last, end_dof[inner, 1]]).ravel()
    coupling[end_dof < n_f] *= -1.0
    edge_of = np.repeat(np.arange(len(end_dof)), mesh.n_intervals - 1)
    data = np.append(coupling[edge_of] * ends, np.ones(n_k))
    indices = np.append(end_dof[edge_of] - n_i, np.arange(n_k))
    indptr = np.append(np.arange(0, 2 * n_i, 2), 2 * n_i + np.arange(n_k + 1))
    lift = sp.csr_matrix((data, indices, indptr), shape=(n_f, n_k + n_d))
    # the Kirchhoff rows of K_FF times the lift are [S, K_VI Z]
    vertex_rows = (ops.K_FF[n_i:] @ lift).tocsc()
    r = (ops.K_FD[n_i:] - vertex_rows[:, n_k:]).tocsc()
    s_factor = None
    if n_k:
        try:
            s_factor = linalg.factor(vertex_rows[:, :n_k], "cholesky")
        except linalg.NotPositiveDefiniteError as exc:
            raise SingularOperatorError(f"operator not coercive: {exc}") from exc
    cond = VertexCondensation(ops.M_FF @ lift, r, s_factor, np.empty((n_d, n_d)))
    b = (lift.T @ cond.mass_lift).tocsc()
    b_vv, b_vd, b_dv, b_dd = b[:n_k, :n_k], b[:n_k, n_k:], b[n_k:, :n_k], b[n_k:, n_k:]
    for j in range(0, n_d, 64):  # two S solves per block of 64 controls
        cols = slice(j, min(j + 64, n_d))
        y = cond._vertex_solve(r[:, cols].toarray())
        cond.gram[:, cols] = b_dv @ y + b_dd[:, cols].toarray()
        cond.gram[:, cols] += r.T @ cond._vertex_solve(b_vv @ y + b_vd[:, cols].toarray())
    return cond


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
        M_FF=mb.ff,
        M_FD=mb.fd,
        M_DF=mb.df,
        M_DD=mb.dd,
        f_vec=assemble_load(mesh, data.f, m),
        ybar_vec=assemble_load(mesh, data.ybar, m),
    )
