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
from scipy.linalg import lapack
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


Blocks = namedtuple("Blocks", ["ff", "fd", "dd"])


def _per_edge(mesh: ExtendedMesh, value, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(mesh.graph.n_edges, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (mesh.graph.n_edges,):
        raise ValueError(f"{name} must be a scalar or one value per edge")
    return arr


def assemble_stiffness(mesh: ExtendedMesh, incidence=None) -> sp.csr_matrix:
    """Stiffness matrix of the refined graph in global DOF order.

    ``incidence`` is the mesh's ``extended_incidence``, built here if not given.
    """
    et = extended_incidence(mesh) if incidence is None else incidence
    w = np.repeat(1.0 / mesh.h_per_edge, mesh.n_intervals)
    return (et @ sp.diags(w) @ et.T).tocsr()


def assemble_mass(mesh: ExtendedMesh, coefficient=1.0, abs_incidence=None) -> sp.csr_matrix:
    """Mass matrix, optionally weighted by a nonnegative per-edge coefficient.

    ``abs_incidence`` is |E| of the mesh's ``extended_incidence``, built here
    if not given.
    """
    c = _per_edge(mesh, coefficient, "coefficient")
    if np.any(c < 0):
        raise ValueError("mass coefficient must be nonnegative")
    et_abs = abs(extended_incidence(mesh)) if abs_incidence is None else abs_incidence
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
    """FF/FD/DD views of a symmetric DOF-ordered operator; its DF block is ``fd.T``.

    ``fd`` stays in CSC, so ``fd.T`` is CSR and its products loop over the
    n_D rows, and ``fd`` products over the n_D columns.
    """
    nf = mesh.n_free
    csr = matrix.tocsr()
    top = csr[:nf].tocsc()
    return Blocks(
        ff=top[:, :nf].tocsr(),
        fd=top[:, nf:],
        dd=csr[nf:].tocsc()[:, nf:].tocsr(),
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
        for name in ("beta", "c0", "f", "ybar"):
            value = getattr(self, name)
            if callable(value):
                continue  # sampled values are checked by mesh.interval_samples
            arr = np.asarray(value, dtype=float)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                where = f" on edge {bad[0]}" if arr.ndim else ""
                raise ValueError(f"{name} must be finite, got {arr.flat[bad[0]]}{where}")
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
    """Assembled operators, their free/Dirichlet blocks, and load vectors.

    K = A + M_c0 and M are symmetric: their DF blocks are ``K_FD.T`` and
    ``M_FD.T``.  The FD blocks are kept in CSC, so both ``K_FD`` and its
    transpose multiply by looping over the n_D controls, not the n_f free nodes.
    """

    mesh: ExtendedMesh
    data: ProblemData
    M: sp.csr_matrix
    K: sp.csr_matrix
    K_FF: sp.csr_matrix
    K_FD: sp.csc_matrix
    M_FF: sp.csr_matrix
    M_FD: sp.csc_matrix
    M_DD: sp.csr_matrix
    f_vec: np.ndarray
    ybar_vec: np.ndarray
    _kff: linalg.Factorization | None = field(default=None, repr=False)
    _condensation: VertexCondensation | None = field(default=None, repr=False)
    _mass_diagonal: tuple | None = field(default=None, repr=False)

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
        """Cached graph factorization of K_FF (see ``GraphFactor``), shared by all solves."""
        if self._kff is None:
            self.require_coercive()
            self._kff = linalg.Factorization("graph", self.n_free, factor_graph(self))
        return self._kff

    def condensation(self) -> VertexCondensation:
        """Cached condensed form of K_FF^{-1} K_FD and its Gram matrix; see ``condense``."""
        if self._condensation is None:
            self._condensation = condense(self)
        return self._condensation

    def mass_diagonal(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """Cached D_M = diag(M_FF) and M_FD^T D_M^{-1} M_FD, which do not depend on beta."""
        if self._mass_diagonal is None:
            d_m = self.M_FF.diagonal()
            self._mass_diagonal = (d_m, self.M_FD.T @ sp.diags(1.0 / d_m) @ self.M_FD)
        return self._mass_diagonal

    def l2_inner(self, a, b) -> float:
        return float(np.asarray(a) @ (self.M @ np.asarray(b)))

    def l2_norm(self, v) -> float:
        return float(np.sqrt(max(self.l2_inner(v, v), 0.0)))


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
class GraphFactor:
    """K_FF factored along the graph: the edge chains, then the Kirchhoff vertices.

    With I the interior DOFs, V the Kirchhoff and D the Dirichlet vertices,
    K_II is tridiagonal with no coupling between edges (the interior DOFs
    are numbered edge by edge) and SPD on any mesh, so ``chain`` holds its
    LAPACK dpttrf factor.  W = K_II^{-1} K_IV and Z = K_II^{-1} K_ID hold
    the two end responses of every edge; ``lift`` is [[-W, Z], [I, 0]] and
    ``s_factor`` the Cholesky-mode factor of S = K_VV - K_VI W.  A solve
    has two parts, the chain part x_I0 = K_II^{-1} b_I and the vertex part
    x_V = S^{-1}(b_V - K_VI x_I0), and is x = [x_I0; 0] + lift [x_V; 0].
    """

    chain: tuple | None  # None when there is no interior DOF
    k_vi: sp.csr_matrix
    lift: sp.csr_matrix
    s_factor: linalg.Factorization | None  # None when there is no Kirchhoff vertex

    def vertex_solve(self, b):
        return b if self.s_factor is None else self.s_factor.solve(b)

    def parts(self, b) -> tuple[np.ndarray, np.ndarray]:
        """The chain part x_I0 and the vertex part x_V of K_FF^{-1} b."""
        n_i = self.k_vi.shape[1]
        x_i0 = b[:n_i] if self.chain is None else lapack.dpttrs(*self.chain, b[:n_i])[0]
        return x_i0, self.vertex_solve(b[n_i:] - linalg.matvec(self.k_vi, x_i0))

    def join(self, x_i0, c) -> np.ndarray:
        """[x_I0; 0] + lift c, for c on the Kirchhoff and then the Dirichlet vertices."""
        x = linalg.matvec(self.lift, c)
        x[: x_i0.size] += x_i0
        return x

    def solve(self, b) -> np.ndarray:
        x_i0, x_v = self.parts(b)
        c = np.zeros(self.lift.shape[1])  # zero on the Dirichlet columns
        c[: x_v.size] = x_v
        return self.join(x_i0, c)


def factor_graph(ops: FeOperators) -> GraphFactor:
    """Static condensation of K_FF onto the Kirchhoff vertices (Kron reduction).

    One dpttrs solve with the indicators of every edge's first and last
    interior node gives all end responses, hence the sparse lift; the
    Kirchhoff rows of K_FF times its first n_K columns are S.
    """
    mesh = ops.mesh
    n_i, n_f = mesh.n_interior, ops.n_free
    n_k = n_f - n_i
    inner = np.flatnonzero(mesh.n_intervals > 1)
    first, last = mesh.interior_offsets[inner], mesh.interior_offsets[inner + 1] - 1
    # columns: every edge's response to a unit load next to its tail, its head
    ends = np.zeros((n_i, 2))
    ends[first, 0] = 1.0
    ends[last, 1] = 1.0
    chain = None
    if n_i:
        # scipy's dpttrf takes exactly n - 1 off-diagonal entries, but one when n = 1
        off = ops.K_FF.diagonal(1)[: n_i - 1] if n_i > 1 else np.zeros(1)
        chain = lapack.dpttrf(ops.K_FF.diagonal()[:n_i], off)[:2]
        ends = lapack.dpttrs(*chain, ends)[0]
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
    lift = sp.csr_matrix((data, indices, indptr), shape=(n_f, n_k + ops.n_dirichlet))
    s_factor = None
    if n_k:
        try:
            s_factor = linalg.factor(ops.K_FF[n_i:] @ lift[:, :n_k], "cholesky")
        except linalg.NotPositiveDefiniteError as exc:
            raise SingularOperatorError(f"operator not coercive: {exc}") from exc
    return GraphFactor(chain, ops.K_FF[n_i:, :n_i], lift, s_factor)


@dataclass(frozen=True, eq=False)
class VertexCondensation:
    """H = K_FF^{-1} K_FD condensed onto the Kirchhoff vertices, and H^T M_FF H.

    With the lift [Wf, Zf] and S of the graph factor and R = K_VD - K_VI Z,
    H s = Zf s + Wf S^{-1} R s = lift [S^{-1} R s; s].  H meets vectors
    y = [x_I0; 0] + lift [x_V; 0] given by the graph factor's two parts, so
    M_FF lift is never applied: with B = lift^T M_FF lift,
    lift^T M_FF y = (M_FF lift)^T [x_I0; 0] + B_V x_V, where ``mass_lift_t``
    keeps the interior columns of (M_FF lift)^T and ``b_v`` the first n_K
    columns B_V of B, both in CSR.  ``gram`` is H^T M_FF H =
    K_FD^T C^{-1} K_FD for C = K_FF M_FF^{-1} K_FF.
    """

    mass_lift_t: sp.csr_matrix
    b_v: sp.csr_matrix
    r: sp.csc_matrix
    kff: GraphFactor
    gram: np.ndarray
    _r_t: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_r_t", self.r.T)

    def h_t_mass(self, x_i0, x_v) -> np.ndarray:
        """H^T M_FF y for y = [x_I0; 0] + lift [x_V; 0]."""
        t = linalg.matvec(self.mass_lift_t, x_i0)
        t += linalg.matvec(self.b_v, x_v)
        return t[x_v.size :] + linalg.matvec(self._r_t, self.kff.vertex_solve(t[: x_v.size]))

    def minus_h(self, x_i0, x_v, s) -> np.ndarray:
        """y - H s for y = [x_I0; 0] + lift [x_V; 0], with one lift product."""
        c = np.empty(self.kff.lift.shape[1])
        np.subtract(x_v, self.kff.vertex_solve(linalg.matvec(self.r, s)), out=c[: x_v.size])
        np.negative(s, out=c[x_v.size :])
        return self.kff.join(x_i0, c)


def condense(ops: FeOperators) -> VertexCondensation:
    """Condensed K_FF^{-1} K_FD and its Gram matrix, from the graph factor of K_FF.

    The Gram matrix is [Y; I]^T B [Y; I] with B = lift^T M_FF lift and
    Y = S^{-1} R, a block of controls at a time: no K_FF solve, and no dense
    n_K x n_D array.
    """
    kff = ops.kff_factor()._lu
    n_k, n_i = kff.k_vi.shape
    n_d = ops.n_dirichlet
    r = (ops.K_FD[n_i:] - kff.k_vi @ kff.lift[:n_i, n_k:]).tocsc()
    mass_lift = ops.M_FF @ kff.lift
    b = (kff.lift.T @ mass_lift).tocsc()
    cond = VertexCondensation(
        mass_lift[:n_i].T.tocsr(), b[:, :n_k].tocsr(), r, kff, np.empty((n_d, n_d))
    )
    b_vv, b_vd, b_dv, b_dd = b[:n_k, :n_k], b[:n_k, n_k:], b[n_k:, :n_k], b[n_k:, n_k:]
    for j in range(0, n_d, 64):  # two S solves per block of 64 controls
        cols = slice(j, min(j + 64, n_d))
        y = kff.vertex_solve(r[:, cols].toarray())
        cond.gram[:, cols] = b_dv @ y + b_dd[:, cols].toarray()
        cond.gram[:, cols] += r.T @ kff.vertex_solve(b_vv @ y + b_vd[:, cols].toarray())
    return cond


def build_operators(mesh: ExtendedMesh, data: ProblemData) -> FeOperators:
    """Assemble M, K = A + M_c0 (neither term kept), their blocks, and the loads.

    The three matrices share one extended incidence matrix E and one |E|;
    each is the same to the last bit as when assembled on its own.
    """
    et = extended_incidence(mesh)
    et_abs = abs(et)
    m = assemble_mass(mesh, abs_incidence=et_abs)
    k = (assemble_stiffness(mesh, et) + assemble_mass(mesh, data.c0, et_abs)).tocsr()
    kb = partition_blocks(k, mesh)
    mb = partition_blocks(m, mesh)
    return FeOperators(
        mesh=mesh,
        data=data,
        M=m,
        K=k,
        K_FF=kb.ff,
        K_FD=kb.fd,
        M_FF=mb.ff,
        M_FD=mb.fd,
        M_DD=mb.dd,
        f_vec=assemble_load(mesh, data.f, m),
        ybar_vec=assemble_load(mesh, data.ybar, m),
    )
