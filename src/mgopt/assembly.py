"""Assembly of the P1 operators on extended meshes, edge by edge, and their blocks.

Every interval of an edge has the same length h_e, so an operator is given
by a few numbers per edge and per vertex: the stiffness matrix by the weight
1/h_e, a mass matrix with coefficient c by c_e h_e (its entries times 1/6).
All operators share one sparse pattern per mesh (``_Pattern``): an interior
DOF's row holds itself and its two neighbours on its edge, a vertex's row
holds itself and the DOF next to it on every incident edge.
``build_operators`` forms K = A + M_c0 entry by entry on that pattern, with
no sparse product, and slices the free/Dirichlet blocks of K and M out of
one matrix of entry positions on it.

The graph factor of K_FF eliminates every edge's interior DOFs (Kron
reduction onto the vertices) and holds H = K_FF^{-1} K_FD condensed onto
them; the vertex condensation adds the parts of H^T M_FF H.  All come from
each edge's two end responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import csgraph

from . import linalg
from .mesh import ExtendedMesh, interval_end_dofs, interval_samples, nodal_values
from .mesh import extended_incidence  # noqa: F401  (mgbench traces this module attribute)

# A mass matrix's entries are its weights times 1/6: a multiplication by the
# reciprocal, as scipy's sparse ``/ 6.0`` did, for the same last bits.
_SIXTH = 1.0 / 6.0


class SingularOperatorError(ValueError):
    """The free-node system matrix is not invertible (no coercivity)."""


def _per_edge(mesh: ExtendedMesh, value, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(mesh.graph.n_edges, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (mesh.graph.n_edges,):
        raise ValueError(f"{name} must be a scalar or one value per edge")
    return arr


def _edge_chains(mesh: ExtendedMesh):
    """Per edge, the DOFs of its tail and head vertex (n_edges x 2) and its
    number of interior DOFs; the edges that have interior DOFs, and the first
    and last of those DOFs on each."""
    count = mesh.n_intervals - 1
    inner = np.flatnonzero(count)
    first, last = mesh.interior_offsets[inner], mesh.interior_offsets[inner + 1] - 1
    return mesh.end_dofs, count, inner, first, last


class _Pattern:
    """CSR storage of every P1 operator on one mesh, in DOF order.

    Row d of an interior DOF holds [d, right, left]: its diagonal, then its
    neighbours on its edge towards the head and the tail.  A vertex row
    holds one neighbour per incident edge, the DOF next to the vertex on
    that edge, taken from the highest end interval down, and the vertex's
    diagonal, placed before or after the first neighbour by which DOF is
    lower.  An isolated vertex has an empty row.

    This is the order in which a row's entries first appear when its
    intervals are walked from the highest interval index down, each interval
    giving its lower DOF first; a vertex's diagonal sums its intervals'
    weights in that same order.  Both are what the incidence-matrix products
    E W E^T and (|E| W |E|^T + diag)/6 gave, and must stay so: the scalar
    loads M @ g follow the summation order of M's rows, and the MINRES
    counts and the unpreconditioned GMRES counts follow the last bits of K,
    M and the loads (sorting M's columns moves 75 to 155 vertex entries of
    ``ybar_vec`` on the benchmark meshes).

    ``build_operators`` holds one on the mesh while it assembles and drops
    it when done; any other ``assemble_*`` call builds its own.
    """

    def __init__(self, mesh: ExtendedMesh):
        n_i, n = mesh.n_interior, mesh.n_dof
        n_v, n_edges = n - n_i, mesh.graph.n_edges
        ends, self.count, inner, first, last = _edge_chains(mesh)
        degree = np.bincount(ends.ravel() - n_i, minlength=n_v)
        length = degree + (degree > 0)
        self.indices = np.empty(3 * n_i + length.sum(), dtype=np.int32)
        self.indptr = np.empty(n + 1, dtype=np.int32)
        self.indptr[: n_i + 1] = np.arange(0, 3 * n_i + 1, 3, dtype=np.int32)
        np.cumsum(length, out=self.indptr[n_i + 1 :])
        self.indptr[n_i + 1 :] += 3 * n_i
        rows = self.indices[: 3 * n_i].reshape(-1, 3)
        rows[:, 0] = np.arange(n_i, dtype=np.int32)
        np.add(rows[:, 0], 1, out=rows[:, 1])
        np.subtract(rows[:, 0], 1, out=rows[:, 2])
        rows[first, 2] = ends[inner, 0]
        rows[last, 1] = ends[inner, 1]
        # every edge end, tails then heads: its vertex's row, the neighbour
        # DOF on the edge, and the interval at that end
        vertex = ends.T.ravel()
        beside = np.concatenate((mesh.interior_offsets[:-1], mesh.interior_offsets[1:] - 1))
        nbr = np.where(np.tile(self.count > 0, 2), beside, ends[:, ::-1].T.ravel())
        interval = np.concatenate((mesh.interval_offsets[:-1], mesh.interval_offsets[1:] - 1))
        walk = np.lexsort((-interval, vertex))
        row, nbr = vertex[walk] - n_i, nbr[walk]
        self.walk_row, self.walk_edge, self.n_vertices = row, walk % max(n_edges, 1), n_v
        start = self.indptr[n_i:-1] - 3 * n_i
        rank = np.arange(row.size) - (np.cumsum(degree) - degree)[row]
        lead = rank == 0
        below = np.zeros(n_v, dtype=bool)  # the first neighbour comes before the diagonal
        below[row[lead]] = nbr[lead] < row[lead] + n_i
        at = start[row] + rank + 1
        at[lead & below[row]] -= 1
        linked = np.flatnonzero(degree)
        diag_at = start[linked] + below[linked]
        v_cols = self.indices[3 * n_i :]
        v_cols[at] = nbr
        v_cols[diag_at] = linked + n_i
        # a vertex entry's value: its edge's off-diagonal, or the vertex's
        # diagonal, which come after all edges
        self.v_slot = np.empty_like(v_cols)
        self.v_slot[at] = self.walk_edge
        self.v_slot[diag_at] = n_edges + linked
        self.shape = (n, n)

    def vertex_sums(self, w) -> np.ndarray:
        """Every vertex's sum of its edges' weights w, in its row's order."""
        return np.bincount(self.walk_row, w[self.walk_edge], self.n_vertices)

    def matrix(self, interior_diag, off, vertex_diag) -> sp.csr_matrix:
        """The operator with these interior diagonals and off-diagonals per
        edge and diagonals per vertex."""
        data = np.empty(self.indices.size)
        chains = data[: 3 * self.count.sum()].reshape(-1, 3)
        chains[:, 0] = np.repeat(interior_diag, self.count)
        chains[:, 1] = np.repeat(off, self.count)
        chains[:, 2] = chains[:, 1]
        np.take(np.concatenate((off, vertex_diag)), self.v_slot, out=data[chains.size :])
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


def _pattern(mesh: ExtendedMesh) -> _Pattern:
    """The mesh's operator pattern: the one build_operators holds on the mesh
    while it assembles three operators on it, else a new one, not kept."""
    if mesh._operator_pattern is None:
        return _Pattern(mesh)
    return mesh._operator_pattern


def assemble_stiffness(mesh: ExtendedMesh) -> sp.csr_matrix:
    """Stiffness matrix of the refined graph in global DOF order.

    Every interval adds 1/h_e to the diagonal at both its ends and -1/h_e
    between them; stored on the mesh's operator pattern (``_Pattern``),
    which each call builds anew outside ``build_operators``.
    """
    pattern = _pattern(mesh)
    w = 1.0 / mesh.h_per_edge
    return pattern.matrix(2.0 * w, -w, pattern.vertex_sums(w))


def assemble_mass(mesh: ExtendedMesh, coefficient=1.0) -> sp.csr_matrix:
    """Mass matrix, optionally weighted by a nonnegative per-edge coefficient.

    Every interval adds c_e h_e/3 to the diagonal at both its ends and
    c_e h_e/6 between them.  Stored on the mesh's operator pattern, as the
    stiffness matrix is, so an edge with coefficient 0 keeps explicit zeros.
    """
    c = _per_edge(mesh, coefficient, "coefficient")
    if np.any(c < 0):
        raise ValueError("mass coefficient must be nonnegative")
    pattern = _pattern(mesh)
    w = c * mesh.h_per_edge
    return pattern.matrix((4.0 * w) * _SIXTH, w * _SIXTH, (2.0 * pattern.vertex_sums(w)) * _SIXTH)


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


def l2_inner(mass: sp.csr_matrix, a, b) -> float:
    """(a, b)_{L2} of nodal values a and b, given the mass matrix."""
    return float(np.asarray(a) @ (mass @ np.asarray(b)))


def l2_norm(mass: sp.csr_matrix, v) -> float:
    return float(np.sqrt(max(l2_inner(mass, v, v), 0.0)))


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
                if name in ("f", "ybar"):
                    continue  # sampled values are checked by mesh.interval_samples
                raise ValueError(f"{name} cannot be a sampler: only f and ybar are sampled")
            arr = np.asarray(value, dtype=float)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                where = f" on edge {bad[0]}" if arr.ndim else ""
                raise ValueError(f"{name} must be finite, got {arr.flat[bad[0]]}{where}")
        if not self.beta > 0:
            raise ValueError(f"regularization weight must be positive, got {self.beta}")
        if np.any(np.asarray(self.c0, dtype=float) < 0):
            raise ValueError("potential coefficient c0 must be nonnegative")


@dataclass(eq=False)
class FeOperators:
    """Assembled operators, their free/Dirichlet blocks, and load vectors.

    K = A + M_c0 and M are symmetric: their DF blocks are ``K_FD.T`` and
    ``M_FD.T``.  The FD blocks are kept in CSC, so both ``K_FD`` and its
    transpose multiply by looping over the n_D controls, not the n_f free nodes.
    M is kept as its three blocks only (``assemble_mass`` gives it whole).
    K has M's pattern, an exact cancellation kept as a stored zero.  Every
    block is a slice of that pattern, sorted by column, and K_FF and K_FD
    share their index arrays with M_FF and M_FD.
    """

    mesh: ExtendedMesh
    data: ProblemData
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
    _floating: list | None = field(default=None, repr=False)

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
        """Raise SingularOperatorError if a graph component has no Dirichlet node
        and c0 = 0; the graph is searched once and every later call looks it up."""
        if self._floating is None:
            self._floating = floating_components(self.mesh, self.data.c0)
        if self._floating:
            raise SingularOperatorError(
                f"operator not coercive: {len(self._floating)} component(s) with no Dirichlet node"
                f" and zero potential; the first holds vertices {self._floating[0][:8].tolist()}"
            )

    def kff_factor(self) -> linalg.Factorization:
        """Cached graph factorization of K_FF (see ``GraphFactor``), shared by all solves."""
        if self._kff is None:
            self.require_coercive()
            self._kff = linalg.Factorization(self.n_free, factor_graph(self))
        return self._kff

    def condensation(self) -> VertexCondensation:
        """Cached H^T M_FF and H^T M_FF H on the graph factor's H; see ``condense``."""
        if self._condensation is None:
            self._condensation = condense(self)
        return self._condensation

    def mass_diagonal(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """Cached D_M = diag(M_FF) and M_FD^T D_M^{-1} M_FD, which do not depend on beta."""
        if self._mass_diagonal is None:
            d_m = self.M_FF.diagonal()
            self._mass_diagonal = (d_m, self.M_FD.T @ sp.diags(1.0 / d_m) @ self.M_FD)
        return self._mass_diagonal


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
    the two end responses of every edge; ``lift`` is [[-W, Z], [I, 0]],
    ``s_factor`` the Cholesky-mode factor of S = K_VV - K_VI W and ``r`` is
    R = K_VD - K_VI Z.  A solve has two parts, the chain part
    x_I0 = K_II^{-1} b_I and the vertex part x_V = S^{-1}(b_V - K_VI x_I0),
    and is x = [x_I0; 0] + lift [x_V; 0].  H = K_FF^{-1} K_FD, which reads
    only K, is H s = lift [S^{-1} R s; s] (``minus_h``); ``r_t`` is R^T in CSR.
    """

    chain: tuple | None  # None when there is no interior DOF
    k_vi: sp.csr_matrix
    lift: sp.csr_matrix
    s_factor: linalg.Factorization | None  # None when there is no Kirchhoff vertex
    r: sp.csc_matrix
    r_t: sp.csr_matrix

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
        x[: self.k_vi.shape[1]] += x_i0
        return x

    def solve(self, b) -> np.ndarray:
        x_i0, x_v = self.parts(b)
        c = np.zeros(self.lift.shape[1])  # zero on the Dirichlet columns
        c[: x_v.size] = x_v
        return self.join(x_i0, c)

    def minus_h(self, x_i0, x_v, s) -> np.ndarray:
        """y - H s for y = [x_I0; 0] + lift [x_V; 0], with one lift product."""
        n_k = self.k_vi.shape[0]
        c = np.empty(self.lift.shape[1])
        np.subtract(x_v, self.vertex_solve(linalg.matvec(self.r, s)), out=c[:n_k])
        np.negative(s, out=c[n_k:])
        return self.join(x_i0, c)


def factor_graph(ops: FeOperators) -> GraphFactor:
    """Static condensation of K_FF onto the Kirchhoff vertices (Kron reduction).

    One dpttrs solve with the indicators of every edge's first and last
    interior node gives all end responses, hence the sparse lift.  K_VI
    times the lift's interior rows adds each edge's 2 x 2 block of end
    couplings times end responses on its end vertices: its Kirchhoff
    columns added to K_VV give S, its Dirichlet columns taken from K_VD
    give R.
    """
    mesh = ops.mesh
    n_i, n_f = mesh.n_interior, ops.n_free
    n_k = n_f - n_i
    end_dof, count, inner, first, last = _edge_chains(mesh)
    # columns: every edge's response to a unit load next to its tail, its head
    ends = np.zeros((n_i, 2), order="F")
    ends[first, 0] = 1.0
    ends[last, 1] = 1.0
    chain = None
    if n_i:
        # scipy's dpttrf takes exactly n - 1 off-diagonal entries, but one when n = 1
        off = ops.K_FF.diagonal(1)[: n_i - 1] if n_i > 1 else np.zeros(1)
        chain = lapack.dpttrf(ops.K_FF.diagonal()[:n_i], off)[:2]
        ends = lapack.dpttrs(*chain, ends, overwrite_b=True)[0]
    # Interior row i of the lift holds, in the column of each end of its
    # edge, that end's coupling to the edge times its response at i; the
    # -W block carries a minus sign.
    coupling = np.zeros(end_dof.shape)
    if inner.size:
        coupling[inner, 0] = np.asarray(ops.K[first, end_dof[inner, 0]]).ravel()
        coupling[inner, 1] = np.asarray(ops.K[last, end_dof[inner, 1]]).ravel()
    coupling[end_dof < n_f] *= -1.0
    data = np.empty(2 * n_i + n_k)
    indices = np.empty(2 * n_i + n_k, dtype=np.int32)
    pair_vals, pair_cols = data[: 2 * n_i].reshape(-1, 2), indices[: 2 * n_i].reshape(-1, 2)
    for side in (0, 1):
        np.multiply(np.repeat(coupling[:, side], count), ends[:, side], out=pair_vals[:, side])
        pair_cols[:, side] = np.repeat(end_dof[:, side] - n_i, count)
    data[2 * n_i :] = 1.0
    indices[2 * n_i :] = np.arange(n_k)
    # two entries on each interior row, one on each Kirchhoff row
    indptr = np.arange(n_f + 1, dtype=np.int32)
    indptr += np.minimum(indptr, n_i)
    lift = sp.csr_matrix((data, indices, indptr), shape=(n_f, n_k + ops.n_dirichlet))
    k_v = ops.K_FF[n_i:]
    k_vi = k_v[:, :n_i]
    # K_VI times the lift's interior rows: every edge end's K_VI entry times
    # the lift's two entries on the interior row next to that end
    rows = np.repeat(np.arange(n_k), 2 * np.diff(k_vi.indptr))
    at = 2 * k_vi.indices[:, None] + np.arange(2)
    cols = lift.indices[at].ravel()
    vals = (k_vi.data[:, None] * lift.data[at]).ravel()
    to_d = cols >= n_k

    def plus(block, values, row, col):
        """``block`` plus these COO entries in CSC, duplicates summed in that order."""
        b = block.tocoo()
        ij = (np.concatenate((b.row, row)), np.concatenate((b.col, col)))
        return sp.csc_matrix((np.concatenate((b.data, values)), ij), shape=b.shape)

    r = plus(ops.K_FD[n_i:], -vals[to_d], rows[to_d], cols[to_d] - n_k)
    s_factor = None
    if n_k:
        s = plus(k_v[:, n_i:], vals[~to_d], rows[~to_d], cols[~to_d])
        try:
            s_factor = linalg.factor(s, "cholesky")
        except linalg.NotPositiveDefiniteError as exc:
            raise SingularOperatorError(f"operator not coercive: {exc}") from exc
    return GraphFactor(chain, k_vi, lift, s_factor, r, r.T)


@dataclass(frozen=True, eq=False)
class VertexCondensation:
    """The parts of the Woodbury correction that M_FF enters: H^T M_FF and
    H^T M_FF H, for H = K_FF^{-1} K_FD as the graph factor ``kff`` gives it.

    H meets vectors y = [x_I0; 0] + lift [x_V; 0] given by the graph
    factor's two parts, so M_FF lift is never applied: with
    B = lift^T M_FF lift, lift^T M_FF y = (M_FF lift)^T [x_I0; 0] + B_V x_V,
    where ``mass_lift_t`` keeps the interior columns of (M_FF lift)^T and
    ``b_v`` the first n_K columns B_V of B, both in CSR.  ``gram`` is
    H^T M_FF H = K_FD^T C^{-1} K_FD for C = K_FF M_FF^{-1} K_FF.
    """

    mass_lift_t: sp.csr_matrix
    b_v: sp.csr_matrix
    kff: GraphFactor
    gram: np.ndarray

    def h_t_mass(self, x_i0, x_v) -> np.ndarray:
        """H^T M_FF y for y = [x_I0; 0] + lift [x_V; 0]."""
        t = linalg.matvec(self.mass_lift_t, x_i0)
        t += linalg.matvec(self.b_v, x_v)
        return t[x_v.size :] + linalg.matvec(self.kff.r_t, self.kff.vertex_solve(t[: x_v.size]))


def _lifted_mass(ops: FeOperators, lift):
    """The interior rows of M_FF lift, as (n_I, 2) pairs like the lift's,
    and B = lift^T M_FF lift in CSC, edge by edge.

    On an edge the lift is a map P_e from the values at the edge's two end
    vertices: p_i at its interior node i, and at each end the identity where
    the end is a Kirchhoff vertex and 0 where it is a Dirichlet vertex, whose
    DOF is not free.  The mass matrix of the edge's own intervals is
    M_e = (h_e / 6) T with T tridiagonal, 1 off the diagonal, 4 on it and 2
    at the two ends.  M_FF lift on the edge's interior is M_e P_e there, and
    B is the sum over edges of the 2 x 2 blocks P_e^T M_e P_e on the edge's
    two end columns.
    """
    mesh = ops.mesh
    n_i, n_f = mesh.n_interior, ops.n_free
    end_dof, count, inner, first, last = _edge_chains(mesh)
    scale = mesh.h_per_edge * _SIXTH
    # P_e at the tail vertex and at the head vertex, and at the interior nodes
    tail = np.zeros(end_dof.shape)
    head = np.zeros(end_dof.shape)
    tail[:, 0] = end_dof[:, 0] < n_f
    head[:, 1] = end_dof[:, 1] < n_f
    p = lift.data[: 2 * n_i].reshape(-1, 2)
    q = np.empty_like(p)
    scale_i, before, after = np.repeat(scale, count), np.empty(n_i), np.empty(n_i)
    for side in (0, 1):
        # (T P_e)_i = p_before + 4 p_i + p_after, where the node before the
        # first interior node is the tail vertex, and the one after the last
        # the head vertex
        p_s = p[:, side]
        before[1:] = p_s[:-1]
        before[first] = tail[inner, side]
        after[:-1] = p_s[1:]
        after[last] = head[inner, side]
        before += after
        np.multiply(p_s, 4.0, out=after)
        before += after
        np.multiply(scale_i, before, out=q[:, side])
    b_e = np.zeros((len(end_dof), 2, 2))  # P_e^T M_e P_e of every edge
    if n_i:
        for s, t in np.ndindex(2, 2):  # the interior nodes' sums of p_s q_t
            np.multiply(p[:, s], q[:, t], out=after)
            b_e[inner, s, t] = np.add.reduceat(after, first)
    # each end vertex adds P_e there times (M_e P_e) there: h_e / 6 times
    # 2 P_e there plus P_e at its neighbour on the edge
    next_to_tail, next_to_head = head.copy(), tail.copy()
    next_to_tail[inner] = p[first]
    next_to_head[inner] = p[last]
    b_e[:, 0] += tail[:, :1] * scale[:, None] * (2.0 * tail + next_to_tail)
    b_e[:, 1] += head[:, 1:] * scale[:, None] * (2.0 * head + next_to_head)
    cols = end_dof - n_i  # the lift columns of the edge's ends
    entries = (b_e.ravel(), (np.repeat(cols, 2, axis=1).ravel(), np.tile(cols, 2).ravel()))
    return q, sp.csc_matrix(entries, shape=(lift.shape[1],) * 2)


def condense(ops: FeOperators) -> VertexCondensation:
    """H^T M_FF and the Gram matrix H^T M_FF H, from the graph factor of K_FF.

    M_FF lift and B = lift^T M_FF lift are formed edge by edge from the
    lift's end responses; K enters only through the graph factor's lift, S
    and R.  The Gram matrix is [Y; I]^T B [Y; I] with Y = S^{-1} R, a block
    of controls at a time: no K_FF solve, and no dense n_K x n_D array.
    """
    kff = ops.kff_factor()._lu
    n_k, n_i = kff.k_vi.shape
    n_d = kff.r.shape[1]
    q, b = _lifted_mass(ops, kff.lift)
    # q has the lift's layout, so it is (M_FF lift)^T in CSC; its product
    # runs twice as fast in CSR, once per preconditioner apply
    mass_lift_t = sp.csc_matrix(
        (q.ravel(), kff.lift.indices[: 2 * n_i], kff.lift.indptr[: n_i + 1]), shape=(n_k + n_d, n_i)
    ).tocsr()
    cond = VertexCondensation(mass_lift_t, b[:, :n_k].tocsr(), kff, np.empty((n_d, n_d)))
    b_vv, b_vd, b_dv, b_dd = b[:n_k, :n_k], b[:n_k, n_k:], b[n_k:, :n_k], b[n_k:, n_k:]
    for j in range(0, n_d, 64):  # two S solves per block of 64 controls
        cols = slice(j, min(j + 64, n_d))
        y = kff.vertex_solve(kff.r[:, cols].toarray())
        cond.gram[:, cols] = b_dv @ y + b_dd[:, cols].toarray()
        cond.gram[:, cols] += kff.r_t @ kff.vertex_solve(b_vv @ y + b_vd[:, cols].toarray())
    return cond


def build_operators(mesh: ExtendedMesh, data: ProblemData) -> FeOperators:
    """Assemble K = A + M_c0 (neither term kept), its and M's blocks, and the loads.

    A and M_c0 share the mesh's pattern, so K is their sum entry by entry
    and has M's pattern; an entry that cancels exactly (-1/h + c0 h/6 = 0)
    stays stored as a zero.  The blocks are slices of one matrix on that
    pattern whose entries are their own positions, each sorted by column,
    FD in CSC.  A block of K or M takes its entries at those positions and
    the slice's index arrays, so each K block shares its M block's.  The
    pattern is kept on the mesh only while this call assembles on it.
    """
    mesh._operator_pattern = _Pattern(mesh)
    try:
        m = assemble_mass(mesh)
        k = assemble_stiffness(mesh)
        k.data += assemble_mass(mesh, data.c0).data
    finally:
        mesh._operator_pattern = None
    n_f = mesh.n_free
    at = sp.csr_matrix((np.arange(m.nnz, dtype=np.int32), m.indices, m.indptr), shape=m.shape)
    blocks = (at[:n_f, :n_f], at[:n_f, n_f:].tocsc(), at[n_f:, n_f:])
    for block in blocks:
        block.sort_indices()

    def of(full, block):
        return type(block)((full.data[block.data], block.indices, block.indptr), shape=block.shape)

    m_ff, m_fd, m_dd = (of(m, block) for block in blocks)
    k_ff, k_fd = (of(k, block) for block in blocks[:2])
    return FeOperators(
        mesh=mesh,
        data=data,
        K=k,
        K_FF=k_ff,
        K_FD=k_fd,
        M_FF=m_ff,
        M_FD=m_fd,
        M_DD=m_dd,
        f_vec=assemble_load(mesh, data.f, m),
        ybar_vec=assemble_load(mesh, data.ybar, m),
    )
