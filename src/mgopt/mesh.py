"""Extended FE meshes: per-edge grids, global DOF ordering, the extended incidence matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import MetricGraph, same_graph


class ExtendedMesh:
    """Equidistant per-edge grids with the interior/Kirchhoff/Dirichlet DOF order.

    DOF layout: interior nodes first (edge by edge, j = 1..n_e-1 within an
    edge), then Kirchhoff vertices, then Dirichlet vertices, both in ascending
    vertex order.  Interior node (e, j) sits at arc length j*h_e from the tail
    of edge e.  Instances are immutable after construction.
    """

    def __init__(self, graph: MetricGraph, n_intervals):
        n_intervals = np.atleast_1d(np.asarray(n_intervals, dtype=int))
        if n_intervals.shape != (graph.n_edges,):
            raise ValueError("n_intervals must hold one count per edge")
        if n_intervals.size and np.any(n_intervals < 1):
            raise ValueError("each edge needs at least one interval")
        self.graph = graph
        self.n_intervals = n_intervals
        self.h_per_edge = graph.lengths / n_intervals
        self.interval_offsets = np.concatenate(([0], np.cumsum(n_intervals)))
        self.interior_offsets = np.concatenate(([0], np.cumsum(n_intervals - 1)))
        self.n_interior = int(self.interior_offsets[-1])
        self.kirchhoff_vertices = np.array(graph.kirchhoff_nodes, dtype=int)
        self.dirichlet_vertices = np.array(graph.dirichlet_nodes, dtype=int)
        vertex_dof = np.empty(graph.n_vertices, dtype=int)
        vertex_dof[self.kirchhoff_vertices] = self.n_interior + np.arange(
            self.kirchhoff_vertices.size
        )
        vertex_dof[self.dirichlet_vertices] = (
            self.n_interior + self.kirchhoff_vertices.size + np.arange(self.dirichlet_vertices.size)
        )
        self.vertex_dof = vertex_dof
        # the DOFs of every edge's tail and head vertex, one row per edge
        self.end_dofs = vertex_dof[np.asarray(graph.edges, dtype=int).reshape(-1, 2)]
        self.n_dof = self.n_interior + graph.n_vertices

    @property
    def n_free(self) -> int:
        return self.n_dof - self.dirichlet_vertices.size

    @property
    def h_max(self) -> float:
        return float(self.h_per_edge.max()) if self.h_per_edge.size else 0.0

    def edge_node_positions(self, e: int) -> np.ndarray:
        """Arc-length positions of the grid nodes of edge e, from the tail."""
        ne = int(self.n_intervals[e])
        return np.arange(ne + 1) * self.h_per_edge[e]


def build_mesh(graph: MetricGraph, n_e: int) -> ExtendedMesh:
    """Uniform mesh with n_e intervals on every edge."""
    if n_e < 1:
        raise ValueError("n_e must be at least 1")
    return ExtendedMesh(graph, np.full(graph.n_edges, n_e, dtype=int))


@dataclass(frozen=True, eq=False)
class PiecewiseLinearFunction:
    """Continuous piecewise-linear function given by nodal values in DOF order."""

    mesh: ExtendedMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_dof,):
            raise ValueError(f"expected {self.mesh.n_dof} nodal values, got {vals.shape}")
        object.__setattr__(self, "values", vals)


def _interval_index(mesh: ExtendedMesh) -> np.ndarray:
    """Position of every interval on its edge, counted from the edge tail."""
    return np.arange(int(mesh.interval_offsets[-1])) - np.repeat(
        mesh.interval_offsets[:-1], mesh.n_intervals
    )


def interval_end_dofs(mesh: ExtendedMesh) -> tuple[np.ndarray, np.ndarray]:
    """DOFs at the tail-side and head-side end of every interval.

    Intervals are in the column order of the extended incidence matrix
    (edge by edge, counted from the edge tail).  This is the one map from
    intervals to DOFs; the incidence matrix, the loads, the objective,
    ``nodal_values`` and the prolongation are built from it.
    """
    n = mesh.n_intervals
    k = _interval_index(mesh)
    interior = np.repeat(mesh.interior_offsets[:-1], n) + k
    tail = np.where(k == 0, np.repeat(mesh.end_dofs[:, 0], n), interior - 1)
    head = np.where(k == np.repeat(n - 1, n), np.repeat(mesh.end_dofs[:, 1], n), interior)
    return tail, head


def extended_incidence(mesh: ExtendedMesh, by_dof: bool = True) -> sp.csr_matrix:
    """Extended incidence matrix of the refined graph, rows in global DOF order.

    Column k is the k-th interval as ordered by ``interval_end_dofs``: -1 at
    its tail-side DOF, +1 at its head-side DOF.  ``by_dof`` is kept for
    callers that pass ``by_dof=True``; the row order is always the DOF order.
    """
    if not by_dof:
        raise ValueError("the extended incidence matrix is built in DOF order only (by_dof=True)")
    tail, head = interval_end_dofs(mesh)
    rows = np.column_stack((tail, head)).ravel()
    cols = np.repeat(np.arange(tail.size), 2)
    data = np.tile([-1.0, 1.0], tail.size)
    return sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_dof, tail.size)).tocsr()


def interval_samples(mesh: ExtendedMesh, g) -> tuple[np.ndarray, np.ndarray]:
    """Values of edgewise data g at the tail-side and head-side end of every interval.

    g may be a scalar, an array of per-edge constants, or a callable
    ``g(edge, x)`` evaluated at arc-length positions x from the edge tail.
    Each edge is sampled on its own, so data that jumps at a vertex keeps
    every edge's own value there.  Intervals are ordered as in
    ``interval_end_dofs``.
    """
    n_total = int(mesh.interval_offsets[-1])
    if np.isscalar(g):
        vals = np.full(n_total, float(g))
        return vals, vals
    if not callable(g):
        per_edge = np.asarray(g, dtype=float)
        if per_edge.shape != (mesh.graph.n_edges,):
            raise ValueError("per-edge data must hold one value per edge")
        vals = np.repeat(per_edge, mesh.n_intervals)
        return vals, vals
    tail, head = np.empty(n_total), np.empty(n_total)
    for e in range(mesh.graph.n_edges):
        vals = np.asarray(g(e, mesh.edge_node_positions(e)), dtype=float)
        ne = int(mesh.n_intervals[e])
        if vals.shape != (ne + 1,):
            raise ValueError(f"sampler returned {vals.shape} values for edge {e}")
        if not np.isfinite(vals).all():
            raise ValueError(f"sampler returned a non-finite value on edge {e}")
        cols = slice(mesh.interval_offsets[e], mesh.interval_offsets[e + 1])
        tail[cols] = vals[:-1]
        head[cols] = vals[1:]
    return tail, head


def nodal_values(mesh: ExtendedMesh, g) -> np.ndarray:
    """Nodal interpolant coefficients of edgewise data g.

    g takes the forms ``interval_samples`` accepts.  Vertex values average
    the incident-edge samples, which reproduces continuous data exactly.
    This interpolates; it must not be used to integrate data that jumps at
    a vertex (``M @ nodal_values(g)`` then gives the wrong load on the end
    intervals of every edge, an O(h) error): ``assembly.assemble_load``
    integrates edge by edge instead.
    """
    if np.isscalar(g):
        return np.full(mesh.n_dof, float(g))
    tail, head = interval_samples(mesh, g)
    tail_dof, head_dof = interval_end_dofs(mesh)
    acc = np.bincount(tail_dof, tail, mesh.n_dof) + np.bincount(head_dof, head, mesh.n_dof)
    cnt = np.bincount(tail_dof, minlength=mesh.n_dof) + np.bincount(head_dof, minlength=mesh.n_dof)
    # interior nodes end two intervals of one edge and get their sample back
    # exactly; isolated vertices carry no data and stay 0
    return np.divide(acc, cnt, out=np.zeros(mesh.n_dof), where=cnt > 0)


def prolong(coarse: PiecewiseLinearFunction, fine_mesh: ExtendedMesh) -> PiecewiseLinearFunction:
    """Exact nodal interpolation onto an edgewise-nested refinement.

    Piecewise-linear functions are unchanged as elements of H^1, so the
    interpolated values reproduce the function exactly; requires each coarse
    interval count to divide the fine one.
    """
    cmesh = coarse.mesh
    if not same_graph(cmesh.graph, fine_mesh.graph):
        raise ValueError("meshes live on different graphs")
    ratios = fine_mesh.n_intervals // cmesh.n_intervals
    if np.any(fine_mesh.n_intervals != ratios * cmesh.n_intervals):
        raise ValueError("fine mesh does not refine the coarse mesh edgewise")
    # fine interval k of an edge lies in coarse interval k // rho, starting
    # at the fraction (k % rho) / rho of it
    rho = np.repeat(ratios, fine_mesh.n_intervals)
    k = _interval_index(fine_mesh)
    coarse_col = np.repeat(cmesh.interval_offsets[:-1], fine_mesh.n_intervals) + k // rho
    c_tail, c_head = interval_end_dofs(cmesh)
    a = coarse.values[c_tail[coarse_col]]
    b = coarse.values[c_head[coarse_col]]
    out = np.empty(fine_mesh.n_dof)
    # every interior DOF is the tail of one fine interval; vertex DOFs are
    # then copied so that they keep the coarse vertex values exactly
    out[interval_end_dofs(fine_mesh)[0]] = a + (b - a) * ((k % rho) / rho)
    out[fine_mesh.vertex_dof] = coarse.values[cmesh.vertex_dof]
    return PiecewiseLinearFunction(fine_mesh, out)
