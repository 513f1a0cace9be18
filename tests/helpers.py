"""Shared test oracles: the graph Laplacian, per-edge DOF walks,
element-by-element assembly, the incidence-matrix assembly that
``build_operators`` must equal bit for bit, tridiagonal solves, the adjoint
solve, random graphs and meshes, and a fresh interpreter with one BLAS
thread.

The element-by-element oracles deliberately avoid the code paths they are
used to check.
"""

import os
import subprocess
import sys
import textwrap
from collections import namedtuple
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from mgopt.assembly import assemble_load, assemble_mass
from mgopt.graphs import MetricGraph
from mgopt.mesh import ExtendedMesh, PiecewiseLinearFunction, extended_incidence


def graph_laplacian(g):
    """Unit-weight graph Laplacian L = D - W of a graph, edge by edge."""
    n = g.n_vertices
    w = sp.lil_matrix((n, n))
    for u, v in g.edges:
        w[u, v] = w[v, u] = 1.0
    return (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()


def edge_node_dofs(mesh, e):
    """DOFs of all grid nodes along edge e, ordered from tail to head."""
    tail, head = mesh.graph.edges[e]
    ne = int(mesh.n_intervals[e])
    out = np.empty(ne + 1, dtype=int)
    out[0] = mesh.vertex_dof[tail]
    out[1:ne] = mesh.interior_offsets[e] + np.arange(ne - 1)
    out[ne] = mesh.vertex_dof[head]
    return out


def element_stiffness(mesh):
    """Dense stiffness matrix assembled interval by interval."""
    a = np.zeros((mesh.n_dof, mesh.n_dof))
    for e in range(mesh.graph.n_edges):
        dofs = edge_node_dofs(mesh, e)
        w = 1.0 / mesh.h_per_edge[e]
        for k in range(int(mesh.n_intervals[e])):
            i, j = dofs[k], dofs[k + 1]
            a[i, i] += w
            a[j, j] += w
            a[i, j] -= w
            a[j, i] -= w
    return a


def element_mass(mesh, coefficient=1.0):
    """Dense mass matrix assembled interval by interval."""
    c = np.full(mesh.graph.n_edges, float(coefficient)) if np.isscalar(coefficient) else np.asarray(coefficient)
    m = np.zeros((mesh.n_dof, mesh.n_dof))
    for e in range(mesh.graph.n_edges):
        dofs = edge_node_dofs(mesh, e)
        w = c[e] * mesh.h_per_edge[e] / 6.0
        for k in range(int(mesh.n_intervals[e])):
            i, j = dofs[k], dofs[k + 1]
            m[i, i] += 2 * w
            m[j, j] += 2 * w
            m[i, j] += w
            m[j, i] += w
    return m


def element_load(mesh, g):
    """Load vector (g, phi_i) assembled interval by interval from each edge's own samples.

    g is an array of per-edge constants or a sampler ``g(edge, x)``; the
    local mass matrix integrates its linear interpolant on each interval.
    """
    b = np.zeros(mesh.n_dof)
    for e in range(mesh.graph.n_edges):
        dofs = edge_node_dofs(mesh, e)
        x = mesh.edge_node_positions(e)
        vals = np.asarray(g(e, x), dtype=float) if callable(g) else np.full(x.size, float(g[e]))
        w = mesh.h_per_edge[e] / 6.0
        for k in range(int(mesh.n_intervals[e])):
            b[dofs[k]] += w * (2 * vals[k] + vals[k + 1])
            b[dofs[k + 1]] += w * (vals[k] + 2 * vals[k + 1])
    return b


def incidence_stiffness(mesh):
    """E W E^T with W the intervals' weights 1/h_e, E the extended incidence matrix."""
    et = extended_incidence(mesh)
    w = np.repeat(1.0 / mesh.h_per_edge, mesh.n_intervals)
    return (et @ sp.diags(w) @ et.T).tocsr()


def incidence_mass(mesh, coefficient=1.0):
    """(|E| W |E|^T + its diagonal) / 6 with W the intervals' weights c_e h_e."""
    c = np.full(mesh.graph.n_edges, float(coefficient)) if np.isscalar(coefficient) else np.asarray(coefficient)
    et_abs = abs(extended_incidence(mesh))
    w = np.repeat(c * mesh.h_per_edge, mesh.n_intervals)
    b = (et_abs @ sp.diags(w) @ et_abs.T).tocsr()
    return ((b + sp.diags(b.diagonal())) / 6.0).tocsr()


Blocks = namedtuple("Blocks", ["ff", "fd", "dd"])


def partition_blocks(matrix, mesh):
    """FF/FD/DD blocks of a DOF-ordered operator by scipy slicing: FF and DD
    in CSR, FD in CSC, each sorted by index."""
    nf = mesh.n_free
    csr = matrix.tocsr()
    top = csr[:nf].tocsc()
    return Blocks(ff=top[:, :nf].tocsr(), fd=top[:, nf:], dd=csr[nf:].tocsc()[:, nf:].tocsr())


def incidence_operators(mesh, data):
    """Every array of ``build_operators(mesh, data)``, and M, from the
    incidence-matrix assembly: M, K = A + M_c0 as scipy sums them, the blocks
    by slicing, and the loads, scalar ones as M times the constant.

    ``build_operators`` must equal these to the last bit and in storage
    order, since MINRES and unpreconditioned GMRES counts follow the bits.
    """
    m = incidence_mass(mesh)
    k = (incidence_stiffness(mesh) + incidence_mass(mesh, data.c0)).tocsr()
    kb, mb = partition_blocks(k, mesh), partition_blocks(m, mesh)

    def load(g):
        return m @ np.full(mesh.n_dof, float(g)) if np.isscalar(g) else assemble_load(mesh, g)

    return {
        "M": m, "K": k, "K_FF": kb.ff, "K_FD": kb.fd, "M_FF": mb.ff, "M_FD": mb.fd, "M_DD": mb.dd,
        "f_vec": load(data.f), "ybar_vec": load(data.ybar),
    }


def assert_same_matrix(got, want, name):
    """The same format and equal indptr, indices and data."""
    assert got.format == want.format, name
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)


def assert_same_arrays(ops, expected):
    """Each matrix of ``ops`` the same as in ``expected`` (``assert_same_matrix``);
    each vector equal.  M, which ``ops`` keeps as its blocks only, is
    assembled on the mesh."""
    for name, want in expected.items():
        got = assemble_mass(ops.mesh) if name == "M" else getattr(ops, name)
        if sp.issparse(want):
            assert_same_matrix(got, want, name)
        else:
            assert np.array_equal(got, want), name


def thomas_solve(lower, diag, upper, rhs):
    """Tridiagonal solve by forward elimination and back substitution."""
    n = len(diag)
    c = np.array(upper, dtype=float)
    d = np.array(diag, dtype=float)
    b = np.array(rhs, dtype=float)
    for i in range(1, n):
        w = lower[i - 1] / d[i - 1]
        d[i] -= w * c[i - 1]
        b[i] -= w * b[i - 1]
    x = np.empty(n)
    x[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - c[i] * x[i + 1]) / d[i]
    return x


def solve_adjoint(ops, source):
    """Solve K_FF p_F = (M source)_F with homogeneous Dirichlet values.

    ``source`` holds nodal values; K is symmetric, so the state solve's
    K_FF factorization applies.  With ``discrete_kirchhoff`` this is the
    adjoint P of criterion 2, (y, S z)_{L2} = -z^T K(P y).
    """
    nf = ops.n_free
    out = np.zeros(ops.mesh.n_dof)
    out[:nf] = ops.kff_factor().solve((assemble_mass(ops.mesh) @ source)[:nf])
    return PiecewiseLinearFunction(ops.mesh, out)


def random_metric_graph(rng, n_min=4, n_max=12, extra_edges=2, unit_lengths=False):
    """Random connected metric graph with a nonempty Dirichlet set."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.add((parent, v))
    for _ in range(extra_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = tuple(sorted(edges))
    if unit_lengths:
        lengths = np.ones(len(edges))
    else:
        lengths = rng.uniform(0.5, 2.0, len(edges))
    k = int(rng.integers(1, max(2, n // 2) + 1))
    dirichlet = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
    return MetricGraph(n, edges, lengths, dirichlet)


@st.composite
def nonuniform_meshes(draw):
    """A random connected graph, edges in random orientation, meshed with its
    own interval count on each edge, and a per-edge mass coefficient."""
    n = draw(st.integers(2, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    m = len(edges)
    lengths = draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m))
    dirichlet = draw(st.sets(st.integers(0, n - 1), max_size=n))
    counts = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    c0 = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    return ExtendedMesh(MetricGraph(n, tuple(edges), np.array(lengths), tuple(dirichlet)), counts), np.array(c0)


@st.composite
def controlled_meshes(draw):
    """A ``nonuniform_meshes`` draw with at least one control vertex, which
    anchors the connected graph also where c0 = 0; sometimes both ends of
    its first edge are controls, and sometimes c0 vanishes on every edge."""
    mesh, c0 = draw(nonuniform_meshes())
    g = mesh.graph
    dirichlet = set(g.dirichlet_nodes) | {draw(st.integers(0, g.n_vertices - 1))}
    if draw(st.booleans()):
        dirichlet |= set(g.edges[0])
    if draw(st.booleans()):
        c0 = np.zeros_like(c0)
    return ExtendedMesh(MetricGraph(g.n_vertices, g.edges, g.lengths, tuple(dirichlet)), mesh.n_intervals), c0


@st.composite
def assembly_meshes(draw):
    """A random graph for the assembly property: connected vertices, edges in
    random orientation, and up to two isolated vertices; per-edge lengths,
    interval counts from 1 and c0 (drawn so that -1/h + c0 h/6 sometimes
    cancels exactly); a Dirichlet set that sometimes holds a vertex given
    one to four spokes; and scalar, per-edge or sampled loads."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    dirichlet = draw(st.sets(st.integers(0, n - 1), max_size=n))
    hub_degree = draw(st.integers(0, 4))
    if hub_degree:
        # a Dirichlet vertex joined to vertex 0 and to hub_degree - 1 new leaves
        hub = n
        edges |= {(0, hub)} | {(hub, hub + k) for k in range(1, hub_degree)}
        dirichlet.add(hub)
        n += hub_degree
    n_isolated = draw(st.integers(0, 2))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    m = len(edges)
    lengths = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.05, 5.0), min_size=m, max_size=m))
    counts = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    c0 = draw(st.lists(st.sampled_from([0.0, 1.5, 6.0]) | st.floats(0.0, 3.0), min_size=m, max_size=m))
    graph = MetricGraph(n + n_isolated, tuple(edges), np.array(lengths), tuple(sorted(dirichlet)))
    values = st.lists(st.floats(-2.0, 2.0), min_size=2 * m, max_size=2 * m)
    a, b = np.array(draw(values)).reshape(2, -1)
    sampler = lambda e, x: a[e] + b[e] * np.sin(x)
    loads = draw(st.tuples(*[st.sampled_from([1.5, -0.5, a, sampler])] * 2))
    c0 = draw(st.sampled_from([np.array(c0), 2.0, 0.0]))
    return ExtendedMesh(graph, counts), c0, loads


def graph_with_floating_triangle(lengths=(1.0,) * 6):
    """A controlled triangle 0-1-2 (Dirichlet vertex 0) next to a triangle
    3-4-5 that has no Dirichlet vertex and no edge into the first one."""
    edges = ((0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (2, 0))
    return MetricGraph(6, edges, np.asarray(lengths, dtype=float), dirichlet_nodes=(0,))


def run_one_blas_thread(code, timeout=300):
    """Run ``code`` in a fresh interpreter with one BLAS thread; return its stdout.

    Bit-for-bit claims about BLAS products hold under one thread: with more,
    OpenBLAS splits a product by its thread count.  The test fails with the
    child's stderr if it exits nonzero, and with a timeout if it hangs.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
