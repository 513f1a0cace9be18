"""Shared test oracles: element-by-element assembly, tridiagonal solves, random graphs,
and a fresh interpreter with one BLAS thread.

These deliberately avoid the incidence-matrix code paths they are used to
check.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from mgopt.graphs import CombinatorialGraph, MetricGraph


def element_stiffness(mesh):
    """Dense stiffness matrix assembled interval by interval."""
    a = np.zeros((mesh.n_dof, mesh.n_dof))
    for e in range(mesh.graph.n_edges):
        dofs = mesh.edge_node_dofs(e)
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
        dofs = mesh.edge_node_dofs(e)
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
        dofs = mesh.edge_node_dofs(e)
        x = mesh.edge_node_positions(e)
        vals = np.asarray(g(e, x), dtype=float) if callable(g) else np.full(x.size, float(g[e]))
        w = mesh.h_per_edge[e] / 6.0
        for k in range(int(mesh.n_intervals[e])):
            b[dofs[k]] += w * (2 * vals[k] + vals[k + 1])
            b[dofs[k + 1]] += w * (vals[k] + 2 * vals[k + 1])
    return b


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
    base = CombinatorialGraph(n, edges, np.ones(len(edges)))
    k = int(rng.integers(1, max(2, n // 2) + 1))
    dirichlet = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
    return MetricGraph(base, lengths, dirichlet)


def graph_with_floating_triangle(lengths=(1.0,) * 6):
    """A controlled triangle 0-1-2 (Dirichlet vertex 0) next to a triangle
    3-4-5 that has no Dirichlet vertex and no edge into the first one."""
    base = CombinatorialGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (2, 0)), np.ones(6))
    return MetricGraph(base, np.asarray(lengths, dtype=float), dirichlet_nodes=(0,))


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
