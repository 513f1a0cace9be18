import numpy as np
import pytest

from mgopt.assembly import assemble_mass, assemble_stiffness
from mgopt.graphs import MetricGraph, make_fdm_L_graph, make_path, make_star
from mgopt.mesh import (
    ExtendedMesh,
    PiecewiseLinearFunction,
    build_mesh,
    extended_incidence,
    interval_end_dofs,
    interval_samples,
    nodal_values,
    prolong,
)

from helpers import edge_node_dofs, random_metric_graph


def single_edge(length=1.0):
    return MetricGraph(2, ((0, 1),), np.array([length]), (0, 1))


def test_build_mesh_dof_counts():
    assert build_mesh(single_edge(), 4).n_dof == 5
    assert build_mesh(make_star(12), 8).n_dof == 97
    # 64 interior nodes per edge on the 75-vertex lattice
    assert build_mesh(make_fdm_L_graph(10, 12, seed=0), 65).n_dof == 8395


def test_build_mesh_rejects_zero_intervals():
    with pytest.raises(ValueError):
        build_mesh(single_edge(), 0)


def test_dof_order_blocks():
    g = make_star(3)
    mesh = build_mesh(g, 4)
    # interior first (edge by edge), then the Kirchhoff center, then leaves
    assert mesh.n_interior == 9
    assert mesh.vertex_dof[0] == 9
    assert list(mesh.vertex_dof[1:]) == [10, 11, 12]
    assert mesh.n_free == 10


def nonuniform_meshes(rng, count):
    """Random graphs meshed with a different interval count on each edge."""
    for _ in range(count):
        g = random_metric_graph(rng, n_min=3, n_max=10)
        yield ExtendedMesh(g, rng.integers(1, 6, g.n_edges))


def test_extended_incidence_column_signs():
    rng = np.random.default_rng(7)
    for mesh in nonuniform_meshes(rng, 6):
        arr = extended_incidence(mesh).toarray()
        assert arr.shape == (mesh.n_dof, mesh.n_intervals.sum())
        assert np.all((arr == 0) | (arr == 1) | (arr == -1))
        assert np.all(arr.sum(axis=0) == 0)
        assert np.all(np.abs(arr).sum(axis=0) == 2)
        assert np.array_equal(extended_incidence(mesh, by_dof=True).toarray(), arr)
    # one edge, three intervals: DOFs 0, 1 interior, 2 the tail, 3 the head
    arr = extended_incidence(build_mesh(single_edge(), 3)).toarray()
    assert np.array_equal(arr, [[1, -1, 0], [0, 1, -1], [-1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="DOF order"):
        extended_incidence(mesh, by_dof=False)


def test_edge_node_positions():
    mesh = build_mesh(single_edge(2.0), 4)
    assert np.allclose(mesh.edge_node_positions(0), [0.0, 0.5, 1.0, 1.5, 2.0])
    dofs = edge_node_dofs(mesh, 0)
    assert dofs[0] == mesh.vertex_dof[0]
    assert dofs[-1] == mesh.vertex_dof[1]


def test_prolong_constant():
    g = make_star(3)
    coarse = build_mesh(g, 2)
    fine = build_mesh(g, 8)
    f = PiecewiseLinearFunction(coarse, np.full(coarse.n_dof, 3.25))
    assert np.all(prolong(f, fine).values == 3.25)


def test_prolong_hat_function():
    g = single_edge()
    coarse = build_mesh(g, 2)
    fine = build_mesh(g, 4)
    vals = np.zeros(coarse.n_dof)
    vals[coarse.interior_offsets[0]] = 1.0  # interior node 1 of edge 0
    out = prolong(PiecewiseLinearFunction(coarse, vals), fine)
    along_edge = out.values[edge_node_dofs(fine, 0)]
    assert np.array_equal(along_edge, [0.0, 0.5, 1.0, 0.5, 0.0])


def nested_mesh_pairs(rng, n_coarse, ratio):
    """(coarse, fine, ratios) pairs: uniform, then coarse counts and ratios per edge."""
    g = random_metric_graph(rng)
    yield build_mesh(g, n_coarse), build_mesh(g, n_coarse * ratio), np.full(g.n_edges, ratio)
    for _ in range(4):
        g = random_metric_graph(rng, n_min=5, n_max=10)
        counts = rng.integers(1, 5, g.n_edges)
        ratios = rng.integers(1, 6, g.n_edges)
        yield ExtendedMesh(g, counts), ExtendedMesh(g, counts * ratios), ratios


def test_prolong_restriction_identity():
    rng = np.random.default_rng(2)
    for coarse, fine, ratios in nested_mesh_pairs(rng, 3, 4):
        vals = rng.standard_normal(coarse.n_dof)
        out = prolong(PiecewiseLinearFunction(coarse, vals), fine)
        for e in range(coarse.graph.n_edges):
            c_dofs = edge_node_dofs(coarse, e)
            f_dofs = edge_node_dofs(fine, e)
            assert np.array_equal(out.values[f_dofs[:: ratios[e]]], vals[c_dofs])
        # fine vertex DOFs copy the coarse vertex values exactly
        assert np.array_equal(out.values[fine.vertex_dof], vals[coarse.vertex_dof])


def test_prolong_rejects_non_nested():
    g = single_edge()
    coarse = build_mesh(g, 3)
    fine = build_mesh(g, 4)
    f = PiecewiseLinearFunction(coarse, np.zeros(coarse.n_dof))
    with pytest.raises(ValueError, match="refine"):
        prolong(f, fine)
    other = build_mesh(make_star(2), 6)
    with pytest.raises(ValueError, match="graph"):
        prolong(f, other)


def test_prolong_preserves_norms():
    rng = np.random.default_rng(9)
    for coarse, fine, _ in nested_mesh_pairs(rng, 4, 4):
        vals = rng.standard_normal(coarse.n_dof)
        out = prolong(PiecewiseLinearFunction(coarse, vals), fine).values
        a_c, m_c = assemble_stiffness(coarse), assemble_mass(coarse)
        a_f, m_f = assemble_stiffness(fine), assemble_mass(fine)
        semi_c = vals @ (a_c @ vals)
        semi_f = out @ (a_f @ out)
        l2_c = vals @ (m_c @ vals)
        l2_f = out @ (m_f @ out)
        assert abs(semi_c - semi_f) <= 1e-12 * max(semi_c, 1.0)
        assert abs(l2_c - l2_f) <= 1e-12 * max(l2_c, 1.0)


def test_interval_end_dofs_match_extended_incidence():
    # both against the separate edge_node_dofs walk, not against each other
    rng = np.random.default_rng(4)
    for mesh in nonuniform_meshes(rng, 6):
        tail, head = interval_end_dofs(mesh)
        walk = [edge_node_dofs(mesh, e) for e in range(mesh.graph.n_edges)]
        assert np.array_equal(tail, np.concatenate([d[:-1] for d in walk]))
        assert np.array_equal(head, np.concatenate([d[1:] for d in walk]))
        et = extended_incidence(mesh).toarray()
        expected = np.zeros_like(et)
        col = 0
        for dofs in walk:
            for i, j in zip(dofs[:-1], dofs[1:]):
                expected[i, col], expected[j, col] = -1.0, 1.0
                col += 1
        assert np.array_equal(et, expected)


def test_interval_samples_keep_each_edge_value():
    mesh = ExtendedMesh(make_path(3), np.array([2, 3]))
    tail, head = interval_samples(mesh, lambda e, x: 10.0 * e + x)
    # edge 0 ends at 1.0 with value 1, edge 1 starts there with value 10
    assert np.allclose(tail, [0.0, 0.5, 10.0, 10.0 + 1 / 3, 10.0 + 2 / 3])
    assert np.allclose(head, [0.5, 1.0, 10.0 + 1 / 3, 10.0 + 2 / 3, 11.0])
    assert np.array_equal(interval_samples(mesh, np.array([1.0, 3.0]))[0], [1.0, 1.0, 3.0, 3.0, 3.0])
    # the interpolant averages the two values at the shared vertex
    assert nodal_values(mesh, lambda e, x: 10.0 * e + x)[mesh.vertex_dof[1]] == pytest.approx(5.5)


def test_nodal_values_scalar_and_per_edge():
    mesh = build_mesh(make_path(3), 2)
    assert np.all(nodal_values(mesh, 2.5) == 2.5)
    vals = nodal_values(mesh, np.array([1.0, 3.0]))
    # interior nodes carry the edge constant; the shared vertex averages
    assert vals[mesh.interior_offsets[0]] == 1.0
    assert vals[mesh.interior_offsets[1]] == 3.0
    assert vals[mesh.vertex_dof[1]] == 2.0
    assert vals[mesh.vertex_dof[0]] == 1.0


def test_nodal_values_sampler():
    mesh = build_mesh(single_edge(), 4)
    vals = nodal_values(mesh, lambda e, x: x**2)
    along = vals[edge_node_dofs(mesh, 0)]
    assert np.allclose(along, np.array([0.0, 0.25, 0.5, 0.75, 1.0]) ** 2)
    with pytest.raises(ValueError):
        nodal_values(mesh, lambda e, x: x[:-1])
    with pytest.raises(ValueError, match="sampler returned a non-finite value on edge 0"):
        nodal_values(mesh, lambda e, x: np.where(x > 0.5, np.nan, x))
