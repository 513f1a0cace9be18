import json

import numpy as np
import pytest

from mgopt.graphs import (
    DIRICHLET,
    KIRCHHOFF,
    CombinatorialGraph,
    GraphFormatError,
    MetricGraph,
    fisher_yates_choice,
    load_graph_json,
    load_matrix_market,
    make_fdm_L_graph,
    make_path,
    make_star,
    metric_from_combinatorial,
)
from mgopt.mesh import build_mesh, extended_incidence

from helpers import graph_laplacian, random_metric_graph, weight_matrix


def path2():
    return CombinatorialGraph(2, ((0, 1),), np.ones(1))


def test_laplacians_two_node_path():
    g = path2()
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(graph_laplacian(g).toarray(), expected)


def test_laplacian_triangle():
    g = CombinatorialGraph(3, ((0, 1), (1, 2), (0, 2)), np.ones(3))
    lap = graph_laplacian(g).toarray()
    assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))
    assert np.allclose(lap.sum(axis=1), 0.0)


def test_laplacian_single_vertex():
    g = CombinatorialGraph(1, (), np.zeros(0))
    assert graph_laplacian(g).toarray() == np.zeros((1, 1))


def test_laplacian_symmetry_and_row_sums():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_metric_graph(rng).base
        lap = graph_laplacian(g).toarray()
        assert np.array_equal(lap, lap.T)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12


def test_incidence_matches_laplacian_unit_weights():
    # with one interval per edge the mesh incidence is the graph incidence,
    # rows in DOF order
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_metric_graph(rng)
        mesh = build_mesh(g, 1)
        e = extended_incidence(mesh)[mesh.vertex_dof]
        assert ((e @ e.T) - graph_laplacian(g)).count_nonzero() == 0


def test_make_star():
    g = make_star(3, DIRICHLET)
    assert g.n_vertices == 4
    assert g.n_edges == 3
    assert g.dirichlet_nodes == (1, 2, 3)
    assert g.kirchhoff_nodes == (0,)
    assert np.all(g.lengths == 1.0)

    single = make_star(1, DIRICHLET)
    assert single.n_edges == 1
    assert single.n_dirichlet == 1

    big = make_star(12)
    assert (big.n_vertices, big.n_edges) == (13, 12)

    kirch = make_star(4, KIRCHHOFF)
    assert kirch.n_dirichlet == 0


def test_make_star_rejects_zero_leaves():
    with pytest.raises(ValueError):
        make_star(0)


def test_make_path():
    g = make_path(5)
    assert g.n_edges == 4
    assert g.dirichlet_nodes == (0, 4)
    with pytest.raises(ValueError):
        make_path(1)


def test_fdm_L_graph_counts():
    g = make_fdm_L_graph(10, 12, seed=0)
    assert g.n_vertices == 75
    assert g.n_edges == 130
    assert g.n_dirichlet == 12
    assert np.all(g.lengths == 1.0)


def test_fdm_L_graph_deterministic():
    a = make_fdm_L_graph(10, 12, seed=5)
    b = make_fdm_L_graph(10, 12, seed=5)
    assert a.dirichlet_nodes == b.dirichlet_nodes
    c = make_fdm_L_graph(10, 12, seed=6)
    assert a.dirichlet_nodes != c.dirichlet_nodes


def test_fdm_L_graph_too_many_controls():
    with pytest.raises(ValueError):
        make_fdm_L_graph(4, 1000, seed=0)


def test_fisher_yates_bounds():
    rng = np.random.default_rng(0)
    picks = fisher_yates_choice(rng, 10, 4)
    assert len(set(picks.tolist())) == 4
    assert picks.min() >= 0 and picks.max() < 10
    with pytest.raises(ValueError):
        fisher_yates_choice(rng, 3, 5)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        CombinatorialGraph(2, ((0, 0),), np.ones(1))
    with pytest.raises(ValueError, match="duplicate"):
        CombinatorialGraph(2, ((0, 1), (1, 0)), np.ones(2))
    with pytest.raises(ValueError, match="vertex range"):
        CombinatorialGraph(2, ((0, 5),), np.ones(1))
    with pytest.raises(ValueError, match="positive"):
        CombinatorialGraph(2, ((0, 1),), np.zeros(1))
    with pytest.raises(ValueError, match="positive"):
        MetricGraph(path2(), np.zeros(1))
    with pytest.raises(ValueError):
        MetricGraph(path2(), np.ones(1), (7,))


def test_weight_lookup():
    g = CombinatorialGraph(3, ((0, 1), (1, 2)), np.array([2.0, 3.0]))
    w = weight_matrix(g)
    assert w[0, 1] == 2.0
    assert w[1, 0] == 2.0
    assert w[0, 2] == 0.0
    assert np.array_equal(np.asarray(w.sum(axis=1)).ravel(), [2.0, 5.0, 3.0])


def _write(path, text):
    path.write_text(text)
    return path


def test_load_matrix_market_pattern_path(tmp_path):
    f = _write(
        tmp_path / "g.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    g = load_matrix_market(f)
    assert g.n_vertices == 3
    assert g.edges == ((0, 1), (1, 2))
    assert np.all(g.edge_weights == 1.0)


def test_load_matrix_market_deduplicates(tmp_path):
    f = _write(
        tmp_path / "g.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 1.5\n1 2 1.5\n",
    )
    g = load_matrix_market(f)
    assert g.edges == ((0, 1),)
    assert g.edge_weights[0] == 1.5


def test_load_matrix_market_errors(tmp_path):
    with pytest.raises(GraphFormatError):
        load_matrix_market(_write(tmp_path / "bad.mtx", "not a matrix market file\n1 2 3\n"))
    with pytest.raises(GraphFormatError, match="square"):
        load_matrix_market(
            _write(tmp_path / "rect.mtx", "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n")
        )
    with pytest.raises(GraphFormatError):
        load_matrix_market(
            _write(tmp_path / "oob.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n")
        )
    with pytest.raises(GraphFormatError, match="negative"):
        load_matrix_market(
            _write(tmp_path / "neg.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -1.0\n")
        )


def test_load_matrix_market_with_coordinates(tmp_path):
    _write(tmp_path / "g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n")
    _write(tmp_path / "g_coord.mtx", "%%MatrixMarket matrix array real general\n2 2\n0.0\n3.0\n0.0\n4.0\n")
    g = load_matrix_market(tmp_path / "g.mtx")
    assert g.coordinates is not None
    assert np.array_equal(g.coordinates, [[0.0, 0.0], [3.0, 4.0]])
    mg = metric_from_combinatorial(g, n_controls=1, seed=0)
    assert mg.lengths[0] == 5.0
    assert mg.n_dirichlet == 1


def test_metric_from_combinatorial_unit_fallback():
    g = CombinatorialGraph(3, ((0, 1), (1, 2)), np.ones(2))
    mg = metric_from_combinatorial(g, n_controls=2, seed=3)
    assert np.all(mg.lengths == 1.0)
    assert mg.n_dirichlet == 2


def test_graph_json_round_trip(tmp_path):
    g = make_fdm_L_graph(4, 3, seed=2)
    dset = set(g.dirichlet_nodes)
    xy = g.base.coordinates
    payload = {
        "vertices": [
            {"id": v, "type": DIRICHLET if v in dset else KIRCHHOFF, "x": xy[v, 0], "y": xy[v, 1]}
            for v in range(g.n_vertices)
        ],
        "edges": [
            {"u": u, "v": v, "length": g.lengths[k], "weight": g.base.edge_weights[k]}
            for k, (u, v) in enumerate(g.edges)
        ],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload, default=float))
    back = load_graph_json(path)
    assert back.n_vertices == g.n_vertices
    assert back.edges == g.edges
    assert back.dirichlet_nodes == g.dirichlet_nodes
    assert np.array_equal(back.lengths, g.lengths)
    assert np.array_equal(back.base.edge_weights, g.base.edge_weights)
    assert np.array_equal(back.base.coordinates, xy)


def test_graph_json_defaults_and_errors(tmp_path):
    payload = {
        "vertices": [{"id": 0, "type": "dirichlet"}, {"id": 1}],
        "edges": [{"u": 0, "v": 1}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    g = load_graph_json(path)
    assert g.lengths[0] == 1.0
    assert g.base.edge_weights[0] == 1.0
    assert g.dirichlet_nodes == (0,)

    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph_json(path)
    path.write_text(json.dumps({"vertices": [{"id": 0, "type": "weird"}], "edges": []}))
    with pytest.raises(GraphFormatError, match="type"):
        load_graph_json(path)
