import json

import numpy as np
import pytest

from mgopt.graphs import (
    DIRICHLET,
    KIRCHHOFF,
    GraphFormatError,
    MetricGraph,
    fisher_yates_choice,
    load_graph_json,
    load_matrix_market,
    make_fdm_L_graph,
    make_path,
    make_star,
)
from mgopt.mesh import build_mesh, extended_incidence

from helpers import graph_laplacian, random_metric_graph, run_one_blas_thread


def test_laplacians_two_node_path():
    g = MetricGraph(2, ((0, 1),), np.ones(1))
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(graph_laplacian(g).toarray(), expected)


def test_laplacian_triangle():
    g = MetricGraph(3, ((0, 1), (1, 2), (0, 2)), np.ones(3))
    lap = graph_laplacian(g).toarray()
    assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))
    assert np.allclose(lap.sum(axis=1), 0.0)


def test_laplacian_single_vertex():
    g = MetricGraph(1, (), np.zeros(0))
    assert graph_laplacian(g).toarray() == np.zeros((1, 1))


def test_laplacian_symmetry_and_row_sums():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_metric_graph(rng)
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
    g = make_star(3)
    assert g.n_vertices == 4
    assert g.n_edges == 3
    assert g.dirichlet_nodes == (1, 2, 3)
    assert g.kirchhoff_nodes == (0,)
    assert np.all(g.lengths == 1.0)

    single = make_star(1)
    assert single.n_edges == 1
    assert single.n_dirichlet == 1

    big = make_star(12)
    assert (big.n_vertices, big.n_edges) == (13, 12)


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
    with pytest.raises(ValueError, match="at least 4"):
        make_fdm_L_graph(3)


def test_fisher_yates_bounds():
    rng = np.random.default_rng(0)
    picks = fisher_yates_choice(rng, 10, 4)
    assert len(set(picks.tolist())) == 4
    assert picks.min() >= 0 and picks.max() < 10
    with pytest.raises(ValueError):
        fisher_yates_choice(rng, 3, 5)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        MetricGraph(2, ((0, 0),), np.ones(1))
    with pytest.raises(ValueError, match="duplicate edge"):
        MetricGraph(2, ((0, 1), (1, 0)), np.ones(2))
    with pytest.raises(ValueError, match="vertex range"):
        MetricGraph(2, ((0, 5),), np.ones(1))
    with pytest.raises(ValueError, match="one value per edge"):
        MetricGraph(2, ((0, 1),), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        MetricGraph(2, ((0, 1),), np.zeros(1))
    # NaN compares false with 0, so a plain sign check would let it through
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"edge 1 \(1, 2\) has length .*finite"):
            MetricGraph(3, ((0, 1), (1, 2)), [1.0, bad])
    with pytest.raises(ValueError, match="duplicate Dirichlet"):
        MetricGraph(2, ((0, 1),), np.ones(1), (1, 1))
    with pytest.raises(ValueError, match="outside vertex range"):
        MetricGraph(2, ((0, 1),), np.ones(1), (7,))
    g = MetricGraph(3, [(2.0, 1), (0, 1)], [2, 3], [2, 0])
    assert g.edges == ((2, 1), (0, 1))
    assert g.lengths.dtype == float
    assert g.dirichlet_nodes == (0, 2) and g.kirchhoff_nodes == (1,)


def _write(path, text):
    path.write_text(text)
    return path


def test_import_leaves_scipy_io_unloaded():
    # scipy.io (its netCDF, ARFF and MATLAB readers among it) loads only when
    # a MatrixMarket file is read or written, not with every mgopt command
    out = run_one_blas_thread("import sys, mgopt; print(sorted(m for m in sys.modules if m.startswith('scipy.io')))")
    assert out.strip() == "[]"


def test_load_matrix_market_pattern_path(tmp_path):
    f = _write(
        tmp_path / "g.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    g = load_matrix_market(f, n_controls=1)
    assert g.n_vertices == 3
    assert g.edges == ((0, 1), (1, 2))
    assert np.all(g.lengths == 1.0)


def test_load_matrix_market_deduplicates(tmp_path):
    f = _write(
        tmp_path / "g.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 1.5\n1 2 1.5\n",
    )
    g = load_matrix_market(f, n_controls=1)
    assert g.edges == ((0, 1),)
    assert g.lengths[0] == 1.0
    # diagonal entries and explicit zeros are no edges
    f = _write(
        tmp_path / "loops.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n2 1 1.5\n2 2 4.0\n3 2 0.0\n",
    )
    g = load_matrix_market(f, n_controls=1)
    assert g.n_vertices == 3 and g.edges == ((0, 1),)


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
    g = load_matrix_market(tmp_path / "g.mtx", n_controls=1, seed=0)
    assert g.lengths[0] == 5.0
    assert g.n_dirichlet == 1
    # coincident vertices: a zero distance falls back to length 1
    _write(tmp_path / "z.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
    _write(tmp_path / "z_coord.mtx", "%%MatrixMarket matrix array real general\n3 2\n0\n0\n6\n0\n0\n8\n")
    assert np.array_equal(load_matrix_market(tmp_path / "z.mtx", n_controls=1).lengths, [1.0, 10.0])
    _write(tmp_path / "z_coord.mtx", "%%MatrixMarket matrix array real general\n2 2\n0\n0\n6\n0\n")
    with pytest.raises(GraphFormatError, match="3x2"):
        load_matrix_market(tmp_path / "z.mtx", n_controls=1)


def test_non_finite_lengths_are_rejected_on_load(tmp_path):
    # json reads the NaN literal; a NaN length used to fail only at the
    # factorization, as "Factor is exactly singular"
    payload = {
        "vertices": [{"id": 0, "type": "dirichlet"}, {"id": 1}, {"id": 2}],
        "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "length": float("nan")}],
    }
    f = _write(tmp_path / "g.json", json.dumps(payload))
    assert "NaN" in f.read_text()
    with pytest.raises(ValueError, match=r"edge 1 \(1, 2\) has length nan"):
        load_graph_json(f)
    _write(tmp_path / "g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
    _write(tmp_path / "g_coord.mtx", "%%MatrixMarket matrix array real general\n3 2\n0\n1\nnan\n0\n0\n0\n")
    with pytest.raises(ValueError, match=r"edge 1 \(1, 2\) has length nan"):
        load_matrix_market(tmp_path / "g.mtx", n_controls=1)


def test_load_matrix_market_unit_lengths_without_coordinates(tmp_path):
    f = _write(
        tmp_path / "g.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    g = load_matrix_market(f, n_controls=2, seed=3)
    assert np.all(g.lengths == 1.0)
    assert g.n_dirichlet == 2
    # the controls are the seeded Fisher-Yates draw
    draw = fisher_yates_choice(np.random.default_rng(3), 3, 2)
    assert g.dirichlet_nodes == tuple(draw.tolist())
    with pytest.raises(ValueError, match="cannot draw"):
        load_matrix_market(f)


def test_graph_json_round_trip(tmp_path):
    g = make_fdm_L_graph(4, 3, seed=2)
    dset = set(g.dirichlet_nodes)
    payload = {
        "vertices": [
            {"id": v, "type": DIRICHLET if v in dset else KIRCHHOFF}
            for v in reversed(range(g.n_vertices))
        ],
        "edges": [
            {"u": u, "v": v, "length": g.lengths[k]}
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


def test_graph_json_defaults_and_errors(tmp_path):
    # keys other than id, type, u, v and length are not read
    payload = {
        "vertices": [{"id": 0, "type": "dirichlet", "x": "left"}, {"id": 1}],
        "edges": [{"u": 0, "v": 1, "weight": -1.0}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    g = load_graph_json(path)
    assert g.lengths[0] == 1.0
    assert g.dirichlet_nodes == (0,)

    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph_json(path)
    path.write_text(json.dumps({"vertices": [{"id": 0, "type": "weird"}], "edges": []}))
    with pytest.raises(GraphFormatError, match="type"):
        load_graph_json(path)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"vertices": [{"id": 0}, {"type": "dirichlet"}], "edges": []}, "vertex entry 1 .* has no 'id'"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]}, "edge entry 0 .* has no 'v'"),
        ({"vertices": [0, 1], "edges": []}, "vertex entry 0 .* is not an object"),
        ({"vertices": [{"id": 0}], "edges": [[0, 1]]}, "edge entry 0 .* is not an object"),
        ({"vertices": [{"id": "a"}], "edges": []}, "vertex entry 0 .* non-numeric 'id'"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": None, "v": 1}]}, "edge entry 0 .* non-numeric 'u'"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": [1]}]}, "edge entry 0 .* non-numeric 'v'"),
        (
            {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1, "length": "long"}]},
            "edge entry 0 .* non-numeric 'length'",
        ),
        ({"vertices": 3, "edges": []}, "needs a list of 'vertices'"),
        ({"vertices": []}, "needs a list of 'edges'"),
        ({"vertices": [{"id": 0}, {"id": 2}], "edges": []}, "vertex ids must be exactly 0..1"),
        # ids are not truncated: 1.7 and 1.9 are not vertex 1
        ({"vertices": [{"id": 0}, {"id": 1.7}, {"id": 2}], "edges": []}, "vertex entry 1 .* non-integer 'id'"),
        (
            {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}], "edges": [{"u": 0, "v": 1.9}]},
            "edge entry 0 .* non-integer 'v'",
        ),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": -0.5, "v": 1}]}, "edge entry 0 .* non-integer 'u'"),
        ({"vertices": [{"id": False}, {"id": True}], "edges": []}, "vertex entry 0 .* non-integer 'id'"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": True}]}, "edge entry 0 .* non-integer 'v'"),
        # a boolean length is not length 1.0
        (
            {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1, "length": True}]},
            "edge entry 0 .* non-numeric 'length'",
        ),
    ],
    ids=["no-id", "no-v", "int-vertices", "list-edge", "text-id", "null-u", "list-v", "text-length",
         "int-vertex-list", "no-edges", "id-gap", "fractional-id", "fractional-v", "fractional-u", "bool-id",
         "bool-v", "bool-length"],
)
def test_graph_json_malformed_entries(tmp_path, payload, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GraphFormatError, match=message):
        load_graph_json(path)
