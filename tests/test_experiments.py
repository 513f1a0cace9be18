import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from mgopt.experiments import (
    StudyConfig,
    convergence_study,
    dump_matrices,
    eig_probe,
    iteration_study,
    resolve_graph_spec,
    write_convergence_csv,
)
from mgopt import assembly, experiments, linalg
from mgopt.assembly import ProblemData, assemble_stiffness, build_operators
from mgopt.graphs import MetricGraph, make_fdm_L_graph, make_star
from mgopt.mesh import build_mesh
from mgopt.optcontrol import reduced_oracle, solve_ocp

from helpers import run_one_blas_thread


def test_resolve_graph_spec_generators():
    g = resolve_graph_spec("star:12")
    assert (g.n_vertices, g.n_edges) == (13, 12)
    g = resolve_graph_spec("fdmL:10", n_controls=12, seed=1)
    assert (g.n_vertices, g.n_edges) == (75, 130)
    g = resolve_graph_spec("path:5")
    assert g.n_edges == 4
    with pytest.raises(ValueError, match="generator"):
        resolve_graph_spec("ring:5")
    with pytest.raises(ValueError, match="integer"):
        resolve_graph_spec("star:xyz")
    with pytest.raises(FileNotFoundError):
        resolve_graph_spec("missing_graph.json")


def test_resolve_graph_spec_files(tmp_path):
    # a star: Kirchhoff center 0 and four Dirichlet leaves
    payload = {
        "vertices": [{"id": 0}] + [{"id": v, "type": "dirichlet"} for v in range(1, 5)],
        "edges": [{"u": 0, "v": v} for v in range(1, 5)],
    }
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(payload))
    back = resolve_graph_spec(str(json_path))
    assert back.n_edges == 4
    mtx = tmp_path / "g.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
    loaded = resolve_graph_spec(str(mtx), n_controls=1, seed=0)
    assert loaded.n_edges == 2
    assert loaded.n_dirichlet == 1


def test_planar_graph_lengths_from_coordinates(tmp_path):
    # A stand-in for a road network such as criterion 9's Minnesota graph: a
    # seeded jittered lattice with its neighbour edges, written as a pattern
    # MatrixMarket file and a coordinate companion.
    rng = np.random.default_rng(9)
    k = 6
    xy = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    xy += rng.uniform(-0.3, 0.3, xy.shape)
    edges = [(k * i + j, k * i + j + 1) for i in range(k) for j in range(k - 1)]
    edges += [(k * i + j, k * (i + 1) + j) for i in range(k - 1) for j in range(k)]
    rows, cols = np.array(edges).T
    adjacency = sp.coo_matrix((np.ones(len(edges)), (cols, rows)), shape=(k * k, k * k))
    scipy.io.mmwrite(str(tmp_path / "planar.mtx"), adjacency, field="pattern")
    scipy.io.mmwrite(str(tmp_path / "planar_coord.mtx"), xy)
    g = resolve_graph_spec(str(tmp_path / "planar.mtx"), n_controls=5, seed=2)
    assert (g.n_vertices, g.edges, g.n_dirichlet) == (k * k, tuple(sorted(edges)), 5)
    euclidean = [np.linalg.norm(xy[u] - xy[v]) for u, v in g.edges]
    assert np.allclose(g.lengths, euclidean, rtol=1e-14, atol=0)
    assert g.lengths.min() < 0.6 and g.lengths.max() > 1.4
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    sol = solve_ocp(g, 6, data, solver="gmres", precon="nonsym", tol=1e-12)
    u_oracle = reduced_oracle(g, 6, data)
    assert np.linalg.norm(sol.u - u_oracle) <= 1e-8 * np.linalg.norm(u_oracle)


def test_study_config_validation():
    g = make_star(3)
    with pytest.raises(ValueError, match="nonempty"):
        StudyConfig(graph=g, betas=())
    with pytest.raises(ValueError, match="nonempty"):
        StudyConfig(graph=g, ne_values=())
    with pytest.raises(ValueError, match="positive"):
        StudyConfig(graph=g, tol=0.0)
    for ne_values in ((0, 4), (4, -2)):
        with pytest.raises(ValueError, match="intervals per edge must be at least 1"):
            StudyConfig(graph=g, ne_values=ne_values)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            StudyConfig(graph=g, jobs=jobs)
    # every study rejects a repeated level, not only the convergence study
    with pytest.raises(ValueError, match="repeated levels in the sweep: 4$"):
        StudyConfig(graph=g, ne_values=(4, 8, 4))
    # and a repeated beta, however it is written
    with pytest.raises(ValueError, match="repeated betas in the sweep: 0.01$"):
        StudyConfig(graph=g, betas=(1e-2, 1e-3, 0.01))


def test_iteration_study_shape_and_csv(tmp_path):
    cfg = StudyConfig(
        graph=make_star(4),
        betas=(1e-2, 1e-3),
        ne_values=(2, 4),
        include_unpreconditioned=True,
    )
    study = iteration_study(cfg)
    study.write_csv(tmp_path / "study.csv")
    assert len(study.cells) == 4
    for cell in study.cells:
        assert cell.iterations is not None
        assert cell.unprecond_iterations is not None
        assert cell.n_dof == 5 + 4 * (cell.n_e - 1)
    table = study.format_table()
    assert "beta=0.01" in table

    def semantic_rows(path):
        # the run-time columns are not reproducible; everything else is
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return [[row[0], row[1], row[2], row[3], row[5]] for row in rows]

    first = semantic_rows(tmp_path / "study.csv")
    iteration_study(cfg).write_csv(tmp_path / "study.csv")
    assert semantic_rows(tmp_path / "study.csv") == first
    assert first[0] == ["beta", "n_e", "n_dof", "iterations", "unpreconditioned_iterations"]


def test_iteration_study_marks_nonconverged():
    cfg = StudyConfig(
        graph=make_star(4),
        betas=(1e-2,),
        ne_values=(8,),
        max_it=2,
        include_unpreconditioned=False,
    )
    study = iteration_study(cfg)
    assert study.cells[0].iterations is None
    assert "--" in study.format_table()
    # a cap of 0 holds for the unpreconditioned column too
    cell = iteration_study(replace(cfg, max_it=0, include_unpreconditioned=True)).cells[0]
    assert cell.iterations is None and cell.unprecond_iterations is None


def test_iteration_study_parallel_matches_serial(tmp_path):
    base = dict(graph=make_star(4), betas=(1e-2, 1e-3), ne_values=(2, 4),
                include_unpreconditioned=False)
    serial = iteration_study(StudyConfig(**base, jobs=1))
    parallel = iteration_study(StudyConfig(**base, jobs=3))
    assert [c.iterations for c in serial.cells] == [c.iterations for c in parallel.cells]


def test_iteration_study_parallel_split_basis_matches_serial():
    # meshes solved on three threads give the counts of the serial study, and
    # every Krylov solve, preconditioned and not, its x and residuals bit for
    # bit: no solve's basis products depend on what runs beside it (thread
    # switches every 10 us, to interleave the solves finely)
    run_one_blas_thread("""
        import sys
        from dataclasses import replace

        import numpy as np
        from mgopt import experiments, optcontrol
        from mgopt.experiments import StudyConfig, iteration_study
        from mgopt.graphs import make_star

        gmres = optcontrol.gmres

        def keeping(apply_a, b, apply_p_inv=None, **kw):
            res = gmres(apply_a, b, apply_p_inv, **kw)
            solves[(b.size, apply_a.__self__.beta, apply_p_inv is None)] = res
            return res

        optcontrol.gmres = experiments.gmres = keeping
        sys.setswitchinterval(1e-5)
        cfg = StudyConfig(graph=make_star(4), betas=(1e-2, 1e-3), ne_values=(8, 16, 32),
                          include_unpreconditioned=True)
        runs = []
        for jobs in (1, 3):
            solves = {}
            cells = iteration_study(replace(cfg, jobs=jobs)).cells
            runs.append(([(c.beta, c.n_e, c.iterations, c.unprecond_iterations) for c in cells],
                         solves))
        (cells, serial), (parallel_cells, parallel) = runs
        assert all(c[2] is not None and c[3] is not None for c in cells)
        assert len(serial) == 12 and max(r.iterations for r in serial.values()) > 16
        assert parallel_cells == cells
        assert parallel.keys() == serial.keys()
        for key, res in serial.items():
            assert np.array_equal(parallel[key].x, res.x), key
            assert np.array_equal(parallel[key].residuals, res.residuals), key
    """)


@pytest.mark.parametrize("jobs", [1, 3])
def test_iteration_study_factors_kff_once_per_mesh(monkeypatch, jobs):
    # one graph factor of K_FF serves every beta of the mesh, and no
    # SuperLU factor of K_FF is made
    graph = make_star(4)
    n_free = build_mesh(graph, 8).n_free
    kff_factors, superlu_kff = [], []
    factor, factor_graph = linalg.factor, assembly.factor_graph

    def counting_factor(a, kind="cholesky"):
        if a.shape[0] == n_free:
            superlu_kff.append(kind)
        return factor(a, kind)

    monkeypatch.setattr(linalg, "factor", counting_factor)
    monkeypatch.setattr(assembly, "factor_graph", lambda ops: kff_factors.append(ops) or factor_graph(ops))
    cfg = StudyConfig(graph=graph, betas=(1e-2, 1e-3, 1e-4), ne_values=(8,),
                      include_unpreconditioned=False, jobs=jobs)
    study = iteration_study(cfg)
    assert [c.beta for c in study.cells] == [1e-2, 1e-3, 1e-4]
    assert all(c.iterations is not None for c in study.cells)
    assert len(kff_factors) == 1
    assert superlu_kff == []


def test_coercivity_is_searched_once_per_operator_set(monkeypatch):
    # solve_kkt checks coercivity for every preconditioner kind, and so does
    # the first kff_factor(); a sweep checks once per beta.  The graph is
    # searched once per operators, and every later check looks it up
    searches = []
    search = assembly.floating_components
    monkeypatch.setattr(
        assembly, "floating_components", lambda mesh, c0: searches.append(mesh) or search(mesh, c0)
    )
    graph = make_star(4)
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    for solver, precon in (("gmres", "nonsym"), ("minres", "sym")):
        searches.clear()
        assert solve_ocp(graph, 8, data, solver, precon).stats.converged
        assert len(searches) == 1
    searches.clear()
    cfg = StudyConfig(graph=graph, betas=(1e-2, 1e-3, 1e-4, 1e-5), ne_values=(8,),
                      include_unpreconditioned=False)
    assert all(c.iterations is not None for c in iteration_study(cfg).cells)
    assert len(searches) == 1


def test_iteration_study_cells_stay_beta_major():
    cfg = StudyConfig(graph=make_star(4), betas=(1e-2, 1e-3), ne_values=(4, 2),
                      include_unpreconditioned=False)
    for jobs in (1, 2):
        cells = iteration_study(replace(cfg, jobs=jobs)).cells
        assert [(c.beta, c.n_e) for c in cells] == [(1e-2, 4), (1e-2, 2), (1e-3, 4), (1e-3, 2)]


def test_iteration_study_unpreconditioned_times_grow():
    cfg = StudyConfig(
        graph=make_star(4),
        betas=(1e-2,),
        ne_values=(2, 32),
        include_unpreconditioned=True,
    )
    study = iteration_study(cfg)
    cells = {c.n_e: c for c in study.cells}
    assert cells[32].unprecond_iterations > cells[2].unprecond_iterations
    assert cells[32].unprecond_time_s > cells[2].unprecond_time_s


def test_convergence_study_reference_self_comparison(tmp_path):
    cfg = StudyConfig(
        graph=make_star(3),
        betas=(0.1,),
        ne_values=(4, 8, 16),
        ref_ne=16,
        c0=2.0,
        f=1.5,
        ybar=1.0,
    )
    records = convergence_study(cfg)
    write_convergence_csv(records, tmp_path / "conv.csv")
    last = records[-1]
    assert last.n_e == 16
    assert last.err_u == 0.0
    assert last.err_y_l2 == 0.0
    text = (tmp_path / "conv.csv").read_text().splitlines()
    assert text[0].startswith("n_e,n_dof,h,err_u")
    assert len(text) == 4


def test_convergence_study_rates_at_least_first_order():
    cfg = StudyConfig(
        graph=make_star(5),
        betas=(0.1,),
        ne_values=(8, 16, 32),
        ref_ne=128,
        c0=2.0,
        f=1.5,
        ybar=1.0,
    )
    records = convergence_study(cfg)
    for r in records[1:]:
        assert r.eoc_u >= 0.85
        assert r.eoc_y_l2 >= 0.85
        assert 0.85 <= r.eoc_y_h1 <= 1.3
        assert r.eoc_y_h1semi is not None


def test_convergence_study_second_order_with_per_edge_data_and_lengths():
    # edge lengths differ by up to 8x and f, ybar jump at every vertex: u and
    # the L2 error still converge at second order, so the second-order rates
    # of criterion 4 are not an artefact of uniform grids, and per-edge data
    # is integrated without an O(h) consistency error
    g = make_fdm_L_graph(10, 12, seed=1)
    rng = np.random.default_rng(1)
    graph = MetricGraph(g.n_vertices, g.edges, rng.uniform(0.3, 2.5, g.n_edges), g.dirichlet_nodes)
    cfg = StudyConfig(
        graph=graph,
        betas=(0.1,),
        ne_values=(8, 16, 32, 64, 128),
        ref_ne=512,
        c0=2.0,
        f=rng.uniform(0.5, 2.5, g.n_edges),
        ybar=rng.uniform(-1.0, 2.0, g.n_edges),
    )
    for r in convergence_study(cfg)[-3:]:
        assert r.eoc_u >= 1.85
        assert r.eoc_y_l2 >= 1.85
        assert 0.85 <= r.eoc_y_h1 <= 1.15


def test_convergence_study_rejects_non_nested():
    cfg = StudyConfig(graph=make_star(3), betas=(0.1,), ne_values=(8, 12), ref_ne=24)
    with pytest.raises(ValueError, match="non-nested"):
        convergence_study(cfg)
    cfg = StudyConfig(graph=make_star(3), betas=(0.1,), ne_values=(4, 8), ref_ne=20)
    with pytest.raises(ValueError, match="non-nested"):
        convergence_study(cfg)


def test_convergence_study_rejects_repeated_levels():
    # a repeated level would divide the error ratio by log(1)
    for ne_values, repeated in (((4, 4), "4"), ((8, 4, 8, 16, 4), "4, 8")):
        with pytest.raises(ValueError, match=f"repeated levels in the sweep: {repeated}$"):
            convergence_study(StudyConfig(graph=make_star(3), betas=(0.1,), ne_values=ne_values))


def test_studies_reject_sweeps_they_would_cut_short(monkeypatch):
    # the convergence study runs at one beta and the probe on one mesh; the
    # rest of a longer sweep was dropped without a word, so it is rejected
    # before any mesh is built
    built = []
    monkeypatch.setattr(experiments, "build_mesh", lambda *a: built.append(a))
    g = make_star(3)
    with pytest.raises(ValueError, match="^the convergence study runs at one beta, got 2$"):
        convergence_study(StudyConfig(graph=g, betas=(1e-2, 1e-3), ne_values=(4, 8)))
    with pytest.raises(ValueError, match="^the eigenvalue probe runs on one mesh level, got 2$"):
        eig_probe(StudyConfig(graph=g, betas=(1e-2,), ne_values=(2, 4)))
    assert not built


def test_eig_probe_spectra(tmp_path):
    cfg = StudyConfig(
        graph=make_star(4),
        betas=(1e-2, 1e-3),
        ne_values=(4,),
        c0=2.0,
        f=1.5,
        ybar=1.0,
    )
    probe = eig_probe(cfg)
    probe.write_csv(tmp_path / "eig.csv")
    # identity preconditioner: indefinite saddle spectrum straddling zero
    ev = probe.get("none", 1e-2)
    assert ev.real.min() < 0 < ev.real.max()
    # matched kinds stay put when beta changes
    for kind in ("matched_symmetric", "matched_nonsymmetric"):
        lo = {b: np.abs(probe.get(kind, b)).min() for b in (1e-2, 1e-3)}
        hi = {b: np.abs(probe.get(kind, b)).max() for b in (1e-2, 1e-3)}
        assert max(lo.values()) / min(lo.values()) <= 2.0
        assert max(hi.values()) / min(hi.values()) <= 2.0
    # mass probe present
    assert probe.get("mass", 1e-2).size > 0
    lines = (tmp_path / "eig.csv").read_text().splitlines()
    assert lines[0] == "kind,beta,re,im"
    with pytest.raises(KeyError):
        probe.get("ideal", 123.0)


def test_eig_probe_cap():
    # star:4 at ne 300 has 2,398 unknowns, above linalg.DENSE_CAP; the cap
    # is checked before any dense array is built
    cfg = StudyConfig(graph=make_star(4), betas=(1e-2,), ne_values=(300,))
    with pytest.raises(ValueError, match="capped at 2000, got 2398"):
        eig_probe(cfg)


def test_dump_matrices(tmp_path):
    mesh = build_mesh(make_star(3), 2)
    data = ProblemData(beta=1.0, c0=1.0)
    ops = build_operators(mesh, data)
    dump_matrices(ops, tmp_path / "mats")
    for name in ("A.mtx", "M.mtx", "K.mtx"):
        mat = scipy.io.mmread(str(tmp_path / "mats" / name))
        assert mat.shape == (mesh.n_dof, mesh.n_dof)
    a = scipy.io.mmread(str(tmp_path / "mats" / "A.mtx"))
    assert abs(a - assemble_stiffness(mesh)).max() <= 1e-14
