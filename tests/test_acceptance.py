"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mgopt.assembly import (
    ProblemData,
    assemble_mass,
    assemble_stiffness,
    build_operators,
    l2_inner,
    l2_norm,
)
from mgopt.graphs import load_matrix_market, make_fdm_L_graph, make_path, make_star
from mgopt.mesh import build_mesh
from mgopt.optcontrol import (
    build_kkt,
    build_preconditioner,
    gmres,
    reduced_oracle,
    solve_kkt,
    solve_ocp,
)
from mgopt.pde import discrete_kirchhoff, solve_state
from mgopt.experiments import StudyConfig, convergence_study, eig_probe, iteration_study

from helpers import element_mass, element_stiffness, random_metric_graph, solve_adjoint

PAPER_DATA = dict(c0=2.0, f=1.5, ybar=1.0)


def _verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_assembly_equivalence():
    # incidence-formula operators equal elementwise assembly on randomized graphs
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        g = random_metric_graph(rng, n_min=4, n_max=20)
        n_e = int(rng.choice([1, 2, 4, 8]))
        mesh = build_mesh(g, n_e)
        a = assemble_stiffness(mesh).toarray()
        a_ref = element_stiffness(mesh)
        worst = max(worst, np.abs(a - a_ref).max() / np.abs(a_ref).max())
        c0 = rng.uniform(0.0, 3.0, g.n_edges)
        m = assemble_mass(mesh, c0).toarray()
        m_ref = element_mass(mesh, c0)
        worst = max(worst, np.abs(m - m_ref).max() / max(np.abs(m_ref).max(), 1e-300))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= 1e-14 and elapsed < 5.0,
             f"max entrywise relative deviation {worst:.2e} over 10 graphs in {elapsed:.2f} s")


def test_criterion_2_adjoint_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    graphs = {
        "star": make_star(6),
        "path": make_path(8),
        "L-graph": make_fdm_L_graph(10, 12, seed=2),
    }
    worst = 0.0
    for name, g in graphs.items():
        mesh = build_mesh(g, 4)
        ops = build_operators(mesh, ProblemData(beta=1.0, c0=1.5))
        mass = assemble_mass(ops.mesh)
        for _ in range(100):
            y = rng.standard_normal(mesh.n_dof)
            z = rng.standard_normal(g.n_dirichlet)
            lhs = l2_inner(mass, y, solve_state(ops, z).y.values)
            rhs = -z @ discrete_kirchhoff(ops, solve_adjoint(ops, y), y)
            scale = max(l2_norm(mass, y) * np.linalg.norm(z), 1e-12)
            worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.perf_counter() - t0
    _verdict(2, worst <= 1e-10 and elapsed < 10.0,
             f"max |(y, Sz) + z'K(Py)| / (||y|| |z|) = {worst:.2e} over 300 pairs in {elapsed:.2f} s")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    while checked < 5:
        g = random_metric_graph(rng, n_min=4, n_max=14)
        n_e = int(rng.integers(2, 7))
        if build_mesh(g, n_e).n_dof > 300:
            continue
        data = ProblemData(
            beta=float(rng.uniform(1e-3, 1.0)),
            c0=float(rng.uniform(0.0, 2.0)),
            f=float(rng.uniform(-2.0, 2.0)),
            ybar=float(rng.uniform(-2.0, 2.0)),
        )
        u_oracle = reduced_oracle(g, n_e, data)
        sol = solve_ocp(g, n_e, data, tol=1e-10)
        worst = max(worst, np.linalg.norm(sol.u - u_oracle) / (1.0 + np.linalg.norm(u_oracle)))
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(3, worst <= 1e-7 and elapsed < 30.0,
             f"max relative control deviation from the dense oracle {worst:.2e} in {elapsed:.2f} s")


def test_criterion_4_convergence_rates():
    # L-shaped lattice, published data, dyadic levels against a reference two
    # levels above the finest.  The published bound is read as first order,
    # as this suite has held from the start; the repository keeps only the
    # abstract of arXiv 1907.07806 ("rigorous error bounds"), so the theorem
    # and the norm it is stated in are not cited here.  Every EOC on the last
    # three levels must reach 0.85.  A first-order bound caps the
    # error, not the rate, so the upper edges are what P1 elements can reach:
    # 1.15 in H1, and 2.15 for u and the L2 error, whose best rate is second
    # order (Aubin-Nitsche for L2; the 1D variational flux that gives u).
    # Measured: u and L2 at about 2.0, H1 at about 1.0, also with random edge
    # lengths and per-edge data (see test_experiments).
    t0 = time.perf_counter()
    g = make_fdm_L_graph(10, 12, seed=1)
    assert (g.n_vertices, g.n_edges) == (75, 130)
    cfg = StudyConfig(
        graph=g, betas=(0.1,), ne_values=(8, 16, 32, 64, 128), ref_ne=512, **PAPER_DATA
    )
    records = convergence_study(cfg)
    last3 = records[-3:]
    eocs = {
        "u": [r.eoc_u for r in last3],
        "L2": [r.eoc_y_l2 for r in last3],
        "H1": [r.eoc_y_h1 for r in last3],
    }
    bands = {"u": (0.85, 2.15), "L2": (0.85, 2.15), "H1": (0.85, 1.15)}
    elapsed = time.perf_counter() - t0
    in_band = {k: all(bands[k][0] <= v <= bands[k][1] for v in vals) for k, vals in eocs.items()}
    detail = (
        "EOC last three levels: "
        + ", ".join(f"{k}={[round(v, 3) for v in vals]} in {list(bands[k])}" for k, vals in eocs.items())
        + f" in {elapsed:.1f} s"
    )
    _verdict(4, all(in_band.values()) and elapsed < 300.0, detail)


def test_criterion_5_beta_robustness():
    t0 = time.perf_counter()
    g = make_star(12)
    ne_values = (8, 16, 32, 64, 128, 256, 512)
    columns = {ne: [] for ne in ne_values}
    for beta in (1e-2, 1e-3, 1e-4, 1e-5):
        data = ProblemData(beta=beta, **PAPER_DATA)
        for ne in ne_values:
            sol = solve_ocp(g, ne, data, solver="gmres", precon="matched_nonsymmetric", tol=1e-8)
            assert sol.stats.converged, (beta, ne)
            columns[ne].append(sol.stats.iterations)
    elapsed = time.perf_counter() - t0
    max_its = max(max(v) for v in columns.values())
    ratios = {ne: max(v) / min(v) for ne, v in columns.items()}
    ok = max_its <= 60 and max(ratios.values()) <= 1.5 and elapsed < 120.0
    _verdict(5, ok,
             f"n_dof up to {13 + 12 * 511}; max iterations {max_its} (cap 60), "
             f"per-column max/min ratio up to {max(ratios.values()):.2f} (cap 1.5) in {elapsed:.1f} s")


def test_criterion_6_preconditioning_benefit():
    t0 = time.perf_counter()
    g = make_star(12)
    data = ProblemData(beta=1e-3, **PAPER_DATA)
    sol = solve_ocp(g, 512, data, solver="gmres", precon="matched_nonsymmetric", tol=1e-8)
    assert sol.stats.converged
    m_pre = sol.stats.iterations
    mesh = build_mesh(g, 512)
    ops = build_operators(mesh, data)
    kkt = build_kkt(ops, data)
    plain = gmres(kkt.apply, kkt.rhs, None, tol=1e-8, max_it=10 * m_pre)
    elapsed = time.perf_counter() - t0
    _verdict(6, (not plain.converged) and elapsed < 300.0,
             f"preconditioned {m_pre} iterations; unpreconditioned not converged within "
             f"{10 * m_pre} iterations (residual {plain.true_residual:.2e}) in {elapsed:.1f} s")


def test_criterion_7_minres_path():
    t0 = time.perf_counter()
    cases = {
        "star": (make_star(12), 64),
        "L-graph": (make_fdm_L_graph(10, 12, seed=1), 16),
    }
    detail_parts = []
    ok = True
    for name, (g, ne) in cases.items():
        data = ProblemData(beta=1e-3, **PAPER_DATA)
        sm = solve_ocp(g, ne, data, solver="minres", precon="matched_symmetric", tol=1e-8)
        sg = solve_ocp(g, ne, data, solver="gmres", precon="matched_nonsymmetric", tol=1e-8)
        agree = np.linalg.norm(sm.y.values - sg.y.values) / np.linalg.norm(sg.y.values)
        agree_u = np.linalg.norm(sm.u - sg.u) / np.linalg.norm(sg.u)
        ok = ok and sm.stats.converged and sg.stats.converged
        ok = ok and sm.stats.iterations <= 3 * sg.stats.iterations
        ok = ok and max(agree, agree_u) <= 1e-6
        detail_parts.append(
            f"{name}: minres {sm.stats.iterations} vs gmres {sg.stats.iterations} its, "
            f"solution agreement {max(agree, agree_u):.1e}"
        )
    elapsed = time.perf_counter() - t0
    _verdict(7, ok and elapsed < 120.0, "; ".join(detail_parts) + f" in {elapsed:.1f} s")


def test_criterion_8_spectral_clustering():
    t0 = time.perf_counter()
    g = make_star(12)
    mesh = build_mesh(g, 16)
    assert mesh.n_dof <= 400
    cfg = StudyConfig(graph=g, betas=(1e-2, 1e-3), ne_values=(16,), **PAPER_DATA)
    probe = eig_probe(cfg)
    ok = True
    details = []
    for kind in ("matched_symmetric", "matched_nonsymmetric"):
        lo = {b: np.abs(probe.get(kind, b)).min() for b in (1e-2, 1e-3)}
        hi = {b: np.abs(probe.get(kind, b)).max() for b in (1e-2, 1e-3)}
        r_lo = max(lo.values()) / min(lo.values())
        r_hi = max(hi.values()) / min(hi.values())
        ok = ok and r_lo <= 2.0 and r_hi <= 2.0
        details.append(f"{kind}: min|l| ratio {r_lo:.2f}, max|l| ratio {r_hi:.2f}")
    ev = probe.get("ideal", 1e-2)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    targets = np.array([1.0, golden, 1.0 - golden])
    dist = np.min(np.abs(ev[:, None] - targets[None, :]), axis=1)
    frac = float(np.mean(dist <= 0.15))
    # first-run probe measured the full spectrum on the three targets; frozen
    ok = ok and frac >= 0.90 and frac == 1.0
    details.append(f"ideal: {100 * frac:.1f}% of eigenvalues within 0.15 of the three clusters")
    elapsed = time.perf_counter() - t0
    _verdict(8, ok and elapsed < 120.0, "; ".join(details) + f" in {elapsed:.1f} s")


def _minnesota_path():
    env = os.environ.get("MGOPT_MINNESOTA")
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "minnesota.mtx"


def test_criterion_9_minnesota_smoke():
    path = _minnesota_path()
    if not path.exists():
        pytest.skip("Minnesota dataset not supplied (set MGOPT_MINNESOTA or add tests/data/minnesota.mtx)")
    t0 = time.perf_counter()
    g = load_matrix_market(path, n_controls=12, seed=1)
    # smallest refinement with n_dof around 2e5
    n_e = max(2, int(round((2e5 - g.n_vertices) / g.n_edges)) + 1)
    data = ProblemData(beta=1e-3, **PAPER_DATA)
    sol = solve_ocp(g, n_e, data, solver="gmres", precon="matched_nonsymmetric", tol=1e-8)
    elapsed = time.perf_counter() - t0
    _verdict(9, sol.stats.converged and sol.stats.iterations <= 120 and elapsed < 300.0,
             f"{g.n_vertices} vertices, n_dof={sol.stats.n_dof}, "
             f"{sol.stats.iterations} iterations in {elapsed:.1f} s")
