import math

import numpy as np
import pytest

from mgopt import linalg
from mgopt.assembly import ProblemData, SingularOperatorError, assemble_stiffness, build_operators
from mgopt.graphs import CombinatorialGraph, MetricGraph, make_fdm_L_graph, make_path, make_star
from mgopt.mesh import build_mesh, nodal_values
from mgopt.pde import discrete_kirchhoff, harmonic_extension, solve_adjoint, solve_state

from helpers import random_metric_graph


def single_edge(length=1.0):
    base = CombinatorialGraph(2, ((0, 1),), np.ones(1))
    return MetricGraph(base, np.array([length]), (0, 1))


def build(graph, n_e, **data):
    mesh = build_mesh(graph, n_e)
    return build_operators(mesh, ProblemData(**{"beta": 1.0, **data}))


def h1_seminorm(ops, v):
    return float(np.sqrt(max(v @ (assemble_stiffness(ops.mesh) @ v), 0.0)))


def test_state_ramp_on_single_edge():
    n_e = 8
    ops = build(single_edge(), n_e, c0=0.0)
    sol = solve_state(ops, u=np.array([0.0, 1.0]))
    along = sol.y.values[ops.mesh.edge_node_dofs(0)]
    assert np.allclose(along, np.arange(n_e + 1) / n_e, atol=1e-12)


def test_state_sinh_closed_form():
    # -y'' + y = 0 with y(0)=0, y(1)=1 has y = sinh(x)/sinh(1)
    n_e = 64
    ops = build(single_edge(), n_e, c0=1.0)
    sol = solve_state(ops, u=np.array([0.0, 1.0]))
    x = ops.mesh.edge_node_positions(0)
    exact = np.sinh(x) / np.sinh(1.0)
    err = np.abs(sol.y.values[ops.mesh.edge_node_dofs(0)] - exact).max()
    assert err <= 1e-3


def test_state_constant_on_star():
    ops = build(make_star(5), 4, c0=0.0)
    sol = solve_state(ops, u=np.full(5, 2.5))
    assert np.allclose(sol.y.values, 2.5, atol=1e-12)


def test_state_decomposition():
    rng = np.random.default_rng(0)
    g = random_metric_graph(rng)
    ops = build(g, 4, c0=1.0, f=2.0)
    u = rng.standard_normal(g.n_dirichlet)
    sol = solve_state(ops, u=u, f_vec=ops.f_vec)
    source_driven = solve_state(ops, f_vec=ops.f_vec).y.values
    combined = harmonic_extension(ops, u).values + source_driven
    assert np.linalg.norm(sol.y.values - combined) <= 1e-12 * max(np.linalg.norm(combined), 1.0)
    assert np.allclose(sol.y.values[ops.mesh.vertex_dof[ops.mesh.dirichlet_vertices]], u)


def test_state_solve_makes_one_kff_solve(monkeypatch):
    # y alone; its source-driven part is solve_state at zero control and its
    # control-driven part harmonic_extension(ops, u)
    ops = build(make_star(3), 4, c0=1.0, f=2.0)
    kff = ops.kff_factor()
    calls = []
    solve = linalg.Factorization.solve
    monkeypatch.setattr(linalg.Factorization, "solve", lambda fac, b: calls.append(fac) or solve(fac, b))
    solve_state(ops, u=np.ones(3), f_vec=ops.f_vec)
    # the graph factor's inner vertex solves go through Factorization.solve too
    assert sum(fac is kff for fac in calls) == 1


def test_state_not_coercive():
    g = make_star(3, "kirchhoff")
    ops = build(g, 2, c0=0.0)
    with pytest.raises(SingularOperatorError, match="not coercive"):
        solve_state(ops)


def test_harmonic_extension_zero_and_residual():
    rng = np.random.default_rng(1)
    g = random_metric_graph(rng)
    ops = build(g, 4, c0=0.5)
    zero = harmonic_extension(ops, np.zeros(g.n_dirichlet))
    assert np.all(zero.values == 0.0)
    u = rng.standard_normal(g.n_dirichlet)
    s = harmonic_extension(ops, u)
    residual = (ops.K @ s.values)[: ops.n_free]
    assert np.abs(residual).max() <= 1e-10


def test_harmonic_extension_ramp_seminorm():
    for length in (1.0, 2.0):
        ops = build(single_edge(length), 16, c0=0.0)
        s = harmonic_extension(ops, np.array([0.0, 1.0]))
        semi_sq = h1_seminorm(ops, s.values) ** 2
        assert abs(semi_sq - 1.0 / length) <= 1e-12


def test_harmonic_extension_stability_under_refinement():
    # the H1 norm of the extension settles as the mesh is refined
    g = make_star(4)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    ratios = []
    for n_e in (2, 4, 8, 16, 32, 64, 128, 256):
        ops = build(g, n_e, c0=0.0)
        s = harmonic_extension(ops, u)
        ratios.append(math.hypot(ops.l2_norm(s.values), h1_seminorm(ops, s.values)) / np.linalg.norm(u))
    for prev, cur in zip(ratios[4:], ratios[5:]):
        assert abs(cur - prev) <= 0.05 * prev


def test_adjoint_zero():
    ops = build(make_star(3), 4, c0=1.0)
    p = solve_adjoint(ops, np.zeros(ops.mesh.n_dof))
    assert np.all(p.values == 0.0)


def test_adjoint_equals_state_solve_with_swapped_rhs():
    rng = np.random.default_rng(2)
    g = random_metric_graph(rng)
    ops = build(g, 3, c0=1.0)
    r = rng.standard_normal(ops.mesh.n_dof)
    p = solve_adjoint(ops, r)
    y = solve_state(ops, f_vec=ops.M @ r)
    assert np.allclose(p.values, y.y.values, atol=1e-12)


def test_adjoint_poisson_closed_form():
    # -p'' = 1 with zero ends has p = x(L-x)/2; P1 FE is nodally exact here
    L = 1.0
    ops = build(single_edge(L), 8, c0=0.0)
    p = solve_adjoint(ops, np.ones(ops.mesh.n_dof))
    x = ops.mesh.edge_node_positions(0)
    assert np.allclose(p.values[ops.mesh.edge_node_dofs(0)], x * (L - x) / 2, atol=1e-10)


def test_kirchhoff_zero():
    ops = build(make_star(3), 3, c0=0.0)
    out = discrete_kirchhoff(ops, np.zeros(ops.mesh.n_dof), np.zeros(ops.mesh.n_dof))
    assert np.all(out == 0.0)


def test_kirchhoff_requires_zero_dirichlet_values():
    ops = build(make_star(3), 3, c0=0.0)
    p = np.ones(ops.mesh.n_dof)
    with pytest.raises(ValueError, match="vanish"):
        discrete_kirchhoff(ops, p, np.zeros(ops.mesh.n_dof))


def test_adjoint_identity_random():
    # (y, S z) = -z^T K(P y) for arbitrary nodal y and Dirichlet data z
    rng = np.random.default_rng(3)
    for g in (make_star(4), make_path(6), random_metric_graph(rng)):
        ops = build(g, 4, c0=1.5)
        for _ in range(40):
            y = rng.standard_normal(ops.mesh.n_dof)
            z = rng.standard_normal(g.n_dirichlet)
            s = harmonic_extension(ops, z)
            lhs = ops.l2_inner(y, s.values)
            p = solve_adjoint(ops, y)
            rhs = -z @ discrete_kirchhoff(ops, p, y)
            bound = 1e-10 * max(ops.l2_norm(y) * np.linalg.norm(z), 1e-12)
            assert abs(lhs - rhs) <= bound


def test_kirchhoff_flux_consistency_rate():
    # -p'' + p = 1 with zero ends: exact outward flux is -tanh(L/2) at both
    # ends; the discrete flux converges at least first order (second order
    # on these equidistant grids)
    L = 1.0
    exact = -math.tanh(L / 2)
    errs = []
    for n_e in (4, 8, 16, 32):
        ops = build(single_edge(L), n_e, c0=1.0)
        ones = np.ones(ops.mesh.n_dof)
        p = solve_adjoint(ops, ones)
        flux = discrete_kirchhoff(ops, p, ones)
        errs.append(np.linalg.norm(flux - exact))
    rates = [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
    assert min(rates) >= 0.9


def test_shared_factorization_reused():
    ops = build(make_star(3), 8, c0=1.0)
    f1 = ops.kff_factor()
    f2 = ops.kff_factor()
    assert f1 is f2
    # the condensation takes its lift and S factor from the same graph factor
    assert f1.kind == "graph"
    assert ops.condensation().kff is f1._lu
