import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgopt import linalg
from mgopt.assembly import (
    GraphFactor,
    ProblemData,
    SingularOperatorError,
    assemble_mass,
    assemble_stiffness,
    build_operators,
    l2_inner,
    l2_norm,
)
from mgopt.graphs import MetricGraph, make_fdm_L_graph, make_path, make_star
from mgopt.mesh import build_mesh, nodal_values
from mgopt.pde import discrete_kirchhoff, solve_state

from helpers import controlled_meshes, edge_node_dofs, random_metric_graph, solve_adjoint


def single_edge(length=1.0):
    return MetricGraph(2, ((0, 1),), np.array([length]), (0, 1))


def build(graph, n_e, **data):
    mesh = build_mesh(graph, n_e)
    return build_operators(mesh, ProblemData(**{"beta": 1.0, **data}))


def h1_seminorm(ops, v):
    return float(np.sqrt(max(v @ (assemble_stiffness(ops.mesh) @ v), 0.0)))


def test_state_ramp_on_single_edge():
    n_e = 8
    ops = build(single_edge(), n_e, c0=0.0)
    sol = solve_state(ops, u=np.array([0.0, 1.0]))
    along = sol.y.values[edge_node_dofs(ops.mesh, 0)]
    assert np.allclose(along, np.arange(n_e + 1) / n_e, atol=1e-12)


def test_state_sinh_closed_form():
    # -y'' + y = 0 with y(0)=0, y(1)=1 has y = sinh(x)/sinh(1)
    n_e = 64
    ops = build(single_edge(), n_e, c0=1.0)
    sol = solve_state(ops, u=np.array([0.0, 1.0]))
    x = ops.mesh.edge_node_positions(0)
    exact = np.sinh(x) / np.sinh(1.0)
    err = np.abs(sol.y.values[edge_node_dofs(ops.mesh, 0)] - exact).max()
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
    combined = solve_state(ops, u).y.values + source_driven
    assert np.linalg.norm(sol.y.values - combined) <= 1e-12 * max(np.linalg.norm(combined), 1.0)
    assert np.allclose(sol.y.values[ops.mesh.vertex_dof[ops.mesh.dirichlet_vertices]], u)


def test_state_solve_makes_one_kff_solve(monkeypatch):
    # y alone; its source-driven part is solve_state at zero control and its
    # control-driven part solve_state(ops, u).y
    ops = build(make_star(3), 4, c0=1.0, f=2.0)
    kff = ops.kff_factor()
    calls = []
    solve = linalg.Factorization.solve
    monkeypatch.setattr(linalg.Factorization, "solve", lambda fac, b: calls.append(fac) or solve(fac, b))
    solve_state(ops, u=np.ones(3), f_vec=ops.f_vec)
    # the graph factor's inner vertex solves go through Factorization.solve too
    assert sum(fac is kff for fac in calls) == 1


def test_state_refuses_a_load_of_another_length():
    # one load per DOF: neither cut to the free DOFs nor left to numpy's
    # broadcasting
    ops = build(make_star(3), 4, c0=1.0, f=2.0)
    n_dof = ops.mesh.n_dof
    for f_vec in (np.ones(n_dof + 5), np.ones(ops.n_free - 1)):
        with pytest.raises(ValueError, match=f"load of {n_dof} values, got \\({f_vec.size},\\)"):
            solve_state(ops, f_vec=f_vec)
    # and one control value per Dirichlet vertex
    with pytest.raises(ValueError, match="expected 3 Dirichlet values, got \\(4,\\)"):
        solve_state(ops, np.ones(4))


def test_state_not_coercive():
    g = MetricGraph(4, ((0, 1), (0, 2), (0, 3)), np.ones(3))  # a star with no Dirichlet node
    ops = build(g, 2, c0=0.0)
    with pytest.raises(SingularOperatorError, match="not coercive"):
        solve_state(ops)


def test_harmonic_extension_zero_and_residual():
    rng = np.random.default_rng(1)
    g = random_metric_graph(rng)
    ops = build(g, 4, c0=0.5)
    zero = solve_state(ops, np.zeros(g.n_dirichlet)).y
    assert np.all(zero.values == 0.0)
    u = rng.standard_normal(g.n_dirichlet)
    s = solve_state(ops, u).y
    residual = (ops.K @ s.values)[: ops.n_free]
    assert np.abs(residual).max() <= 1e-10


def test_harmonic_extension_ramp_seminorm():
    for length in (1.0, 2.0):
        ops = build(single_edge(length), 16, c0=0.0)
        s = solve_state(ops, np.array([0.0, 1.0])).y
        semi_sq = h1_seminorm(ops, s.values) ** 2
        assert abs(semi_sq - 1.0 / length) <= 1e-12


def test_harmonic_extension_stability_under_refinement():
    # the H1 norm of the extension settles as the mesh is refined
    g = make_star(4)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    ratios = []
    for n_e in (2, 4, 8, 16, 32, 64, 128, 256):
        ops = build(g, n_e, c0=0.0)
        s = solve_state(ops, u).y
        ratios.append(math.hypot(l2_norm(assemble_mass(ops.mesh), s.values), h1_seminorm(ops, s.values)) / np.linalg.norm(u))
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
    y = solve_state(ops, f_vec=assemble_mass(ops.mesh) @ r)
    assert np.allclose(p.values, y.y.values, atol=1e-12)


def test_adjoint_poisson_closed_form():
    # -p'' = 1 with zero ends has p = x(L-x)/2; P1 FE is nodally exact here
    L = 1.0
    ops = build(single_edge(L), 8, c0=0.0)
    p = solve_adjoint(ops, np.ones(ops.mesh.n_dof))
    x = ops.mesh.edge_node_positions(0)
    assert np.allclose(p.values[edge_node_dofs(ops.mesh, 0)], x * (L - x) / 2, atol=1e-10)


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
        mass = assemble_mass(ops.mesh)
        for _ in range(40):
            y = rng.standard_normal(ops.mesh.n_dof)
            z = rng.standard_normal(g.n_dirichlet)
            s = solve_state(ops, z).y
            lhs = l2_inner(mass, y, s.values)
            p = solve_adjoint(ops, y)
            rhs = -z @ discrete_kirchhoff(ops, p, y)
            bound = 1e-10 * max(l2_norm(mass, y) * np.linalg.norm(z), 1e-12)
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
    assert isinstance(f1._lu, GraphFactor)
    assert ops.condensation().kff is f1._lu


@settings(derandomize=True, deadline=None, max_examples=60)
@given(controlled_meshes(), st.integers(0, 2**32 - 1))
def test_criterion_2_adjoint_identity_on_random_meshes(mesh_and_c0, seed):
    # criterion 2 as a property: (y, S z)_{L2} = -z^T K(P y) for the control
    # to state map S and the adjoint P, on meshes with their own interval
    # count per edge, edges between two controls and c0 = 0, to the bound
    # the fixed-seed criterion holds
    mesh, c0 = mesh_and_c0
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=c0))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(mesh.n_dof)
    z = rng.standard_normal(ops.n_dirichlet)
    mass = assemble_mass(mesh)
    lhs = l2_inner(mass, y, solve_state(ops, z).y.values)
    rhs = -z @ discrete_kirchhoff(ops, solve_adjoint(ops, y), y)
    assert abs(lhs - rhs) <= 1e-10 * max(l2_norm(mass, y) * np.linalg.norm(z), 1e-12)
