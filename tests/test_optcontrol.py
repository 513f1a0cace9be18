import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from mgopt import linalg, optcontrol
from mgopt.assembly import (
    GraphFactor,
    ProblemData,
    SingularOperatorError,
    assemble_mass,
    build_operators,
)
from mgopt.graphs import MetricGraph, make_fdm_L_graph, make_path, make_star
from mgopt.mesh import build_mesh, nodal_values
from mgopt.optcontrol import (
    PRECONDITIONER_KINDS,
    KrylovResult,
    build_kkt,
    build_preconditioner,
    gmres,
    minres,
    normalize_precon_kind,
    objective_value,
    reduced_oracle,
    solve_kkt,
    solve_ocp,
    solve_ocp_assembled,
)
from mgopt.pde import solve_state

from helpers import (
    controlled_meshes,
    element_mass,
    element_stiffness,
    graph_with_floating_triangle,
    random_metric_graph,
)


def tiny_star_ops(beta=0.5, c0=1.0, f=1.5, ybar=1.0, n_e=2, leaves=2):
    g = make_star(leaves)
    mesh = build_mesh(g, n_e)
    data = ProblemData(beta=beta, c0=c0, f=f, ybar=ybar)
    return build_operators(mesh, data), data


def test_kkt_apply_zero_and_shape():
    ops, data = tiny_star_ops()
    kkt = build_kkt(ops, data)
    assert kkt.dim == 2 * ops.n_free + ops.n_dirichlet
    assert np.all(kkt.apply(np.zeros(kkt.dim)) == 0.0)


def test_kkt_symmetry():
    rng = np.random.default_rng(0)
    g = random_metric_graph(rng)
    mesh = build_mesh(g, 3)
    data = ProblemData(beta=0.1, c0=1.0, f=1.0, ybar=2.0)
    ops = build_operators(mesh, data)
    kkt = build_kkt(ops, data)
    for _ in range(10):
        x = rng.standard_normal(kkt.dim)
        y = rng.standard_normal(kkt.dim)
        lhs = y @ kkt.apply(x)
        rhs = x @ kkt.apply(y)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_kkt_dense_matches_hand_assembly():
    ops, data = tiny_star_ops(beta=0.37, c0=2.0, f=1.5, ybar=1.0)
    mesh = ops.mesh
    a = element_stiffness(mesh)
    m = element_mass(mesh)
    k = a + element_mass(mesh, data.c0)
    nf = mesh.n_free
    free = slice(0, nf)
    diri = slice(nf, mesh.n_dof)
    z = np.zeros((nf, nf))
    expected = np.block(
        [
            [m[free, free], m[free, diri], k[free, free].T],
            [m[diri, free], m[diri, diri] + data.beta * np.eye(ops.n_dirichlet), k[free, diri].T],
            [k[free, free], k[free, diri], z],
        ]
    )
    kkt = build_kkt(ops, data)
    assert np.allclose(kkt.as_dense(), expected, rtol=0, atol=1e-14)
    ybar_vec = m @ np.full(mesh.n_dof, data.ybar)
    f_vec = m @ np.full(mesh.n_dof, data.f)
    rhs = np.concatenate([ybar_vec[free], ybar_vec[diri], f_vec[free]])
    assert np.allclose(kkt.rhs, rhs, atol=1e-14)


def test_kkt_dense_cap():
    # star:4 at ne 300: 2,398 unknowns, above linalg.DENSE_CAP
    ops, data = tiny_star_ops(n_e=300, leaves=4)
    kkt = build_kkt(ops, data)
    with pytest.raises(ValueError, match="capped at 2000, got 2398"):
        kkt.as_dense()


def test_kkt_surface_read_by_the_benchmark():
    # mgbench pairs each unpreconditioned GMRES call with its system through
    # ``kkt.apply.__self__`` and splits solutions with ``split``
    ops, data = tiny_star_ops(leaves=3, n_e=4)
    kkt = build_kkt(ops, data)
    assert kkt.apply.__self__ is kkt
    assert kkt.dim == kkt.rhs.size == 2 * ops.n_free + ops.n_dirichlet
    x = np.arange(kkt.dim, dtype=float)
    parts = kkt.split(x)
    assert [part.size for part in parts] == [ops.n_free, ops.n_dirichlet, ops.n_free]
    assert np.array_equal(np.concatenate(parts), x)


def test_precon_kind_normalization():
    assert normalize_precon_kind("sym") == "matched_symmetric"
    assert normalize_precon_kind("nonsym") == "matched_nonsymmetric"
    assert normalize_precon_kind("none") == "none"
    for bogus in ("bogus", "identity"):
        with pytest.raises(ValueError, match="unknown preconditioner kind"):
            normalize_precon_kind(bogus)


def test_preconditioner_requires_controls():
    g = MetricGraph(4, ((0, 1), (0, 2), (0, 3)), np.ones(3))  # a star with no Dirichlet node
    mesh = build_mesh(g, 2)
    data = ProblemData(beta=1.0, c0=1.0)
    ops = build_operators(mesh, data)
    with pytest.raises(ValueError, match="Dirichlet"):
        build_preconditioner("matched_symmetric", ops, data)


def test_preconditioner_linearity_and_kinds():
    ops, data = tiny_star_ops(leaves=3, n_e=3)
    kkt = build_kkt(ops, data)
    rng = np.random.default_rng(1)
    for kind in ("none", "ideal", "matched_symmetric", "matched_nonsymmetric"):
        pc = build_preconditioner(kind, ops, data)
        x = rng.standard_normal(kkt.dim)
        y = rng.standard_normal(kkt.dim)
        lhs = pc.apply(2.0 * x + 3.0 * y)
        rhs = 2.0 * pc.apply(x) + 3.0 * pc.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


def matched_diagonals(ops, beta):
    """D_M, D_SM, the lumped matching diagonal d_kdk and N, rebuilt densely from ops."""
    d_m = ops.M_FF.diagonal()
    d_sm = ops.M_DD.toarray() + beta * np.eye(ops.n_dirichlet) - ops.M_FD.T.toarray() @ (
        ops.M_FD.toarray() / d_m[:, None]
    )
    k_fd = ops.K_FD.toarray()
    d_kdk = np.maximum(k_fd @ np.linalg.solve(d_sm, k_fd.sum(axis=0)), 0.0)
    return d_m, d_sm, d_kdk, np.sqrt(d_kdk * d_m)


def test_matched_diagonals_beta_scaling():
    # for large beta the control Schur block is dominated by beta*I and the
    # matching diagonal N decays like beta^{-1/2}
    g = make_star(4)
    mesh = build_mesh(g, 4)

    def diagonals(beta):
        return matched_diagonals(build_operators(mesh, ProblemData(beta=beta, c0=1.0)), beta)

    _, _, _, n_lo = diagonals(1e3)
    _, d_sm_hi, _, n_hi = diagonals(1e5)
    assert np.abs(d_sm_hi.diagonal() - 1e5).max() <= 1e-3 * 1e5
    nz = n_lo > 0
    ratio = n_lo[nz] / n_hi[nz]
    assert np.allclose(ratio, 10.0, rtol=0.15)


def test_matched_lumped_diagonal_support():
    # the lumped matching diagonal lives exactly on free DOFs adjacent to
    # Dirichlet vertices and is nonnegative
    g = make_star(3)
    n_e = 4
    mesh = build_mesh(g, n_e)
    data = ProblemData(beta=0.1, c0=1.0)
    _, _, d_kdk, _ = matched_diagonals(build_operators(mesh, data), data.beta)
    assert np.all(d_kdk >= 0.0)
    expected = np.zeros(mesh.n_free, dtype=bool)
    # the last interior node of every edge, next to its Dirichlet leaf
    expected[mesh.interior_offsets[1:] - 1] = True
    assert np.array_equal(d_kdk > 0, expected)


def test_matched_symmetric_apply_matches_rebuilt_blocks():
    # the symmetric preconditioner is blkdiag(D_M, D_SM, G D_M^{-1} G)^{-1}
    # with G = K_FF + N, from the diagonals rebuilt above
    ops, data = tiny_star_ops(beta=1e-2, leaves=3, n_e=4)
    d_m, d_sm, _, n_diag = matched_diagonals(ops, data.beta)
    g = ops.K_FF.toarray() + np.diag(n_diag)
    n_f, n_d = ops.n_free, ops.n_dirichlet
    r = np.random.default_rng(6).standard_normal(2 * n_f + n_d)
    expected = np.concatenate([
        r[:n_f] / d_m,
        np.linalg.solve(d_sm, r[n_f : n_f + n_d]),
        np.linalg.solve(g, d_m * np.linalg.solve(g, r[n_f + n_d :])),
    ])
    out = build_preconditioner("sym", ops, data).apply(r)
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


def _applies_as_scipy_expressions(ops, beta):
    """The KKT and matched preconditioner applies written with scipy's ``@``
    and fresh arrays, in the association order of the solver's code."""
    n_f, n_d = ops.n_free, ops.n_dirichlet
    d_m, d_sm = optcontrol._mass_diag_schur(ops, beta)
    dsm = linalg.factor(d_sm.tocsc(), "cholesky")
    d_kdk = np.maximum(ops.K_FD @ dsm.solve(np.asarray(ops.K_FD.sum(axis=0)).ravel()), 0.0)
    g = linalg.factor((ops.K_FF + sp.diags(np.sqrt(d_kdk * d_m))).tocsc(), "cholesky")
    cond = ops.condensation()
    gf = cond.kff
    n_k, n_i = gf.k_vi.shape
    cap = scipy.linalg.cho_factor(d_sm.toarray() + cond.gram)

    def kkt(x):
        x1, x2, x3 = x[:n_f], x[n_f : n_f + n_d], x[n_f + n_d :]
        return np.concatenate([
            ops.M_FF @ x1 + ops.M_FD @ x2 + ops.K_FF @ x3,
            ops.M_FD.T @ x1 + ops.M_DD @ x2 + beta * x2 + ops.K_FD.T @ x3,
            ops.K_FF @ x1 + ops.K_FD @ x2,
        ])

    def kff_parts(b):
        x_i0 = scipy.linalg.lapack.dpttrs(*gf.chain, b[:n_i])[0]
        return x_i0, gf.vertex_solve(b[n_i:] - gf.k_vi @ x_i0)

    def join(x_i0, c):
        x = gf.lift @ c
        x[:n_i] += x_i0
        return x

    def kff_solve(b):
        x_i0, x_v = kff_parts(b)
        return join(x_i0, np.concatenate([x_v, np.zeros(n_d)]))

    def head(r):
        return [r[:n_f] / d_m, dsm.solve(r[n_f : n_f + n_d])]

    def sym(r):
        return np.concatenate(head(r) + [g.solve(d_m * g.solve(r[n_f + n_d :]))])

    def nonsym(r):
        # u = y - H s for y = K_FF^{-1} r3 = [x_I0; 0] + lift [x_V; 0],
        # s = (D_SM + gram)^{-1} H^T M_FF y
        x_i0, x_v = kff_parts(r[n_f + n_d :])
        t = cond.mass_lift_t @ x_i0 + cond.b_v @ x_v
        s = scipy.linalg.cho_solve(cap, t[n_k:] + gf.r.T @ gf.vertex_solve(t[:n_k]))
        u = join(x_i0, np.concatenate([x_v - gf.vertex_solve(gf.r @ s), -s]))
        return np.concatenate(head(r) + [kff_solve(ops.M_FF @ u)])

    return kkt, sym, nonsym


def test_applies_match_scipy_expressions_bit_for_bit():
    # the Krylov loops' applies run scipy's matvec kernels directly, on
    # transposes built once, and update in place; every product and sum
    # keeps its order, so the results are the same to the last bit
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(make_fdm_L_graph(10, n_controls=12, seed=3), 8), data)
    kkt = build_kkt(ops, data)
    ref_kkt, ref_sym, ref_nonsym = _applies_as_scipy_expressions(ops, data.beta)
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = rng.standard_normal(kkt.dim)
        assert np.array_equal(kkt.apply(x), ref_kkt(x))
        for kind, ref in (("sym", ref_sym), ("nonsym", ref_nonsym)):
            assert np.array_equal(build_preconditioner(kind, ops, data).apply(x), ref(x))


def test_cached_control_schur_block_equals_uncached_expression_bit_for_bit():
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(make_fdm_L_graph(10, n_controls=12, seed=3), 8), data)
    d_m = ops.M_FF.diagonal()
    coupling = ops.M_FD.T @ sp.diags(1.0 / d_m) @ ops.M_FD
    for beta in (1e-2, 1e-3, 1e-4, 1e-5):
        expected = (ops.M_DD + beta * sp.identity(ops.n_dirichlet, format="csr") - coupling).tocsr()
        got_d_m, d_sm = optcontrol._mass_diag_schur(ops, beta)
        assert np.array_equal(got_d_m, d_m)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(d_sm, part), getattr(expected, part))
    assert ops.mass_diagonal() is ops.mass_diagonal()


def test_nonsym_rejects_capacitance_matrix_not_positive_definite():
    ops, data = tiny_star_ops(beta=1e-2)
    cond = ops.condensation()
    bad = replace(cond, gram=-(1.0 + np.abs(cond.gram).max()) * np.eye(ops.n_dirichlet))
    with pytest.raises(ValueError, match="capacitance matrix .* not positive definite"):
        build_preconditioner("nonsym", replace(ops, _condensation=bad), data)


def test_nonsym_schur_block_matches_dense_inverse():
    # the third block applies S^{-1} for S = K_FF M_FF^{-1} K_FF + K_FD D_SM^{-1} K_FD^T,
    # on a lattice with many Kirchhoff vertices
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(make_fdm_L_graph(6, n_controls=5, seed=2), 3), data)
    pc = build_preconditioner("nonsym", ops, data)
    _, d_sm, _, _ = matched_diagonals(ops, data.beta)
    k_ff, m_ff, k_fd = ops.K_FF.toarray(), ops.M_FF.toarray(), ops.K_FD.toarray()
    s = k_ff @ np.linalg.solve(m_ff, k_ff) + k_fd @ np.linalg.solve(d_sm, k_fd.T)
    n_f, n_d = ops.n_free, ops.n_dirichlet
    r3 = np.random.default_rng(3).standard_normal(n_f)
    out = pc.apply(np.concatenate([np.zeros(n_f + n_d), r3]))
    expected = np.linalg.solve(s, r3)
    assert np.linalg.norm(out[n_f + n_d :] - expected) <= 1e-10 * np.linalg.norm(expected)
    assert not np.any(out[: n_f + n_d])


def test_nonsym_gram_matches_dense_product():
    # 81 controls take two blocks of S solves in the Gram build
    for lattice, n_controls, n_e in ((6, 5, 3), (12, 81, 2)):
        g = make_fdm_L_graph(lattice, n_controls=n_controls, seed=2)
        ops = build_operators(build_mesh(g, n_e), ProblemData(beta=1e-2, c0=2.0))
        k_ff, m_ff, k_fd = ops.K_FF.toarray(), ops.M_FF.toarray(), ops.K_FD.toarray()
        expected = k_fd.T @ np.linalg.solve(k_ff @ np.linalg.solve(m_ff, k_ff), k_fd)
        gram = ops.condensation().gram
        assert np.linalg.norm(gram - expected) <= 1e-12 * np.linalg.norm(expected)


def test_nonsym_preconditioner_reuses_mesh_blocks_bit_identically(monkeypatch):
    # the condensation cached on the operators by an earlier beta is reused,
    # with no further solve or factorization, and gives the same apply as
    # one built afresh
    solves, factors = [], []
    solve, factor = linalg.Factorization.solve, linalg.factor
    monkeypatch.setattr(linalg.Factorization, "solve", lambda f, b: solves.append(f) or solve(f, b))
    monkeypatch.setattr(
        linalg, "factor", lambda a, kind="cholesky": factors.append(a.shape) or factor(a, kind)
    )
    first = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    data = replace(first, beta=1e-4)
    mesh = build_mesh(make_fdm_L_graph(6, n_controls=5, seed=2), 3)
    warm = build_operators(mesh, first)
    build_preconditioner("nonsym", warm, first)
    cond = warm.condensation()
    solves.clear()
    factors.clear()
    pc_warm = build_preconditioner("nonsym", warm, data)
    assert warm.condensation() is cond
    assert not any(f is warm.kff_factor() or f is cond.kff.s_factor for f in solves)
    # only D_SM is factored for the new beta
    assert factors == [(warm.n_dirichlet, warm.n_dirichlet)]
    pc_fresh = build_preconditioner("nonsym", build_operators(mesh, first), data)
    r = np.random.default_rng(5).standard_normal(build_kkt(warm, data).dim)
    assert np.array_equal(pc_warm.apply(r), pc_fresh.apply(r))


def count_chain_solves(monkeypatch):
    """The graph factors whose ``parts`` (a K_FF solve's chain and vertex
    parts) ran, one entry per call, from now on."""
    solves = []
    parts = GraphFactor.parts
    monkeypatch.setattr(GraphFactor, "parts", lambda f, b: solves.append(f) or parts(f, b))
    return solves


def test_nonsym_setup_and_apply_pin_kff_solves(monkeypatch):
    # the setup makes no K_FF solve and the apply exactly two, for few and for
    # many controls; the traced peak of the graph factor and the condensation
    # does not grow with n_D
    solves = count_chain_solves(monkeypatch)
    for n_controls in (3, 81):
        g = make_fdm_L_graph(12, n_controls=n_controls, seed=4)
        ops = build_operators(build_mesh(g, 40), ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0))
        n_f, n_d = ops.n_free, ops.n_dirichlet
        assert n_d == n_controls
        solves.clear()
        tracemalloc.start()
        kff = ops.kff_factor()._lu
        ops.condensation()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        pc = build_preconditioner("nonsym", ops, ops.data)
        assert not any(f is kff for f in solves)
        # the same bound for both n_D on this mesh: 24 doubles per DOF, where
        # one n_f x n_D array would take 81 at n_D = 81 (the build reads ~16)
        assert peak < 8 * 24 * ops.mesh.n_dof
        r = np.random.default_rng(4).standard_normal(2 * n_f + n_d)
        solves.clear()
        pc.apply(r)
        assert sum(f is kff for f in solves) == 2


@settings(derandomize=True, deadline=None, max_examples=40)
@given(controlled_meshes(), st.data())
def test_nonsym_fused_product_is_kkt_after_preconditioner(mesh_and_c0, draw):
    # A P^{-1} with one K_FF solve equals the two applies, on meshes with
    # one interval on some edges, per-edge c0 and ybar, and small betas
    mesh, c0 = mesh_and_c0
    n_edges = mesh.graph.n_edges
    ybar = np.array(draw.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_edges, max_size=n_edges)))
    beta = 10.0 ** draw.draw(st.floats(-5.0, -2.0))
    data = ProblemData(beta=beta, c0=c0, f=1.5, ybar=ybar)
    ops = build_operators(mesh, data)
    kkt = build_kkt(ops, data)
    pc = build_preconditioner("nonsym", ops, data)
    v = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1))).standard_normal(kkt.dim)
    expected = kkt.apply(pc.apply(v))
    fused = pc.fused_product(kkt)(v)
    assert np.linalg.norm(fused - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "graph, n_e",
    [
        pytest.param(make_path(2), 1, id="no-free-dof"),
        pytest.param(make_fdm_L_graph(6, n_controls=5, seed=2), 1, id="no-interior-dof"),
        pytest.param(make_path(2), 4, id="no-kirchhoff-vertex"),
        pytest.param(make_path(2), 2, id="one-interior-dof"),
    ],
)
def test_nonsym_fused_product_on_degenerate_shapes(graph, n_e):
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(graph, n_e), data)
    kkt = build_kkt(ops, data)
    pc = build_preconditioner("nonsym", ops, data)
    v = np.random.default_rng(n_e).standard_normal(kkt.dim)
    expected = kkt.apply(pc.apply(v))
    assert np.linalg.norm(pc.fused_product(kkt)(v) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_nonsym_gmres_makes_one_kff_solve_per_step(monkeypatch):
    # the fused A P^{-1} solves with K_FF once per Arnoldi step; forming and
    # checking the solution applies P^{-1} once more, with two solves
    solves = count_chain_solves(monkeypatch)
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(make_fdm_L_graph(10, n_controls=12, seed=3), 8), data)
    kff = ops.kff_factor()._lu
    solves.clear()
    result, _, _ = solve_kkt(ops, data, "gmres", "nonsym")
    assert result.converged and result.iterations > 10
    assert sum(f is kff for f in solves) == result.iterations + 2


def test_fused_product_needs_the_preconditioners_operators_and_beta():
    ops, data = tiny_star_ops(beta=1e-2)
    pc = build_preconditioner("nonsym", ops, data)
    with pytest.raises(ValueError, match="at beta 0.001, the preconditioner at 0.01"):
        pc.fused_product(build_kkt(ops, replace(data, beta=1e-3)))
    with pytest.raises(ValueError, match="other operators"):
        pc.fused_product(build_kkt(build_operators(ops.mesh, data), data))
    for kind in ("none", "ideal", "sym"):
        assert build_preconditioner(kind, ops, data).fused_product(build_kkt(ops, data)) is None


def test_condensation_without_interior_or_kirchhoff_dofs_solves():
    # one interval per edge (no interior DOF) and a two-vertex path with
    # both ends controlled (no Kirchhoff vertex), also with a single
    # interior DOF, solve and match the oracle
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    for g, n_e, n_interior, n_kirchhoff in (
        (make_fdm_L_graph(6, n_controls=5, seed=2), 1, 0, None),
        (make_path(2), 4, 3, 0),
        (make_path(2), 2, 1, 0),
    ):
        ops = build_operators(build_mesh(g, n_e), data)
        assert ops.mesh.n_interior == n_interior
        assert n_kirchhoff is None or ops.n_free - ops.mesh.n_interior == n_kirchhoff
        sol = solve_ocp(g, n_e, data, tol=1e-10)
        assert sol.stats.converged
        u_oracle = reduced_oracle(g, n_e, data)
        assert np.linalg.norm(sol.u - u_oracle) <= 1e-7 * (1.0 + np.linalg.norm(u_oracle))


def test_matched_symmetric_without_free_dofs_matches_oracle():
    # a two-vertex path at one interval has both ends controlled and no free DOF
    g = make_path(2)
    data = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    assert build_mesh(g, 1).n_free == 0
    u_oracle = reduced_oracle(g, 1, data)
    for solver in ("minres", "gmres"):
        sol = solve_ocp(g, 1, data, solver=solver, precon="sym", tol=1e-10)
        assert sol.stats.converged
        assert np.linalg.norm(sol.u - u_oracle) <= 1e-10 * np.linalg.norm(u_oracle)


def test_floating_component_raises_singular_operator_for_every_precon():
    g = graph_with_floating_triangle()
    for n_e in (2, 7):
        ops = build_operators(build_mesh(g, n_e), ProblemData(beta=1e-2, c0=0.0, f=1.0, ybar=1.0))
        for kind in PRECONDITIONER_KINDS:
            for solver in ("gmres", "minres"):
                with pytest.raises(SingularOperatorError, match=r"vertices \[3, 4, 5\]"):
                    solve_kkt(ops, ops.data, solver=solver, precon=kind)


def test_ideal_preconditioner_size_cap():
    ops, data = tiny_star_ops(n_e=300, leaves=4)
    with pytest.raises(ValueError, match="capped at 2000, got 2398"):
        build_preconditioner("ideal", ops, data)


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 6.0)
    res = gmres(lambda x: x, b, None, tol=1e-10)
    assert res.iterations == 1
    assert res.converged
    assert np.allclose(res.x, b)


def test_krylov_results_that_alias_the_work_vectors():
    # the solvers update the operator's result in place; an operator that
    # returns its input, or one buffer on every call, must not change a
    # solution, and the right-hand side stays as given
    rng = np.random.default_rng(9)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    b_given = b.copy()
    buf = np.empty(12)

    def into_buffer(x):
        np.matmul(a, x, out=buf)
        return buf

    for solve in (gmres, minres):
        fresh = solve(lambda x: a @ x, b, None, tol=1e-12)
        for apply_a, apply_p_inv in ((into_buffer, None), (lambda x: a @ x, lambda r: r)):
            res = solve(apply_a, b, apply_p_inv, tol=1e-12)
            assert res.iterations == fresh.iterations
            assert np.array_equal(res.x, fresh.x)
            assert np.array_equal(res.residuals, fresh.residuals)
        res = solve(lambda x: x, b, lambda r: r, tol=1e-12)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.x, b, rtol=1e-14)
        assert np.array_equal(b, b_given)


def test_gmres_zero_rhs():
    res = gmres(lambda x: x, np.zeros(4))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0.0)


def test_gmres_dense_spd_vs_direct():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    res = gmres(lambda x: a @ x, b, None, tol=1e-10, max_it=40)
    x_ref = scipy.linalg.solve(a, b)
    assert res.converged
    assert np.linalg.norm(res.x - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


def test_gmres_reports_nonconvergence():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 0.1 * np.eye(30)
    b = rng.standard_normal(30)
    res = gmres(lambda x: a @ x, b, None, tol=1e-14, max_it=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.true_residual > 1e-14


def test_gmres_ideal_preconditioner_regression():
    # three exact eigenvalue clusters: convergence in three Arnoldi steps
    g = make_star(3)
    mesh = build_mesh(g, 4)
    data = ProblemData(beta=1e-2, c0=1.0, f=1.0, ybar=1.0)
    ops = build_operators(mesh, data)
    kkt = build_kkt(ops, data)
    pc = build_preconditioner("ideal", ops, data)
    res = gmres(kkt.apply, kkt.rhs, pc.apply, tol=1e-8, max_it=50)
    assert res.converged
    assert res.iterations <= 5
    assert res.iterations == 3


def test_gmres_checks_a_failed_last_candidate_once():
    # apply_ap = d q and apply_a = (d + 1e-6) x disagree, so the Arnoldi
    # process on d breaks down at step 8 with a candidate whose true
    # residual is 1.9e-7: it is checked once, and not formed again after
    # the loop
    d = np.arange(1.0, 9.0)
    calls = []

    def apply_a(x):
        calls.append(1)
        return (d + 1e-6) * x

    b = np.random.default_rng(0).standard_normal(8)
    res = gmres(apply_a, b, apply_ap=lambda q: d * q, tol=1e-10)
    assert res.iterations == 8 and not res.converged
    assert 1e-7 < res.true_residual < 1e-6
    assert len(calls) == 1


def test_gmres_keeps_one_basis():
    # a fixed preconditioner needs no second basis Z = P^{-1} V: x = P^{-1} (V y)
    n, max_it = 20000, 40
    d = np.linspace(1.0, 1e3, n)
    b = np.random.default_rng(5).standard_normal(n)
    tracemalloc.start()
    res = gmres(lambda x: d * x, b, lambda q: q / np.sqrt(d), tol=1e-14, max_it=max_it)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert res.iterations == max_it
    assert peak < 1.5 * 8 * n * (max_it + 1)


def test_gmres_workspace_grows_with_the_steps_run():
    # a cap as large as the system, four distinct eigenvalues: four steps run,
    # and GMRES keeps the basis V and the rotated factor R of those steps,
    # with no (k_max+1) x k_max Hessenberg array beside V
    n = 2000
    d = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
    b = np.random.default_rng(6).standard_normal(n)
    tracemalloc.start()
    res = gmres(lambda x: d * x, b, tol=1e-10, max_it=n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    k = res.iterations
    assert res.converged and k <= 5
    v_bytes = 8 * n * (n + 1)
    # slack: 16 work vectors of length n; about six are live at the peak
    assert peak < v_bytes + 8 * (k + 1) ** 2 + 16 * 8 * n


@pytest.mark.parametrize("solver", [gmres, minres])
def test_krylov_rejects_a_negative_cap(solver):
    b = np.ones(5)
    with pytest.raises(ValueError, match="iteration cap must be at least 0, got -1"):
        solver(lambda x: 2.0 * x, b, max_it=-1)
    # a cap of 0 is valid: no step, not converged
    res = solver(lambda x: 2.0 * x, b, max_it=0)
    assert res.iterations == 0 and not res.converged
    assert np.array_equal(res.x, np.zeros(5))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("solver", [gmres, minres])
def test_krylov_rejects_a_right_hand_side_not_finite(solver, entry):
    # its relative residual is never below tol: the run would go to the cap on NaN
    calls = []

    def apply_a(x):
        calls.append(1)
        return 2.0 * x

    with pytest.raises(ValueError, match=f"right-hand side must be finite, got norm {entry}"):
        solver(apply_a, np.array([1.0, entry, 0.0]))
    assert not calls


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("solver", [gmres, minres])
def test_krylov_rejects_a_tolerance_never_met(solver, tol):
    # such a run would only stop at its cap
    calls = []

    def apply_a(x):
        calls.append(1)
        return 2.0 * x

    with pytest.raises(ValueError, match="tolerance must be positive"):
        solver(apply_a, np.ones(5), tol=tol)
    assert not calls


@pytest.mark.parametrize("beta", [1e4, 1e-10])
@pytest.mark.parametrize("precon", ["ideal", "sym", "nonsym"])
def test_gmres_extreme_beta_true_residual(beta, precon):
    # the residual is taken against the dense KKT matrix, apart from the solver
    data = ProblemData(beta=beta, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(make_fdm_L_graph(10, seed=1), 8), data)
    res, kkt, _ = solve_kkt(ops, data, "gmres", precon, tol=1e-8)
    assert res.converged
    rhs = kkt.rhs
    assert np.linalg.norm(rhs - kkt.as_dense() @ res.x) <= 1e-8 * np.linalg.norm(rhs)


def test_minres_diagonal_indefinite():
    a = np.diag([1.0, -1.0])
    res = minres(lambda x: a @ x, np.array([1.0, 1.0]), None, tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    assert np.allclose(res.x, [1.0, -1.0], atol=1e-10)


def test_minres_frees_its_symmetry_probe():
    # the four probe vectors of the symmetry check are gone before the loop
    # allocates its own: about 12 vectors of length n at the peak, where
    # holding the probe gave 16
    n = 200_000
    d = np.linspace(1.0, 1e3, n)
    b = np.random.default_rng(7).standard_normal(n)
    tracemalloc.start()
    res = minres(lambda x: d * x, b, tol=1e-14, max_it=50)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert res.iterations == 50
    assert peak <= 13 * 8 * n


def test_minres_detects_nonsymmetric_operator():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        minres(lambda x: a @ x, np.ones(2))


def test_minres_matches_conjugate_residual_oracle():
    # on an SPD system unpreconditioned MINRES and the conjugate residual
    # iteration produce the same residual decay
    rng = np.random.default_rng(4)
    m = rng.standard_normal((25, 25))
    a = m @ m.T + 25 * np.eye(25)
    b = rng.standard_normal(25)

    def conjugate_residual(iters):
        x = np.zeros(25)
        r = b.copy()
        p = r.copy()
        ar = a @ r
        ap = ar.copy()
        history = [np.linalg.norm(r)]
        for _ in range(iters):
            rar = r @ ar
            alpha = rar / (ap @ ap)
            x += alpha * p
            r -= alpha * ap
            history.append(np.linalg.norm(r))
            ar = a @ r
            beta = (r @ ar) / rar
            p = r + beta * p
            ap = ar + beta * ap
        return np.array(history)

    res = minres(lambda x: a @ x, b, None, tol=1e-10, max_it=12)
    oracle = conjugate_residual(res.iterations) / np.linalg.norm(b)
    mine = res.residuals
    assert len(mine) == len(oracle)
    assert np.allclose(mine, oracle, rtol=1e-6, atol=1e-12)


def test_minres_agrees_with_gmres_on_kkt():
    # every kind is SPD, so MINRES takes each of them
    ops, data = tiny_star_ops(leaves=3, n_e=4)
    res_g, kkt, _ = solve_kkt(ops, data, solver="gmres", precon="nonsym", tol=1e-10)
    assert res_g.converged
    for kind in PRECONDITIONER_KINDS:
        res_m, _, _ = solve_kkt(ops, data, solver="minres", precon=kind, tol=1e-10)
        assert res_m.converged
        diff = np.linalg.norm(res_g.x - res_m.x) / np.linalg.norm(res_g.x)
        assert diff <= 1e-6


def test_stop_residual_is_the_norm_each_solver_stops_on():
    # MINRES stops on the preconditioned residual, its last history entry;
    # ``residual`` stays the true ||b - A x|| / ||b||.  GMRES stops on the
    # verified true residual, so both numbers are the same there.
    ops, data = tiny_star_ops(leaves=3, n_e=8)
    res, kkt, _ = solve_kkt(ops, data, solver="minres", precon="sym")
    assert res.converged
    assert res.stop_residual == res.residuals[-1] <= 1e-8
    assert res.true_residual == float(np.linalg.norm(kkt.rhs - kkt.apply(res.x)) / np.linalg.norm(kkt.rhs))
    stats = solve_ocp_assembled(ops, data, solver="minres", precon="sym").stats
    assert (stats.stop_residual, stats.residual) == (res.stop_residual, res.true_residual)
    res_g, _, _ = solve_kkt(ops, data, solver="gmres", precon="nonsym")
    assert res_g.stop_residual == res_g.true_residual <= 1e-8
    assert solve_ocp_assembled(ops, data).stats.stop_residual == res_g.true_residual


def test_minres_requires_spd_preconditioner():
    # every kind is SPD, so the guard that remains is MINRES's own check of
    # r . P^{-1} r, here on the nonsymmetric block with its sign flipped
    ops, data = tiny_star_ops()
    kkt = build_kkt(ops, data)
    pc = build_preconditioner("nonsym", ops, data)
    with pytest.raises(ValueError, match="preconditioner is not positive definite"):
        minres(kkt.apply, kkt.rhs, lambda r: -pc.apply(r))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(controlled_meshes(), st.floats(-5.0, 0.0), st.integers(0, 2**32 - 1))
def test_every_preconditioner_kind_is_spd(mesh_and_c0, log_beta, seed):
    # MINRES needs <a, P b> = <b, P a> and <a, P a> > 0 for the map P that
    # ``apply`` computes; matched_symmetric may refuse a mesh at setup
    mesh, c0 = mesh_and_c0
    data = ProblemData(beta=10.0**log_beta, c0=c0, f=1.5, ybar=1.0)
    ops = build_operators(mesh, data)
    a, b = np.random.default_rng(seed).standard_normal((2, 2 * ops.n_free + ops.n_dirichlet))
    for kind in PRECONDITIONER_KINDS:
        try:
            pc = build_preconditioner(kind, ops, data)
        except ValueError as exc:
            refused = "lumped Schur matching diagonal has negative entries"
            if kind == "matched_symmetric" and refused in str(exc):
                continue
            raise
        apa = a @ pc.apply(a)
        assert apa > 0.0
        assert abs(a @ pc.apply(b) - b @ pc.apply(a)) <= 1e-12 * apa


def test_minres_with_nonsym_where_sym_refuses():
    # spokes of 5, 4 and 3 at a controlled centre, c0 = 1, two intervals per
    # edge: c0 h^2 = 6.25 > 6 on the longest spoke turns its K_FD entry
    # -1/h + c0 h/6 positive, and the lumped diagonal of sym goes negative
    g = MetricGraph(4, ((0, 1), (0, 2), (0, 3)), np.array([5.0, 4.0, 3.0]), (0,))
    data = ProblemData(beta=1e-2, c0=1.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(g, 2), data)
    with pytest.raises(ValueError, match="lumped Schur matching diagonal has negative entries"):
        build_preconditioner("sym", ops, data)
    sol = solve_ocp(g, 2, data, solver="minres", precon="nonsym", tol=1e-10)
    u_oracle = reduced_oracle(g, 2, data)
    assert sol.stats.converged
    assert np.linalg.norm(sol.u - u_oracle) <= 1e-12 * np.linalg.norm(u_oracle)


def test_minres_with_nonsym_on_a_fine_mesh():
    # the benchmark's MINRES problem (fdmL:20, 40 controls, ne 128, 71,420
    # DOFs): the exact Schur block takes 22 steps where sym takes 260
    g = make_fdm_L_graph(20, n_controls=40, seed=0)
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(g, 128), data)
    res_m, kkt, _ = solve_kkt(ops, data, solver="minres", precon="nonsym")
    res_g, _, _ = solve_kkt(ops, data, solver="gmres", precon="nonsym")
    assert res_m.converged and res_m.iterations <= 24
    u_m, u_g = kkt.split(res_m.x)[1], kkt.split(res_g.x)[1]
    assert np.linalg.norm(u_m - u_g) <= 1e-6 * np.linalg.norm(u_g)


def test_solve_kkt_unknown_solver():
    ops, data = tiny_star_ops()
    with pytest.raises(ValueError, match="solver"):
        solve_kkt(ops, data, solver="jacobi")


def test_solve_ocp_zero_data_gives_zero():
    g = make_star(3)
    data = ProblemData(beta=0.5, c0=1.0, f=0.0, ybar=0.0)
    sol = solve_ocp(g, 4, data)
    assert np.all(sol.u == 0.0)
    assert np.all(sol.y.values == 0.0)
    assert np.all(sol.p.values == 0.0)
    assert sol.stats.iterations == 0


def test_solve_ocp_block_and_optimality_residuals():
    g = make_fdm_L_graph(8, 6, seed=3)
    data = ProblemData(beta=0.1, c0=2.0, f=1.5, ybar=1.0)
    sol = solve_ocp(g, 8, data, tol=1e-8)
    assert sol.stats.converged
    assert sol.stats.residual <= 1e-8
    assert sol.stats.optimality_residual <= 1e-7
    assert sol.stats.n_dof == g.n_vertices + g.n_edges * 7
    # ||K x - b|| / ||b|| of the returned y, u and p, whose KKT unknown is -p
    ops = build_operators(build_mesh(g, 8), data)
    kkt = build_kkt(ops, data)
    nf = ops.n_free
    x = np.concatenate([sol.y.values[:nf], sol.u, -sol.p.values[:nf]])
    block_res = np.linalg.norm(kkt.apply(x) - kkt.rhs) / np.linalg.norm(kkt.rhs)
    assert block_res <= 1e-7
    assert block_res == pytest.approx(sol.stats.residual, rel=1e-9)


def test_solve_ocp_assembled_reports_at_the_beta_it_solved():
    # one assembly at beta 1e-2 serves a solve at 1e-3, as in the beta sweeps;
    # the objective and the optimality defect belong to the problem at 1e-3
    g = make_fdm_L_graph(10, 12, seed=1)
    assembled_at = ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0)
    data = replace(assembled_at, beta=1e-3)
    ops = build_operators(build_mesh(g, 8), assembled_at)
    shared = solve_ocp_assembled(ops, data).stats
    fresh = solve_ocp(g, 8, data).stats
    assert fresh.converged and fresh.optimality_residual <= 1e-6
    assert shared.iterations == fresh.iterations
    assert shared.objective == fresh.objective
    assert shared.optimality_residual == fresh.optimality_residual
    assert ops.data is assembled_at


def test_solve_on_operators_assembled_with_other_data_raises():
    # K and the loads hold the assembled c0, f and ybar; a solve with other
    # values used to return the assembled problem's solution without an error
    g = make_fdm_L_graph(10, 12, seed=1)
    assembled_at = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    ops = build_operators(build_mesh(g, 8), assembled_at)
    for name, value in (("ybar", 5.0), ("f", 0.0), ("c0", np.full(g.n_edges, 3.0))):
        data = replace(assembled_at, **{name: value})
        with pytest.raises(ValueError, match=name):
            solve_ocp_assembled(ops, data)
        with pytest.raises(ValueError, match=name):
            build_preconditioner("nonsym", ops, data)
    # equal values pass, and samplers must be the very same callable
    ops_arr = build_operators(build_mesh(g, 8), replace(assembled_at, c0=np.full(g.n_edges, 2.0)))
    build_kkt(ops_arr, replace(assembled_at, c0=np.full(g.n_edges, 2.0)))
    sampler = lambda edge, x: 1.0 + 0.0 * x
    ops_fn = build_operators(build_mesh(g, 8), replace(assembled_at, ybar=sampler))
    build_kkt(ops_fn, replace(assembled_at, ybar=sampler))
    with pytest.raises(ValueError, match="ybar"):
        build_kkt(ops_fn, replace(assembled_at, ybar=lambda edge, x: 1.0 + 0.0 * x))


def test_solve_ocp_large_beta_kills_control():
    g = make_fdm_L_graph(8, 6, seed=3)
    small = solve_ocp(g, 8, ProblemData(beta=0.1, c0=2.0, f=1.5, ybar=1.0))
    large = solve_ocp(g, 8, ProblemData(beta=1e6, c0=2.0, f=1.5, ybar=1.0))
    assert np.linalg.norm(large.u) <= 1e-4 * np.linalg.norm(small.u)


def test_solve_ocp_improves_objective():
    g = make_fdm_L_graph(10, 12, seed=1)
    data = ProblemData(beta=0.1, c0=2.0, f=1.5, ybar=1.0)
    sol = solve_ocp(g, 8, data)
    mesh = build_mesh(g, 8)
    ops = build_operators(mesh, data)
    uncontrolled = solve_state(ops, f_vec=ops.f_vec)
    j_zero = objective_value(ops, uncontrolled.y.values, np.zeros(g.n_dirichlet))
    assert sol.stats.objective < j_zero


def test_solve_ocp_matches_reduced_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 5:
        g = random_metric_graph(rng, n_min=4, n_max=12)
        n_e = int(rng.integers(2, 7))
        mesh = build_mesh(g, n_e)
        if mesh.n_dof > 300:
            continue
        data = ProblemData(
            beta=float(rng.uniform(1e-3, 1.0)),
            c0=float(rng.uniform(0.0, 2.0)),
            f=float(rng.uniform(-2.0, 2.0)),
            ybar=float(rng.uniform(-2.0, 2.0)),
        )
        u_oracle = reduced_oracle(g, n_e, data)
        sol = solve_ocp(g, n_e, data, tol=1e-10)
        err = np.linalg.norm(sol.u - u_oracle)
        assert err <= 1e-7 * (1.0 + np.linalg.norm(u_oracle))
        checked += 1


@pytest.mark.parametrize("solver, precon", [("gmres", "nonsym"), ("minres", "nonsym")])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(controlled_meshes(), st.floats(1e-3, 1.0))
def test_solve_ocp_matches_reduced_oracle_on_random_graphs(solver, precon, mesh_and_c0, beta):
    # criterion 3 as a property: both Krylov methods with the nonsymmetric
    # preconditioner give the dense reduced oracle's control, also with edges
    # between two controls and with c0 = 0; the drawn graph is meshed
    # uniformly with the interval count of its first edge.  As in criterion 3
    # the solve asks for 1e-10, which rounding can keep out of reach on tiny
    # meshes of short edges (2 edges of length 0.05, c0 = 0: 1.6e-10 after all
    # 9 steps), so GMRES's true residual is held to the paper's 1e-8.  MINRES
    # stops on the preconditioned residual, so only its control is held.
    mesh, c0 = mesh_and_c0
    g, n_e = mesh.graph, int(mesh.n_intervals[0])
    data = ProblemData(beta=beta, c0=c0, f=1.5, ybar=1.0)
    u_oracle = reduced_oracle(g, n_e, data)
    sol = solve_ocp(g, n_e, data, solver=solver, precon=precon, tol=1e-10)
    if solver == "gmres":
        assert sol.stats.residual <= 1e-8
    assert np.linalg.norm(sol.u - u_oracle) <= 1e-7 * (1.0 + np.linalg.norm(u_oracle))


def test_solve_ocp_matches_reduced_oracle_per_edge_data():
    # f and ybar jump at vertices; the oracle, the objective and the
    # optimality check must all refer to the problem the KKT system solves
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 5:
        g = random_metric_graph(rng, n_min=4, n_max=12)
        n_e = int(rng.integers(2, 7))
        if build_mesh(g, n_e).n_dof > 300:
            continue
        data = ProblemData(
            beta=float(rng.uniform(1e-3, 1.0)),
            c0=rng.uniform(0.0, 2.0, g.n_edges),
            f=rng.uniform(-2.0, 2.0, g.n_edges),
            ybar=rng.uniform(-2.0, 2.0, g.n_edges),
        )
        u_oracle = reduced_oracle(g, n_e, data)
        sol = solve_ocp(g, n_e, data, tol=1e-10)
        assert np.linalg.norm(sol.u - u_oracle) <= 1e-7 * (1.0 + np.linalg.norm(u_oracle))
        assert sol.stats.optimality_residual <= 1e-7
        ops = build_operators(build_mesh(g, n_e), data)
        y = solve_state(ops, u_oracle, f_vec=ops.f_vec).y.values
        j_oracle = objective_value(ops, y, u_oracle)
        assert abs(sol.stats.objective - j_oracle) <= 1e-8 * max(j_oracle, 1.0)
        checked += 1


def test_objective_integrates_per_edge_ybar_edgewise():
    g = make_star(3)
    ybar = np.array([1.0, -2.0, 0.5])
    ops = build_operators(build_mesh(g, 4), ProblemData(beta=1.0, ybar=ybar))
    expected = 0.5 * float(ybar**2 @ g.lengths)
    assert abs(objective_value(ops, np.zeros(ops.mesh.n_dof), np.zeros(g.n_dirichlet)) - expected) <= 1e-14


def test_reduced_oracle_single_control_closed_form():
    g = MetricGraph(2, ((0, 1),), np.ones(1), (1,))
    data = ProblemData(beta=0.3, c0=1.0, f=1.0, ybar=2.0)
    n_e = 8
    u = reduced_oracle(g, n_e, data)
    assert u.shape == (1,)
    # independent dense computation of the 1x1 normal equation
    mesh = build_mesh(g, n_e)
    ops = build_operators(mesh, data)
    kd = ops.K_FD.toarray().ravel()
    kff = ops.K_FF.toarray()
    s = np.zeros(mesh.n_dof)
    s[: ops.n_free] = np.linalg.solve(kff, -kd)
    s[ops.n_free :] = 1.0
    y_f = np.zeros(mesh.n_dof)
    y_f[: ops.n_free] = np.linalg.solve(kff, ops.f_F)
    m = assemble_mass(mesh).toarray()
    gram = s @ (m @ s) + data.beta
    rhs = (nodal_values(mesh, data.ybar) - y_f) @ (m @ s)
    assert abs(u[0] - rhs / gram) <= 1e-10 * max(abs(u[0]), 1.0)


def test_reduced_oracle_beta_limit():
    g = make_star(4)
    data1 = ProblemData(beta=1.0, c0=1.0, f=1.0, ybar=1.0)
    data2 = ProblemData(beta=1e12, c0=1.0, f=1.0, ybar=1.0)
    u1 = reduced_oracle(g, 4, data1)
    u2 = reduced_oracle(g, 4, data2)
    assert np.linalg.norm(u2) <= 1e-9 * np.linalg.norm(u1)


def test_reduced_oracle_cap():
    # 501 controls on about 1,000 DOFs: refused before any solve
    g = make_star(501)
    data = ProblemData(beta=1.0)
    with pytest.raises(ValueError, match="capped at 500 controls, got 501"):
        reduced_oracle(g, 2, data)


def test_iteration_counts_mesh_robust():
    # counts may grow only mildly when the mesh is refined fourfold
    g = make_star(12)
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    its = {}
    for n_e in (16, 64, 256):
        its[n_e] = solve_ocp(g, n_e, data).stats.iterations
    assert its[64] <= 2 * its[16]
    assert its[256] <= 2 * its[64]


def test_iteration_counts_beta_robust_invariant():
    g = make_star(8)
    counts = []
    for beta in (1e-2, 1e-3, 1e-4, 1e-5):
        data = ProblemData(beta=beta, c0=2.0, f=1.5, ybar=1.0)
        counts.append(solve_ocp(g, 32, data).stats.iterations)
    assert max(counts) / min(counts) <= 1.5
