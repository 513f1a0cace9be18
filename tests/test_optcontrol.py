import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dataclasses import replace

from mgopt import linalg, optcontrol
from mgopt.assembly import (
    ProblemData,
    SingularOperatorError,
    build_operators,
)
from mgopt.graphs import CombinatorialGraph, MetricGraph, make_fdm_L_graph, make_path, make_star
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
    element_mass,
    element_stiffness,
    graph_with_floating_triangle,
    random_metric_graph,
    run_one_blas_thread,
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
    ops, data = tiny_star_ops()
    kkt = build_kkt(ops, data)
    with pytest.raises(ValueError, match="capped"):
        kkt.as_dense(cap=3)


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
    g = make_star(3, "kirchhoff")
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


def test_nonsym_setup_and_apply_pin_kff_solves(monkeypatch):
    # the setup makes no K_FF solve and the apply exactly two, for few and for
    # many controls; the traced peak of the graph factor and the condensation
    # does not grow with n_D
    solves = []
    solve = linalg.Factorization.solve
    monkeypatch.setattr(linalg.Factorization, "solve", lambda f, b: solves.append(f) or solve(f, b))
    for n_controls in (3, 81):
        g = make_fdm_L_graph(12, n_controls=n_controls, seed=4)
        ops = build_operators(build_mesh(g, 40), ProblemData(beta=1e-2, c0=2.0, f=1.5, ybar=1.0))
        n_f, n_d = ops.n_free, ops.n_dirichlet
        assert n_d == n_controls
        solves.clear()
        tracemalloc.start()
        kff = ops.kff_factor()
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
            solvers = ("gmres",) if kind == "matched_nonsymmetric" else ("gmres", "minres")
            for solver in solvers:
                with pytest.raises(SingularOperatorError, match=r"vertices \[3, 4, 5\]"):
                    solve_kkt(ops, ops.data, solver=solver, precon=kind)


def test_ideal_preconditioner_size_cap():
    ops, data = tiny_star_ops()
    with pytest.raises(ValueError, match="capped"):
        build_preconditioner("ideal", ops, data, dense_cap=3)


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 6.0)
    res = gmres(lambda x: x, b, None, tol=1e-10)
    assert res.iterations == 1
    assert res.converged
    assert np.allclose(res.x, b)


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


def test_basis_products_split_bit_for_bit():
    # the halves of a split product equal one BLAS call in every bit: n odd
    # and even and around multiples of 64, k around multiples of 8, bases
    # that are leading columns of a wider Fortran-ordered array as in GMRES,
    # and blocks just above the split threshold
    run_one_blas_thread("""
        import numpy as np
        from mgopt import optcontrol

        optcontrol._two_cpus = lambda: True
        halves = []
        in_halves = optcontrol._in_halves
        optcontrol._in_halves = lambda a, b: halves.append(1) or in_halves(a, b)
        rng = np.random.default_rng(0)
        ks = (16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 100, 128, 129)
        shapes = [(n, k) for n in (128, 129, 191, 192, 193, 1000, 1001, 6133, 6134)
                  for k in ks]
        minimum = optcontrol._SPLIT_MIN_ENTRIES
        shapes += [(6134, minimum // 6134 + 1), (minimum // 16 + 1, 16), (minimum // 33 + 63, 33)]
        for n, k in shapes:
            optcontrol._SPLIT_MIN_ENTRIES = 0 if n * k < minimum else minimum
            basis = np.asfortranarray(rng.standard_normal((n, k + 3)))[:, :k]
            w, c = rng.standard_normal(n), rng.standard_normal(k)
            before = len(halves)
            assert np.array_equal(optcontrol._basis_t_dot(basis, w), basis.T @ w), (n, k)
            assert np.array_equal(optcontrol._basis_dot(basis, c), basis @ c), (n, k)
            assert len(halves) == before + 2, (n, k)
    """)


def test_basis_split_follows_cpu_affinity(monkeypatch):
    # above the threshold, with BLAS pinned to one thread, the products split
    # when this process may run on two CPUs (under `taskset -c 0` it may
    # not), and never on one
    monkeypatch.setattr(optcontrol, "_BLAS_ONE_THREAD", True)
    rng = np.random.default_rng(1)
    basis = np.asfortranarray(rng.standard_normal((optcontrol._SPLIT_MIN_ENTRIES // 32 + 64, 32)))
    w, c = rng.standard_normal(basis.shape[0]), rng.standard_normal(32)
    halves = []
    in_halves = optcontrol._in_halves
    monkeypatch.setattr(optcontrol, "_in_halves", lambda a, b: halves.append(1) or in_halves(a, b))
    optcontrol._basis_t_dot(basis, w)
    optcontrol._basis_dot(basis, c)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert len(halves) == (2 if cpus >= 2 else 0)

    halves.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert np.array_equal(optcontrol._basis_t_dot(basis, w), basis.T @ w)
    assert np.array_equal(optcontrol._basis_dot(basis, c), basis @ c)
    assert halves == []


def test_basis_split_needs_one_blas_thread(monkeypatch):
    # with BLAS on more threads than one, a split product is summed in
    # another order than one call, so the products never split
    monkeypatch.setattr(optcontrol, "_BLAS_ONE_THREAD", False)
    monkeypatch.setattr(optcontrol, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(optcontrol, "_two_cpus", lambda: True)
    halves = []
    monkeypatch.setattr(optcontrol, "_in_halves", lambda a, b: halves.append(1))
    basis = np.asfortranarray(np.random.default_rng(3).standard_normal((256, 32)))
    assert np.array_equal(optcontrol._basis_t_dot(basis, np.ones(256)), basis.T @ np.ones(256))
    assert np.array_equal(optcontrol._basis_dot(basis, np.ones(32)), basis @ np.ones(32))
    assert halves == []


@pytest.mark.parametrize("env, one", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, False),
])
def test_blas_one_thread_follows_openblas_variables(monkeypatch, env, one):
    # OpenBLAS takes the first of these that holds a positive number
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert optcontrol._blas_one_thread() is one


def test_basis_split_only_while_one_solve_runs(monkeypatch):
    # GMRES counts the solves running in the process; while another one
    # runs, its thread has the second core and the products run in one call
    monkeypatch.setattr(optcontrol, "_BLAS_ONE_THREAD", True)
    monkeypatch.setattr(optcontrol, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(optcontrol, "_two_cpus", lambda: True)
    a = np.diag(np.arange(1.0, 65.0))
    both_started = threading.Barrier(2, timeout=30)
    seen = {}

    def solve(name):
        def apply_a(q):
            if name not in seen:
                both_started.wait()
                seen[name] = optcontrol._solves
                both_started.wait()  # neither ends before both have looked
            return a @ q
        return optcontrol.gmres(apply_a, np.ones(64), None, tol=1e-10)

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(solve, ("first", "second")))
    assert all(r.converged for r in results)
    assert seen == {"first": 2, "second": 2} and optcontrol._solves == 0
    alone = []
    optcontrol.gmres(lambda q: alone.append(optcontrol._solves) or a @ q, np.ones(64), None)
    assert set(alone) == {1} and optcontrol._solves == 0

    halves = []
    monkeypatch.setattr(optcontrol, "_in_halves", lambda a, b: halves.append(1))
    monkeypatch.setattr(optcontrol, "_solves", 2)
    basis = np.asfortranarray(np.random.default_rng(5).standard_normal((256, 32)))
    assert np.array_equal(optcontrol._basis_t_dot(basis, np.ones(256)), basis.T @ np.ones(256))
    assert np.array_equal(optcontrol._basis_dot(basis, np.ones(32)), basis @ np.ones(32))
    assert halves == []


def test_basis_split_runs_whole_while_helper_busy(monkeypatch):
    # a product that finds the helper in use by another solve computes in
    # one call instead of waiting for it, and the helper serves the next one
    monkeypatch.setattr(optcontrol, "_BLAS_ONE_THREAD", True)
    monkeypatch.setattr(optcontrol, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(optcontrol, "_two_cpus", lambda: True)
    ran = []
    in_halves = optcontrol._in_halves
    monkeypatch.setattr(optcontrol, "_in_halves", lambda a, b: ran.append(in_halves(a, b)) or ran[-1])
    basis = np.asfortranarray(np.random.default_rng(4).standard_normal((256, 32)))
    w, c = np.ones(256), np.ones(32)
    assert optcontrol._helper_free.acquire(blocking=False)
    try:
        assert np.array_equal(optcontrol._basis_t_dot(basis, w), basis.T @ w)
        assert np.array_equal(optcontrol._basis_dot(basis, c), basis @ c)
    finally:
        optcontrol._helper_free.release()
    assert ran == [False, False]
    optcontrol._basis_t_dot(basis, w)
    assert ran == [False, False, True]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_basis_split_in_forked_child():
    # a child forked after the helper thread started gets a helper of its own
    run_one_blas_thread("""
        import os
        import signal
        import numpy as np
        from mgopt import optcontrol

        optcontrol._SPLIT_MIN_ENTRIES = 0
        optcontrol._two_cpus = lambda: True
        basis = np.asfortranarray(np.random.default_rng(2).standard_normal((256, 32)))
        w = np.ones(256)
        optcontrol._basis_t_dot(basis, w)
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)  # a hung child dies rather than outlive the test
            os._exit(0 if np.array_equal(optcontrol._basis_t_dot(basis, w), basis.T @ w) else 1)
        assert os.waitpid(pid, 0)[1] == 0
    """, timeout=60)


def test_gmres_split_basis_bit_for_bit():
    # unpreconditioned star:12 at ne=256 (6,134 unknowns), 400 steps: the
    # split Gram-Schmidt and solution gives the serial x and residuals
    run_one_blas_thread("""
        import numpy as np
        from mgopt import optcontrol
        from mgopt.assembly import ProblemData, build_operators
        from mgopt.graphs import make_star
        from mgopt.mesh import build_mesh

        data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
        ops = build_operators(build_mesh(make_star(12), 256), data)
        kkt = optcontrol.build_kkt(ops, data)
        optcontrol._two_cpus = lambda: True
        runs = []
        for minimum in (2**62, 0):
            optcontrol._SPLIT_MIN_ENTRIES = minimum
            runs.append(optcontrol.gmres(kkt.apply, kkt.rhs, None, tol=1e-8, max_it=400))
        serial, split = runs
        assert serial.iterations == 400 and not serial.converged
        assert np.array_equal(serial.x, split.x)
        assert np.array_equal(serial.residuals, split.residuals)
    """)


def test_minres_diagonal_indefinite():
    a = np.diag([1.0, -1.0])
    res = minres(lambda x: a @ x, np.array([1.0, 1.0]), None, tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    assert np.allclose(res.x, [1.0, -1.0], atol=1e-10)


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
    ops, data = tiny_star_ops(leaves=3, n_e=4)
    res_g, kkt, _ = solve_kkt(ops, data, solver="gmres", precon="nonsym", tol=1e-10)
    res_m, _, _ = solve_kkt(ops, data, solver="minres", precon="sym", tol=1e-10)
    assert res_g.converged and res_m.converged
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
    ops, data = tiny_star_ops()
    with pytest.raises(ValueError, match="SPD"):
        solve_kkt(ops, data, solver="minres", precon="nonsym")


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
    base = CombinatorialGraph(2, ((0, 1),), np.ones(1))
    g = MetricGraph(base, np.ones(1), (1,))
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
    m = ops.M.toarray()
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
    g = make_star(12)
    data = ProblemData(beta=1.0)
    with pytest.raises(ValueError, match="capped"):
        reduced_oracle(g, 2, data, cap=5)


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
