import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings

from mgopt.assembly import (
    GraphFactor,
    ProblemData,
    SingularOperatorError,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_operators,
    floating_components,
    l2_distance_sq,
)
from mgopt.graphs import (
    MetricGraph,
    make_fdm_L_graph,
    make_path,
    make_star,
)
from mgopt.mesh import ExtendedMesh, build_mesh
from mgopt.pde import solve_state

from helpers import (
    assembly_meshes,
    assert_same_arrays,
    assert_same_matrix,
    controlled_meshes,
    edge_node_dofs,
    element_load,
    element_mass,
    element_stiffness,
    graph_laplacian,
    graph_with_floating_triangle,
    incidence_operators,
    nonuniform_meshes,
    random_metric_graph,
)


def single_edge(length=1.0, dirichlet=(0, 1)):
    return MetricGraph(2, ((0, 1),), np.array([length]), dirichlet)


def test_stiffness_single_edge_two_intervals():
    mesh = build_mesh(single_edge(), 2)
    a = assemble_stiffness(mesh).toarray()
    # dof order (interior; tail, head), h = 1/2
    expected = np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])
    assert np.array_equal(a, expected)


def test_stiffness_row_sums_zero():
    rng = np.random.default_rng(1)
    mesh = build_mesh(random_metric_graph(rng), 4)
    a = assemble_stiffness(mesh)
    assert np.abs(np.asarray(a.sum(axis=1))).max() <= 1e-13


def test_stiffness_single_element_per_edge_is_laplacian():
    g = make_star(3)
    mesh = build_mesh(g, 1)
    a = assemble_stiffness(mesh).toarray()
    lap = graph_laplacian(g).toarray()
    # vertex DOF order: Kirchhoff center first, then leaves
    order = np.argsort(mesh.vertex_dof)
    assert np.array_equal(a, lap[np.ix_(order, order)])


def test_mass_single_interval():
    mesh = build_mesh(single_edge(), 1)
    m = assemble_mass(mesh).toarray()
    assert np.allclose(m, np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, rtol=0, atol=1e-16)


def test_mass_single_edge_two_intervals():
    mesh = build_mesh(single_edge(), 2)
    m = assemble_mass(mesh).toarray()
    expected = np.array([[4.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 2.0]]) / 12.0
    assert np.allclose(m, expected, rtol=0, atol=1e-16)


def test_mass_integrates_constants():
    rng = np.random.default_rng(2)
    g = random_metric_graph(rng)
    mesh = build_mesh(g, 3)
    m = assemble_mass(mesh)
    ones = np.ones(mesh.n_dof)
    assert abs(ones @ (m @ ones) - g.lengths.sum()) <= 1e-12 * g.lengths.sum()


def test_mass_rejects_negative_coefficient():
    mesh = build_mesh(single_edge(), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_mass(mesh, -1.0)


def test_load_constant():
    g = make_star(4)
    mesh = build_mesh(g, 3)
    load = assemble_load(mesh, 1.0)
    assert abs(load.sum() - g.lengths.sum()) <= 1e-12
    assert np.allclose(assemble_load(mesh, 1.5), 1.5 * load, rtol=1e-14)


def test_load_hat_function_is_mass_column():
    mesh = build_mesh(single_edge(), 4)
    m = assemble_mass(mesh)
    k = mesh.interior_offsets[0] + 1  # interior node 2 of edge 0
    hat = np.zeros(mesh.n_dof)
    hat[k] = 1.0

    def sampler(e, x):
        return np.interp(x, mesh.edge_node_positions(e), hat[edge_node_dofs(mesh, e)])

    load = assemble_load(mesh, sampler)
    assert np.allclose(load, m.toarray()[:, k], rtol=0, atol=1e-15)


def test_load_per_edge_jump_at_vertex_hand_values():
    # path 0 - 1 - 2 with one interval per edge, data 3 on the first edge
    # and -1 on the second: every hat function integrates each edge's own
    # constant, so the shared vertex gets (g1 h1 + g2 h2) / 2
    mesh = build_mesh(MetricGraph(3, ((0, 1), (1, 2)), np.array([0.5, 2.0]), (0,)), 1)
    g = np.array([3.0, -1.0])
    load = assemble_load(mesh, g)
    expected = np.zeros(mesh.n_dof)
    expected[mesh.vertex_dof] = [3.0 * 0.5 / 2, (3.0 * 0.5 - 1.0 * 2.0) / 2, -1.0 * 2.0 / 2]
    assert np.allclose(load, expected, rtol=0, atol=1e-15)
    # and the integral of g^2 is taken edge by edge
    assert abs(l2_distance_sq(mesh, np.zeros(mesh.n_dof), g) - (9.0 * 0.5 + 1.0 * 2.0)) <= 1e-14


def test_load_matches_elementwise_assembly():
    # per-edge constants and a sampler that jumps at every vertex, on
    # non-uniform per-edge interval counts
    rng = np.random.default_rng(5)

    def sampler(e, x):
        return e + np.sin(3.0 * x)

    for _ in range(5):
        g = random_metric_graph(rng, n_min=4, n_max=12)
        mesh = ExtendedMesh(g, rng.integers(1, 6, g.n_edges))
        per_edge = rng.uniform(-2.0, 2.0, g.n_edges)
        for data in (per_edge, sampler):
            ref = element_load(mesh, data)
            assert np.abs(assemble_load(mesh, data) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_partition_zero_kirchhoff_dirichlet_block():
    # with interior nodes present, Kirchhoff vertices never couple to
    # Dirichlet vertices directly
    g = make_star(5)
    mesh = build_mesh(g, 4)
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=2.0))
    for fd in (ops.K_FD, ops.M_FD):
        assert np.all(fd.toarray()[mesh.n_interior :, :] == 0.0)
    assert ops.K_FF.shape == ops.M_FF.shape == (mesh.n_free, mesh.n_free)
    assert ops.M_DD.shape == (5, 5)
    assert ops.K_FF.shape[0] + ops.M_DD.shape[0] == mesh.n_dof


def test_partition_single_element_couples_directly():
    g = single_edge(dirichlet=(1,))
    mesh = build_mesh(g, 1)
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=0.0))
    assert ops.K_FD.toarray()[0, 0] == -1.0


def test_partition_transpose_consistency():
    rng = np.random.default_rng(3)
    mesh = build_mesh(random_metric_graph(rng), 3)
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=1.0))
    nf = mesh.n_free
    # the DF block callers read as fd.T, and the blocks cover the operator
    for full, ff, fd, dd in ((ops.K, ops.K_FF, ops.K_FD, None), (assemble_mass(mesh), ops.M_FF, ops.M_FD, ops.M_DD)):
        assert (full[nf:, :nf] - fd.T).count_nonzero() == 0
        assert (full[:nf, :nf] - ff).count_nonzero() == 0
        assert dd is None or (full[nf:, nf:] - dd).count_nonzero() == 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nonuniform_meshes())
def test_formula_matches_elementwise_assembly(mesh_and_c0):
    # criterion 1 as a property: E W E^T and the |E| mass formula equal
    # interval-by-interval assembly on non-uniform per-edge interval counts
    mesh, c0 = mesh_and_c0
    a = assemble_stiffness(mesh).toarray()
    a_ref = element_stiffness(mesh)
    assert np.abs(a - a_ref).max() <= 1e-14 * np.abs(a_ref).max()
    m = assemble_mass(mesh, c0).toarray()
    m_ref = element_mass(mesh, c0)
    assert np.abs(m - m_ref).max() <= 1e-14 * max(np.abs(m_ref).max(), 1e-300)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(assembly_meshes())
# h = 1 and c0 = 6: every off-diagonal of K cancels, in K_FF and in K_FD
@example((ExtendedMesh(MetricGraph(2, ((0, 1),), np.array([2.0]), (1,)), [2]), 6.0, (1.5, 1.5)))
def test_build_operators_equals_incidence_assembly_bit_for_bit(mesh_c0_loads):
    # K, M, the five blocks and both loads, assembled edge by edge on one
    # pattern, equal the incidence-matrix products, sums and slices in
    # format, storage order and every bit: with per-edge lengths, interval
    # counts from 1, c0 that is zero on some edges or cancels -1/h exactly,
    # Dirichlet vertices of degree 1-4, isolated vertices, and scalar,
    # per-edge and sampled loads
    mesh, c0, (f, ybar) = mesh_c0_loads
    data = ProblemData(beta=1.0, c0=c0, f=f, ybar=ybar)
    ops = build_operators(mesh, data)
    expected = incidence_operators(mesh, data)
    # K keeps an exact cancellation as a stored zero, which the incidence
    # sum drops: K and its blocks equal the reference without them
    for name in ("K", "K_FF", "K_FD"):
        got = getattr(ops, name).copy()
        got.eliminate_zeros()
        assert_same_matrix(got, expected.pop(name), name)
    assert_same_arrays(ops, expected)
    # K has M's pattern, and K_FF and K_FD take M_FF's and M_FD's index
    # arrays; the mesh holds no pattern once assembly is done
    m = assemble_mass(mesh)
    assert np.array_equal(ops.K.indices, m.indices) and np.array_equal(ops.K.indptr, m.indptr)
    for k_block, m_block in ((ops.K_FF, ops.M_FF), (ops.K_FD, ops.M_FD)):
        for part in ("indices", "indptr"):
            k_part, m_part = getattr(k_block, part), getattr(m_block, part)
            assert np.shares_memory(k_part, m_part) == (k_part.size > 0)
    assert mesh._operator_pattern is None


@pytest.mark.parametrize(
    "graph, n_e",
    [
        (make_fdm_L_graph(40, n_controls=100, seed=0), 64),
        (make_fdm_L_graph(40, n_controls=400, seed=0), 16),
        (make_fdm_L_graph(20, n_controls=40, seed=0), 128),
        (make_star(12), 256),
    ],
    ids=["solve-L40", "sweep-L40-c400", "minres-L20", "unprecond-star12"],
)
def test_build_operators_equals_incidence_assembly_on_benchmark_meshes(graph, n_e):
    # the benchmark workloads' seed-0 meshes and data (the star's largest)
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    mesh = build_mesh(graph, n_e)
    assert_same_arrays(build_operators(mesh, data), incidence_operators(mesh, data))


def held_bytes(ops) -> int:
    """Bytes of the distinct buffers that ``ops`` and its mesh's operator
    pattern hold, each counted once however many arrays view it."""
    pattern = ops.mesh._operator_pattern
    arrays = []
    for value in (*vars(ops).values(), *(vars(pattern).values() if pattern else ())):
        if sp.issparse(value):
            arrays += [value.data, value.indices, value.indptr]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def test_operators_are_held_once_on_the_minres_benchmark_mesh():
    # the minres-L20 seed-0 mesh (71,420 DOFs): no full M, one FF and one
    # FD index pattern for K and M, no operator pattern kept on the mesh;
    # 13.1 MiB when M, separate K block indices and the pattern were held
    mesh = build_mesh(make_fdm_L_graph(20, n_controls=40, seed=0), 128)
    ops = build_operators(mesh, ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0))
    assert held_bytes(ops) <= 8.5 * 2**20
    for k_block, m_block in ((ops.K_FF, ops.M_FF), (ops.K_FD, ops.M_FD)):
        assert np.shares_memory(k_block.indices, m_block.indices)
        assert np.shares_memory(k_block.indptr, m_block.indptr)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(controlled_meshes())
def test_graph_factor_alone_gives_h(mesh_and_c0):
    # H = K_FF^{-1} K_FD reads only K, so the graph factor holds it with no
    # condensation built: -H s is the free part of the state at control s
    # and no load, and R is K_VD - K_VI K_II^{-1} K_ID, on meshes with
    # one-interval edges, edges between two controls and c0 = 0
    mesh, c0 = mesh_and_c0
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=c0))
    gf = ops.kff_factor()._lu
    n_f, n_i = ops.n_free, mesh.n_interior
    s = np.random.default_rng(n_f).standard_normal(ops.n_dirichlet)
    expected = solve_state(ops, s).y.values[:n_f]
    assert np.linalg.norm(gf.minus_h(0, 0, s) - expected) <= 1e-11 * np.linalg.norm(expected)
    k_ff, k_fd = ops.K_FF.toarray(), ops.K_FD.toarray()
    r = k_fd[n_i:] - k_ff[n_i:, :n_i] @ np.linalg.solve(k_ff[:n_i, :n_i], k_fd[:n_i])
    assert np.linalg.norm(gf.r.toarray() - r) <= 1e-11 * np.linalg.norm(r)
    assert ops._condensation is None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(controlled_meshes())
def test_condensation_matches_harmonic_extension_and_dense_gram(mesh_and_c0):
    # H = K_FF^{-1} K_FD from the graph factor, next to M_FF in the vertex
    # condensation: column j of M_FF H is M_FF times minus the free part of
    # the harmonic extension of control j, H^T M_FF is its transpose, and the
    # Gram matrix is K_FD^T C^{-1} K_FD with C^{-1} = K_FF^{-1} M_FF K_FF^{-1},
    # on meshes with one-interval edges, edges between two controls and c0 = 0
    mesh, c0 = mesh_and_c0
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=c0))
    cond = ops.condensation()
    n_f, n_d = ops.n_free, ops.n_dirichlet
    n_i = mesh.n_interior
    controls = np.eye(n_d)
    # H s is -(y - H s) at y = 0
    zero_i, zero_v = np.zeros(n_i), np.zeros(n_f - n_i)
    mass_h = ops.M_FF @ np.column_stack([-cond.kff.minus_h(zero_i, zero_v, e) for e in controls])
    extension = np.column_stack([solve_state(ops, e).y.values[:n_f] for e in controls])
    expected_mass_h = -(ops.M_FF @ extension)
    assert np.linalg.norm(mass_h - expected_mass_h) <= 1e-11 * np.linalg.norm(expected_mass_h)
    # H^T M_FF y for y = K_FF^{-1} b, given as the graph factor's two parts
    b = np.random.default_rng(n_f).standard_normal(n_f)
    y = cond.kff.solve(b)
    scale = np.linalg.norm(mass_h) * np.linalg.norm(y)
    assert np.linalg.norm(cond.h_t_mass(*cond.kff.parts(b)) - mass_h.T @ y) <= 1e-11 * scale
    k_ff, m_ff, k_fd = ops.K_FF.toarray(), ops.M_FF.toarray(), ops.K_FD.toarray()
    expected = k_fd.T @ np.linalg.solve(k_ff, m_ff @ np.linalg.solve(k_ff, k_fd))
    assert np.linalg.norm(cond.gram - expected) <= 1e-11 * np.linalg.norm(expected)


def assert_kff_solves_match_spsolve(ops, seed=0):
    # a vector right-hand side against SuperLU, to 1e-10 relative; a block of
    # right-hand sides is refused
    fac = ops.kff_factor()
    assert isinstance(fac._lu, GraphFactor)
    b = np.random.default_rng(seed).standard_normal((ops.n_free, 3))
    x = fac.solve(b[:, 0])
    assert x.shape == (ops.n_free,)
    if ops.n_free:
        expected = spla.spsolve(ops.K_FF.tocsc(), b[:, 0])
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fac.solve(b)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(controlled_meshes())
def test_graph_factor_matches_spsolve(mesh_and_c0):
    mesh, c0 = mesh_and_c0
    assert_kff_solves_match_spsolve(build_operators(mesh, ProblemData(beta=1.0, c0=c0)))


def test_graph_factor_without_interior_single_interior_or_kirchhoff_dofs():
    for g, n_e, n_interior, n_kirchhoff in (
        (make_fdm_L_graph(4, n_controls=3, seed=1), 1, 0, None),  # no interior DOF
        (make_fdm_L_graph(4, n_controls=3, seed=1), 2, None, None),  # one per edge
        (make_path(2), 2, 1, 0),  # a single interior DOF: dpttrf at n = 1
        (make_path(2), 5, 4, 0),  # no Kirchhoff vertex
        (make_path(2), 1, 0, 0),  # no free DOF at all
    ):
        mesh = build_mesh(g, n_e)
        assert n_interior is None or mesh.n_interior == n_interior
        assert n_kirchhoff is None or mesh.n_free - mesh.n_interior == n_kirchhoff
        assert_kff_solves_match_spsolve(build_operators(mesh, ProblemData(beta=1.0, c0=0.5)))


def test_operators_symmetric_exactly():
    rng = np.random.default_rng(4)
    mesh = build_mesh(random_metric_graph(rng), 5)
    data = ProblemData(beta=0.5, c0=2.0, f=1.0, ybar=1.0)
    ops = build_operators(mesh, data)
    for mat in (assemble_stiffness(mesh), assemble_mass(mesh), assemble_mass(mesh, data.c0), ops.K):
        assert abs(mat - mat.T).max() == 0.0


def test_positivity():
    rng = np.random.default_rng(5)
    g = random_metric_graph(rng)
    mesh = build_mesh(g, 3)
    m = assemble_mass(mesh)
    ev = np.sort(scipy.linalg.eigvals(m.toarray()).real)
    assert ev[0] > 0.01 * mesh.h_per_edge.min()
    a = assemble_stiffness(mesh)
    for _ in range(20):
        x = rng.standard_normal(mesh.n_dof)
        assert x @ (a @ x) >= -1e-12 * np.linalg.norm(x) ** 2


def test_problem_data_validation():
    with pytest.raises(ValueError, match="positive"):
        ProblemData(beta=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ProblemData(beta=1.0, c0=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ProblemData(beta=1.0, c0=np.array([1.0, -2.0]))
    # a value that is not finite would reach the solve as NaN; each names its field
    for kwargs, message in (
        (dict(beta=np.inf), "beta must be finite, got inf"),
        (dict(beta=np.nan), "beta must be finite, got nan"),
        (dict(beta=1.0, c0=np.inf), "c0 must be finite, got inf"),
        (dict(beta=1.0, c0=np.array([1.0, np.nan])), "c0 must be finite, got nan on edge 1"),
        (dict(beta=1.0, f=np.nan), "f must be finite, got nan"),
        (dict(beta=1.0, ybar=np.array([0.0, 1.0, -np.inf])), "ybar must be finite, got -inf on edge 2"),
        # only f and ybar are sampled; c0 and beta are constants
        (dict(beta=1.0, c0=lambda e, x: x), "c0 cannot be a sampler: only f and ybar are sampled"),
        (dict(beta=lambda e, x: x), "beta cannot be a sampler: only f and ybar are sampled"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProblemData(**kwargs)


def test_kff_factor_requires_coercivity():
    g = MetricGraph(4, ((0, 1), (0, 2), (0, 3)), np.ones(3))  # a star with no Dirichlet node
    mesh = build_mesh(g, 2)
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=0.0))
    with pytest.raises(SingularOperatorError, match="not coercive"):
        ops.kff_factor()
    # a positive potential restores invertibility without Dirichlet nodes
    ops2 = build_operators(mesh, ProblemData(beta=1.0, c0=1.0))
    assert_kff_solves_match_spsolve(ops2)
    # a Dirichlet node elsewhere does not: the floating component's zero
    # pivot may show up only as a tiny positive one after roundoff
    lengths = (0.3, 1.7, 0.9, 1.1, 0.45, 2.3)
    for n_e in (2, 7, 16):
        mesh = build_mesh(graph_with_floating_triangle(lengths), n_e)
        ops3 = build_operators(mesh, ProblemData(beta=1.0, c0=0.0))
        with pytest.raises(SingularOperatorError, match=r"not coercive.*vertices \[3, 4, 5\]"):
            ops3.kff_factor()


def test_floating_components_need_dirichlet_or_potential():
    mesh = build_mesh(graph_with_floating_triangle(), 3)
    (floating,) = floating_components(mesh, 0.0)
    assert floating.tolist() == [3, 4, 5]
    # a potential on one edge of the floating triangle makes it coercive
    assert floating_components(mesh, [0.0, 0.0, 0.0, 0.5, 0.0, 0.0]) == []
    assert floating_components(mesh, [1.0, 1.0, 0.0, 0.0, 0.0, 1.0])[0].tolist() == [3, 4, 5]


def test_load_vectors_split():
    g = make_path(4)
    mesh = build_mesh(g, 2)
    data = ProblemData(beta=1.0, c0=0.0, f=1.5, ybar=1.0)
    ops = build_operators(mesh, data)
    assert np.array_equal(ops.f_F, ops.f_vec[: ops.n_free])
    assert abs(ops.f_vec.sum() - 1.5 * g.lengths.sum()) <= 1e-12
    assert abs(ops.ybar_vec.sum() - g.lengths.sum()) <= 1e-12
