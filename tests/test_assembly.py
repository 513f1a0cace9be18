import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from mgopt.assembly import (
    ProblemData,
    SingularOperatorError,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_operators,
    floating_components,
    l2_distance_sq,
    partition_blocks,
)
from mgopt.graphs import (
    CombinatorialGraph,
    MetricGraph,
    graph_laplacian,
    make_fdm_L_graph,
    make_path,
    make_star,
)
from mgopt.linalg import dense_eigs
from mgopt.mesh import ExtendedMesh, build_mesh
from mgopt.pde import harmonic_extension

from helpers import (
    element_load,
    element_mass,
    element_stiffness,
    graph_with_floating_triangle,
    random_metric_graph,
)


def single_edge(length=1.0, dirichlet=(0, 1)):
    base = CombinatorialGraph(2, ((0, 1),), np.ones(1))
    return MetricGraph(base, np.array([length]), dirichlet)


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
        return np.interp(x, mesh.edge_node_positions(e), hat[mesh.edge_node_dofs(e)])

    load = assemble_load(mesh, sampler)
    assert np.allclose(load, m.toarray()[:, k], rtol=0, atol=1e-15)


def test_load_per_edge_jump_at_vertex_hand_values():
    # path 0 - 1 - 2 with one interval per edge, data 3 on the first edge
    # and -1 on the second: every hat function integrates each edge's own
    # constant, so the shared vertex gets (g1 h1 + g2 h2) / 2
    base = CombinatorialGraph(3, ((0, 1), (1, 2)), np.ones(2))
    mesh = build_mesh(MetricGraph(base, np.array([0.5, 2.0]), (0,)), 1)
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
    k = assemble_stiffness(mesh) + assemble_mass(mesh, 2.0)
    blocks = partition_blocks(k, mesh)
    kirchhoff_rows = blocks.fd.toarray()[mesh.n_interior :, :]
    assert np.all(kirchhoff_rows == 0.0)
    assert blocks.ff.shape == (mesh.n_free, mesh.n_free)
    assert blocks.dd.shape == (5, 5)
    assert blocks.ff.shape[0] + blocks.dd.shape[0] == mesh.n_dof


def test_partition_single_element_couples_directly():
    g = single_edge(dirichlet=(1,))
    mesh = build_mesh(g, 1)
    k = assemble_stiffness(mesh)
    blocks = partition_blocks(k, mesh)
    assert blocks.fd.toarray()[0, 0] == -1.0


def test_partition_transpose_consistency():
    rng = np.random.default_rng(3)
    mesh = build_mesh(random_metric_graph(rng), 3)
    k = assemble_stiffness(mesh) + assemble_mass(mesh, 1.0)
    blocks = partition_blocks(k, mesh)
    assert (blocks.df - blocks.fd.T).count_nonzero() == 0


@st.composite
def nonuniform_meshes(draw):
    """A random connected graph, edges in random orientation, meshed with its
    own interval count on each edge, and a per-edge mass coefficient."""
    n = draw(st.integers(2, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    m = len(edges)
    lengths = draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m))
    dirichlet = draw(st.sets(st.integers(0, n - 1), max_size=n))
    counts = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    c0 = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    base = CombinatorialGraph(n, tuple(edges), np.ones(m))
    return ExtendedMesh(MetricGraph(base, np.array(lengths), tuple(dirichlet)), counts), np.array(c0)


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


@st.composite
def controlled_meshes(draw):
    """A ``nonuniform_meshes`` draw with at least one control vertex, which
    anchors the connected graph also where c0 = 0; sometimes both ends of
    its first edge are controls, and sometimes c0 vanishes on every edge."""
    mesh, c0 = draw(nonuniform_meshes())
    g = mesh.graph
    dirichlet = set(g.dirichlet_nodes) | {draw(st.integers(0, g.n_vertices - 1))}
    if draw(st.booleans()):
        dirichlet |= set(g.edges[0])
    if draw(st.booleans()):
        c0 = np.zeros_like(c0)
    return ExtendedMesh(MetricGraph(g.base, g.lengths, tuple(dirichlet)), mesh.n_intervals), c0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(controlled_meshes())
def test_condensation_matches_harmonic_extension_and_dense_gram(mesh_and_c0):
    # H = K_FF^{-1} K_FD from the vertex condensation, which keeps it next to
    # M_FF: column j of M_FF H is M_FF times minus the free part of the
    # harmonic extension of control j, H^T M_FF is its transpose, and the
    # Gram matrix is K_FD^T C^{-1} K_FD with C^{-1} = K_FF^{-1} M_FF K_FF^{-1},
    # on meshes with one-interval edges, edges between two controls and c0 = 0
    mesh, c0 = mesh_and_c0
    ops = build_operators(mesh, ProblemData(beta=1.0, c0=c0))
    cond = ops.condensation()
    n_f, n_d = ops.n_free, ops.n_dirichlet
    controls = np.eye(n_d)
    mass_h = np.column_stack([cond.mass_h(e) for e in controls])
    extension = np.column_stack([harmonic_extension(ops, e).values[:n_f] for e in controls])
    expected_mass_h = -(ops.M_FF @ extension)
    assert np.linalg.norm(mass_h - expected_mass_h) <= 1e-11 * np.linalg.norm(expected_mass_h)
    v = np.random.default_rng(n_f).standard_normal(n_f)
    scale = np.linalg.norm(mass_h) * np.linalg.norm(v)
    assert np.linalg.norm(cond.h_t_mass(v) - mass_h.T @ v) <= 1e-11 * scale
    k_ff, m_ff, k_fd = ops.K_FF.toarray(), ops.M_FF.toarray(), ops.K_FD.toarray()
    expected = k_fd.T @ np.linalg.solve(k_ff, m_ff @ np.linalg.solve(k_ff, k_fd))
    assert np.linalg.norm(cond.gram - expected) <= 1e-11 * np.linalg.norm(expected)


def assert_kff_solves_match_spsolve(ops, seed=0):
    # 1-D and 2-D right-hand sides against SuperLU, to 1e-10 relative
    fac = ops.kff_factor()
    assert fac.kind == "graph"
    b = np.random.default_rng(seed).standard_normal((ops.n_free, 3))
    for rhs in (b[:, 0], b):
        x = fac.solve(rhs)
        assert x.shape == rhs.shape
        if ops.n_free:
            expected = spla.spsolve(ops.K_FF.tocsc(), rhs)
            assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


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
    for mat in (ops.A, ops.M, assemble_mass(mesh, data.c0), ops.K):
        assert abs(mat - mat.T).max() == 0.0


def test_positivity():
    rng = np.random.default_rng(5)
    g = random_metric_graph(rng)
    mesh = build_mesh(g, 3)
    m = assemble_mass(mesh)
    ev = np.sort(dense_eigs(m).real)
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


def test_kff_factor_requires_coercivity():
    g = make_star(3, "kirchhoff")
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
