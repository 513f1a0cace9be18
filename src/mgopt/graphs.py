"""Combinatorial and metric graphs: generators and file loaders."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

DIRICHLET = "dirichlet"
KIRCHHOFF = "kirchhoff"


class GraphFormatError(ValueError):
    """A graph file could not be parsed into a valid graph."""


def fisher_yates_choice(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Draw k distinct indices from range(n) by partial Fisher-Yates.

    Uses only ``rng.integers``, so the drawn set depends on nothing but the
    generator state; the result is returned sorted.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} items from a pool of {n}")
    pool = np.arange(n)
    for i in range(k):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool[:k])


@dataclass(frozen=True, eq=False)
class CombinatorialGraph:
    """Undirected weighted graph with a fixed (arbitrary) edge orientation.

    Edges are stored as (tail, head) pairs.  The orientation only signs the
    incidence matrix; assembled operators never depend on it.  Weights are
    positive exactly on edges.  Instances are immutable after construction.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    edge_weights: np.ndarray
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        w = np.atleast_1d(np.asarray(self.edge_weights, dtype=float))
        if w.shape != (len(edges),):
            raise ValueError("edge_weights must hold one value per edge")
        object.__setattr__(self, "edge_weights", w)
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) leaves vertex range 0..{self.n_vertices - 1}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge between {u} and {v}")
            seen.add(key)
        if w.size and np.any(w <= 0):
            raise ValueError("edge weights must be positive (w > 0 iff an edge exists)")
        if self.coordinates is not None:
            xy = np.asarray(self.coordinates, dtype=float)
            if xy.shape != (self.n_vertices, 2):
                raise ValueError("coordinates must be an (n_vertices, 2) array")
            object.__setattr__(self, "coordinates", xy)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def same_graph(a: "MetricGraph", b: "MetricGraph") -> bool:
    """Structural equality of two metric graphs (topology, lengths, node types)."""
    if a is b:
        return True
    return (
        a.base.n_vertices == b.base.n_vertices
        and a.base.edges == b.base.edges
        and np.array_equal(a.lengths, b.lengths)
        and a.dirichlet_nodes == b.dirichlet_nodes
    )


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Combinatorial graph with edge lengths and a Dirichlet/Kirchhoff split."""

    base: CombinatorialGraph
    lengths: np.ndarray
    dirichlet_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        lengths = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        if lengths.shape != (self.base.n_edges,):
            raise ValueError("lengths must hold one value per edge")
        if lengths.size and np.any(lengths <= 0):
            raise ValueError("edge lengths must be positive")
        object.__setattr__(self, "lengths", lengths)
        dn = tuple(sorted(int(v) for v in self.dirichlet_nodes))
        if len(set(dn)) != len(dn):
            raise ValueError("duplicate Dirichlet node")
        if dn and (dn[0] < 0 or dn[-1] >= self.base.n_vertices):
            raise ValueError("Dirichlet node outside vertex range")
        object.__setattr__(self, "dirichlet_nodes", dn)

    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices

    @property
    def n_edges(self) -> int:
        return self.base.n_edges

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.base.edges

    @property
    def n_dirichlet(self) -> int:
        return len(self.dirichlet_nodes)

    @property
    def kirchhoff_nodes(self) -> tuple[int, ...]:
        dset = set(self.dirichlet_nodes)
        return tuple(v for v in range(self.base.n_vertices) if v not in dset)


def make_star(n_leaves: int, leaf_type: str = DIRICHLET) -> MetricGraph:
    """Star graph: one Kirchhoff center (vertex 0) and n_leaves unit-length spokes."""
    if n_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    if leaf_type not in (DIRICHLET, KIRCHHOFF):
        raise ValueError(f"unknown leaf type {leaf_type!r}")
    edges = tuple((0, i + 1) for i in range(n_leaves))
    base = CombinatorialGraph(n_leaves + 1, edges, np.ones(n_leaves))
    dirichlet = tuple(range(1, n_leaves + 1)) if leaf_type == DIRICHLET else ()
    return MetricGraph(base, np.ones(n_leaves), dirichlet)


def make_path(n_vertices: int, end_type: str = DIRICHLET) -> MetricGraph:
    """Path graph on n_vertices with unit edge lengths; both ends typed end_type."""
    if n_vertices < 2:
        raise ValueError("a path needs at least two vertices")
    if end_type not in (DIRICHLET, KIRCHHOFF):
        raise ValueError(f"unknown end type {end_type!r}")
    m = n_vertices - 1
    edges = tuple((i, i + 1) for i in range(m))
    base = CombinatorialGraph(n_vertices, edges, np.ones(m))
    dirichlet = (0, n_vertices - 1) if end_type == DIRICHLET else ()
    return MetricGraph(base, np.ones(m), dirichlet)


def make_fdm_L_graph(N: int, n_controls: int = 12, seed: int = 0) -> MetricGraph:
    """Lattice graph of an L-shaped region with randomly chosen control nodes.

    The vertex set consists of the points of an N x N grid with the closed
    upper-right quadrant removed (N=10 gives 75 vertices); edges connect
    horizontal/vertical lattice neighbours and have unit length.  n_controls
    distinct vertices drawn with the seeded generator become Dirichlet nodes.
    """
    if N < 4:
        raise ValueError("grid parameter N must be at least 4")
    cut = (N + 1) // 2
    ids: dict[tuple[int, int], int] = {}
    coords = []
    for i in range(N):
        for j in range(N):
            if i >= cut and j >= cut:
                continue
            ids[(i, j)] = len(coords)
            coords.append((float(i), float(j)))
    n = len(coords)
    edges = []
    for (i, j), u in ids.items():
        for nb in ((i + 1, j), (i, j + 1)):
            v = ids.get(nb)
            if v is not None:
                edges.append((u, v) if u < v else (v, u))
    edges.sort()
    m = len(edges)
    if n_controls > n:
        raise ValueError(f"cannot place {n_controls} controls on {n} vertices")
    base = CombinatorialGraph(n, tuple(edges), np.ones(m), np.array(coords))
    rng = np.random.default_rng(seed)
    dirichlet = tuple(int(v) for v in fisher_yates_choice(rng, n, n_controls))
    return MetricGraph(base, np.ones(m), dirichlet)


def _coordinate_companion(path: Path) -> Path:
    return path.with_name(f"{path.stem}_coord{path.suffix}")


def load_matrix_market(path) -> CombinatorialGraph:
    """Read an undirected graph from a MatrixMarket coordinate file.

    Each stored off-diagonal entry becomes one undirected edge (duplicates and
    transposed duplicates collapse); stored values become edge weights, while
    pattern matrices get unit weights.  Explicit zeros are ignored, negative
    values are rejected.  A companion file ``<stem>_coord<suffix>`` holding an
    n x 2 array provides vertex coordinates when present.
    """
    path = Path(path)
    try:
        mat = scipy.io.mmread(str(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise GraphFormatError(f"{path}: not a readable MatrixMarket file ({exc})") from exc
    if not sp.issparse(mat):
        raise GraphFormatError(f"{path}: expected a coordinate-format matrix, got an array")
    rows, cols = mat.shape
    if rows != cols:
        raise GraphFormatError(f"{path}: adjacency matrix must be square, got {rows}x{cols}")
    coo = mat.tocoo()
    weights: dict[tuple[int, int], float] = {}
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if i == j or v == 0.0:
            continue
        if v < 0:
            raise GraphFormatError(f"{path}: negative weight {v} at entry ({i + 1}, {j + 1})")
        key = (int(min(i, j)), int(max(i, j)))
        weights.setdefault(key, float(v))
    edges = tuple(sorted(weights))
    wvec = np.array([weights[e] for e in edges]) if edges else np.zeros(0)

    coordinates = None
    companion = _coordinate_companion(path)
    if companion.exists():
        try:
            xy = np.asarray(scipy.io.mmread(str(companion)))
        except Exception as exc:
            raise GraphFormatError(f"{companion}: unreadable coordinate file ({exc})") from exc
        if xy.shape != (rows, 2):
            raise GraphFormatError(
                f"{companion}: coordinate array must be {rows}x2, got {xy.shape}"
            )
        coordinates = xy
    return CombinatorialGraph(rows, edges, wvec, coordinates)


def metric_from_combinatorial(
    base: CombinatorialGraph,
    n_controls: int,
    seed: int = 0,
) -> MetricGraph:
    """Turn a loaded graph into a metric graph with randomly drawn control nodes.

    Edge lengths come from Euclidean vertex distances when coordinates are
    available (degenerate zero distances fall back to 1), else all lengths
    are 1.
    """
    if base.coordinates is not None:
        xy = base.coordinates
        lengths = np.array([np.hypot(*(xy[u] - xy[v])) for u, v in base.edges])
        lengths[lengths == 0.0] = 1.0
    else:
        lengths = np.ones(base.n_edges)
    rng = np.random.default_rng(seed)
    dirichlet = tuple(int(v) for v in fisher_yates_choice(rng, base.n_vertices, n_controls))
    return MetricGraph(base, lengths, dirichlet)


def load_graph_json(path) -> MetricGraph:
    """Read a metric graph from the JSON interchange format.

    Expected layout::

        {"vertices": [{"id": 0, "x": 0.0, "y": 0.0, "type": "dirichlet"}, ...],
         "edges":    [{"u": 0, "v": 1, "length": 1.0, "weight": 1.0}, ...]}

    Omitted length/weight default to 1, omitted type to "kirchhoff"; vertex
    ids must be exactly 0..n-1.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        vertices = payload["vertices"]
        raw_edges = payload["edges"]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError(f"{path}: missing 'vertices' or 'edges'") from exc
    n = len(vertices)
    ids = sorted(int(v["id"]) for v in vertices)
    if ids != list(range(n)):
        raise GraphFormatError(f"{path}: vertex ids must be exactly 0..{n - 1}")
    dirichlet = []
    coords = np.zeros((n, 2))
    have_coords = True
    for v in vertices:
        vid = int(v["id"])
        kind = v.get("type", KIRCHHOFF)
        if kind not in (DIRICHLET, KIRCHHOFF):
            raise GraphFormatError(f"{path}: vertex {vid} has unknown type {kind!r}")
        if kind == DIRICHLET:
            dirichlet.append(vid)
        if "x" in v and "y" in v:
            coords[vid] = (float(v["x"]), float(v["y"]))
        else:
            have_coords = False
    edges, lengths, weights = [], [], []
    for e in raw_edges:
        u, v = int(e["u"]), int(e["v"])
        edges.append((u, v))
        lengths.append(float(e.get("length", 1.0)))
        weights.append(float(e.get("weight", 1.0)))
    base = CombinatorialGraph(
        n, tuple(edges), np.array(weights), coords if have_coords else None
    )
    return MetricGraph(base, np.array(lengths), tuple(dirichlet))
