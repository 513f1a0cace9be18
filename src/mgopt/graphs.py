"""Metric graphs: generators and file loaders."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
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


def same_graph(a: "MetricGraph", b: "MetricGraph") -> bool:
    """Structural equality of two metric graphs (topology, lengths, node types)."""
    if a is b:
        return True
    return (
        a.n_vertices == b.n_vertices
        and a.edges == b.edges
        and np.array_equal(a.lengths, b.lengths)
        and a.dirichlet_nodes == b.dirichlet_nodes
    )


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Undirected graph with an edge length each and a Dirichlet/Kirchhoff split.

    Edges are stored as (tail, head) pairs.  The orientation only signs the
    incidence matrix; assembled operators never depend on it.  Instances are
    immutable after construction.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    lengths: np.ndarray
    dirichlet_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
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
        lengths = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        if lengths.shape != (len(edges),):
            raise ValueError("lengths must hold one value per edge")
        bad = np.flatnonzero(~(np.isfinite(lengths) & (lengths > 0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"edge {k} {edges[k]} has length {lengths[k]}: edge lengths must be positive and finite"
            )
        object.__setattr__(self, "lengths", lengths)
        dn = tuple(sorted(int(v) for v in self.dirichlet_nodes))
        if len(set(dn)) != len(dn):
            raise ValueError("duplicate Dirichlet node")
        if dn and (dn[0] < 0 or dn[-1] >= self.n_vertices):
            raise ValueError("Dirichlet node outside vertex range")
        object.__setattr__(self, "dirichlet_nodes", dn)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_dirichlet(self) -> int:
        return len(self.dirichlet_nodes)

    @property
    def kirchhoff_nodes(self) -> tuple[int, ...]:
        dset = set(self.dirichlet_nodes)
        return tuple(v for v in range(self.n_vertices) if v not in dset)


def make_star(n_leaves: int) -> MetricGraph:
    """Star graph: one Kirchhoff center (vertex 0) and n_leaves unit-length
    spokes ending in Dirichlet leaves."""
    if n_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    edges = tuple((0, i + 1) for i in range(n_leaves))
    return MetricGraph(n_leaves + 1, edges, np.ones(n_leaves), tuple(range(1, n_leaves + 1)))


def make_path(n_vertices: int) -> MetricGraph:
    """Path graph on n_vertices with unit edge lengths and Dirichlet ends."""
    if n_vertices < 2:
        raise ValueError("a path needs at least two vertices")
    edges = tuple((i, i + 1) for i in range(n_vertices - 1))
    return MetricGraph(n_vertices, edges, np.ones(n_vertices - 1), (0, n_vertices - 1))


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
    for i in range(N):
        for j in range(N):
            if i < cut or j < cut:
                ids[(i, j)] = len(ids)
    n = len(ids)
    edges = []
    for (i, j), u in ids.items():
        for nb in ((i + 1, j), (i, j + 1)):
            v = ids.get(nb)
            if v is not None:
                edges.append((u, v) if u < v else (v, u))
    edges.sort()
    if n_controls > n:
        raise ValueError(f"cannot place {n_controls} controls on {n} vertices")
    rng = np.random.default_rng(seed)
    dirichlet = tuple(int(v) for v in fisher_yates_choice(rng, n, n_controls))
    return MetricGraph(n, tuple(edges), np.ones(len(edges)), dirichlet)


def _coordinate_companion(path: Path) -> Path:
    return path.with_name(f"{path.stem}_coord{path.suffix}")


def load_matrix_market(path, n_controls: int = 12, seed: int = 0) -> MetricGraph:
    """Read a metric graph from a MatrixMarket coordinate file.

    Each stored off-diagonal entry becomes one undirected edge (duplicates and
    transposed duplicates collapse).  Explicit zeros are ignored, negative
    values are rejected; other stored values are not used.  A companion file
    ``<stem>_coord<suffix>`` holding an n x 2 array of vertex positions,
    when present, gives each edge its Euclidean length (a zero distance
    falls back to 1); without one every length is 1.  n_controls distinct
    vertices drawn with the seeded generator become Dirichlet nodes.
    """
    import scipy.io  # here, not at import: no solve reads a MatrixMarket file

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
    keys = set()
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if i == j or v == 0.0:
            continue
        if v < 0:
            raise GraphFormatError(f"{path}: negative weight {v} at entry ({i + 1}, {j + 1})")
        keys.add((int(min(i, j)), int(max(i, j))))
    edges = tuple(sorted(keys))

    companion = _coordinate_companion(path)
    if companion.exists():
        try:
            xy = np.asarray(scipy.io.mmread(str(companion)), dtype=float)
        except Exception as exc:
            raise GraphFormatError(f"{companion}: unreadable coordinate file ({exc})") from exc
        if xy.shape != (rows, 2):
            raise GraphFormatError(
                f"{companion}: coordinate array must be {rows}x2, got {xy.shape}"
            )
        lengths = np.array([np.hypot(*(xy[u] - xy[v])) for u, v in edges])
        lengths[lengths == 0.0] = 1.0
    else:
        lengths = np.ones(len(edges))
    rng = np.random.default_rng(seed)
    dirichlet = tuple(int(v) for v in fisher_yates_choice(rng, rows, n_controls))
    return MetricGraph(rows, edges, lengths, dirichlet)


def _json_entries(path: Path, payload, key: str) -> list:
    try:
        return list(payload[key])
    except (TypeError, KeyError) as exc:
        raise GraphFormatError(f"{path}: needs a list of {key!r}") from exc


def _json_field(path: Path, what: str, index: int, entry, key: str, convert, default=None):
    """``convert(entry[key])`` for the index-th vertex or edge of a JSON graph,
    or ``default`` when the key is absent and a default is given; any other
    fault raises GraphFormatError naming the entry.  A boolean is such a
    fault, not read as 0 or 1, and with ``convert=int`` so is a number with a
    fractional part, not truncated."""
    def fault(text):
        return GraphFormatError(f"{path}: {what} entry {index} ({json.dumps(entry)}) {text}")

    if not isinstance(entry, dict):
        raise fault("is not an object")
    if key not in entry:
        if default is None:
            raise fault(f"has no {key!r}")
        return default
    value = entry[key]
    if isinstance(value, bool) or (convert is int and isinstance(value, float) and not value.is_integer()):
        raise fault(f"has a non-{'integer' if convert is int else 'numeric'} {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise fault(f"has a non-numeric {key!r}") from exc


def load_graph_json(path) -> MetricGraph:
    """Read a metric graph from the JSON interchange format.

    Expected layout::

        {"vertices": [{"id": 0, "type": "dirichlet"}, ...],
         "edges":    [{"u": 0, "v": 1, "length": 1.0}, ...]}

    An omitted length defaults to 1, an omitted type to "kirchhoff"; vertex
    ids must be exactly 0..n-1.  Other keys are ignored.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON ({exc})") from exc
    vertices = _json_entries(path, payload, "vertices")
    raw_edges = _json_entries(path, payload, "edges")
    n = len(vertices)
    ids = [_json_field(path, "vertex", k, v, "id", int) for k, v in enumerate(vertices)]
    if sorted(ids) != list(range(n)):
        raise GraphFormatError(f"{path}: vertex ids must be exactly 0..{n - 1}")
    dirichlet = []
    for vid, v in zip(ids, vertices):
        kind = v.get("type", KIRCHHOFF)
        if kind not in (DIRICHLET, KIRCHHOFF):
            raise GraphFormatError(f"{path}: vertex {vid} has unknown type {kind!r}")
        if kind == DIRICHLET:
            dirichlet.append(vid)
    edges, lengths = [], []
    for k, e in enumerate(raw_edges):
        edges.append((_json_field(path, "edge", k, e, "u", int), _json_field(path, "edge", k, e, "v", int)))
        lengths.append(_json_field(path, "edge", k, e, "length", float, 1.0))
    return MetricGraph(n, tuple(edges), np.array(lengths), tuple(dirichlet))
