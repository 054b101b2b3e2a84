"""Triangle meshes and the weighted graphs they induce."""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import DisconnectedGraphError, InputError, MeshParseError


@dataclass(frozen=True)
class Mesh:
    """A triangle mesh: 3D vertex positions plus vertex-index triples.

    Immutable after construction. Validated on construction: coordinates
    must be finite, face indices in range, and no face may repeat a vertex.
    """

    vertices: np.ndarray  # (n, 3) float
    faces: np.ndarray     # (f, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=int).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        n = v.shape[0]
        if n < 3:
            raise InputError(f"mesh needs at least 3 vertices, got {n}")
        if not np.isfinite(v).all():
            raise InputError("vertex coordinates must be finite")
        if f.size and (f.min() < 0 or f.max() >= n):
            raise InputError("face index out of range")
        repeats = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeats.any():
            idx = int(repeats.argmax())
            raise InputError(f"face {idx} is degenerate: {tuple(f[idx].tolist())}")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def edges(self) -> np.ndarray:
        """Deduplicated undirected edges (i < j), as an (e, 2) int array."""
        f = self.faces
        pairs = np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        pairs.sort(axis=1)
        # i * n + j orders the pairs lexicographically, as np.unique(axis=0)
        n = self.n_vertices
        key = np.unique(pairs[:, 0] * n + pairs[:, 1])
        return np.column_stack([key // n, key % n])

    def edge_lengths(self) -> np.ndarray:
        """Euclidean lengths of :meth:`edges`, in the same order."""
        return _lengths(self.vertices, self.edges())

    def mean_edge_length(self) -> float:
        return float(self.edge_lengths().mean())


def _lengths(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)


@dataclass(frozen=True)
class Graph:
    """Sparse symmetric non-negative weighted adjacency, its degree data and
    its number of connected components.

    Every stored entry is an edge, a stored zero included.
    """

    adjacency: sparse.csr_matrix
    degrees: np.ndarray = field(init=False)
    volume: float = field(init=False)
    n_components: int = field(init=False)

    def __post_init__(self):
        adj = sparse.csr_matrix(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "degrees", np.asarray(adj.sum(axis=1)).ravel())
        object.__setattr__(self, "volume", float(self.degrees.sum()))
        n_comp, _ = _csgraph_components(adj, directed=False)
        object.__setattr__(self, "n_components", int(n_comp))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_adjacency(cls, adjacency) -> "Graph":
        adj = sparse.csr_matrix(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.isfinite(adj.data).all():
            raise ValueError("weights must be finite")
        if (adj != adj.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have zero diagonal")
        if adj.nnz and adj.data.min() < 0:
            raise ValueError("weights must be non-negative")
        return cls(adjacency=adj)


_FORMATS = ("off", "ply")


def _format(path) -> str:
    """The mesh format named by the extension of ``path``."""
    format = os.path.splitext(path)[1].lower().lstrip(".")
    if format not in _FORMATS:
        raise InputError(f"cannot infer mesh format from {path!r}")
    return format


def load_mesh(path) -> Mesh:
    """Read an OFF or ASCII-PLY triangle mesh; the extension of ``path``,
    ".off" or ".ply", names the format. Each vertex and face block is converted
    in one call, and a parse error still names its line (``MeshParseError.line``);
    other elements' lines and trailing data after the last element are skipped."""
    header = {"off": _off_header, "ply": _ply_header}[_format(path)]
    # a byte that is not UTF-8 decodes to U+FFFD, which float() and int()
    # reject and any stream can print; in a comment it is cut with the comment
    with open(path, encoding="utf-8", errors="replace") as fh:
        # lines end as in iterating over the file; splitlines() also ends them at "\x0c"
        lines = [line.partition("#")[0] for line in fh.read().split("\n")]
    kept = iter([n for n, line in enumerate(lines, start=1) if line.strip()])
    elements, lineno = header(path, ((n, lines[n - 1].split()) for n in kept))
    nv = dict(elements)["vertex"]
    for name, count in elements:
        block = list(itertools.islice(kept, count))
        if name == "vertex":
            vertices = _vertices(path, lines, block)
        elif name == "face":
            faces = _faces(path, lines, block, nv)
        lineno = block[-1] if block else lineno
        if len(block) < count:
            raise MeshParseError(
                path, lineno, f"expected {count} {name} lines, got {len(block)}"
            )
    return Mesh(vertices=vertices, faces=faces)


def _count(token: str) -> int:
    n = int(token)
    if not 0 <= n <= sys.maxsize:  # no list holds more lines than sys.maxsize
        raise ValueError(f"count {n} out of range")
    return n


def _off_header(path, lines):
    """The declared ``[(element, count)]`` and the line number of the counts."""
    lineno, tok = next(lines, (1, None))
    if tok is None:
        raise MeshParseError(path, 1, "empty file")
    if tok == ["OFF"]:
        lineno, tok = next(lines, (lineno, None))
        if tok is None:
            raise MeshParseError(path, lineno, "missing counts line")
    elif tok[0] == "OFF":
        tok = tok[1:]
    if len(tok) < 2:
        raise MeshParseError(path, lineno, "expected 'nv nf [ne]' counts")
    try:
        return [("vertex", _count(tok[0])), ("face", _count(tok[1]))], lineno
    except ValueError:
        raise MeshParseError(path, lineno, f"bad counts line: {' '.join(tok)}")


def _ply_header(path, lines):
    """The declared ``[(element, count)]`` and the line number of end_header."""
    lineno, tok = next(lines, (1, []))
    if tok != ["ply"]:
        raise MeshParseError(path, lineno, "missing 'ply' magic")
    elements = []
    for lineno, tok in lines:
        if tok[0] == "format":
            if tok[1:2] != ["ascii"]:
                raise MeshParseError(path, lineno, "only ascii PLY is supported")
        elif tok[0] == "element":
            try:
                elements.append((tok[1], _count(tok[2])))
            except (ValueError, IndexError):
                raise MeshParseError(path, lineno, f"bad element line: {' '.join(tok)}")
        elif tok[0] == "end_header":
            break
        elif tok[0] not in ("property", "comment", "obj_info"):
            raise MeshParseError(path, lineno, f"unexpected header line: {' '.join(tok)}")
    else:
        raise MeshParseError(path, lineno, "missing end_header")
    if not {"vertex", "face"} <= {name for name, _ in elements}:
        raise MeshParseError(path, lineno, "header must declare vertex and face elements")
    return elements, lineno


def _vertices(path, lines, block) -> np.ndarray:
    values = itertools.chain.from_iterable(lines[n - 1].split()[:3] for n in block)
    try:  # too few values unless every line has 3 or more
        return np.fromiter(map(float, values), float, 3 * len(block)).reshape(-1, 3)
    except ValueError:
        for lineno in block:  # raise the error of the first bad line
            tok = lines[lineno - 1].split()
            if len(tok) < 3:
                raise MeshParseError(path, lineno, "vertex line needs 3 coordinates")
            try:
                [float(x) for x in tok[:3]]
            except ValueError:
                raise MeshParseError(path, lineno, f"bad vertex line: {' '.join(tok)}")
        raise


def _faces(path, lines, block, nv: int) -> np.ndarray:
    values = itertools.chain.from_iterable(lines[n - 1].split()[:4] for n in block)
    try:  # a line that is not '3 i j k' with each index in [0, nv) fails too
        f = np.fromiter(map(int, values), int, 4 * len(block)).reshape(-1, 4)
        if (f[:, 0] != 3).any() or (f[:, 1:] < 0).any() or (f[:, 1:] >= nv).any():
            raise ValueError
    except (ValueError, OverflowError):
        for lineno in block:  # raise the error of the first bad line
            tok = lines[lineno - 1].split()
            try:
                count = int(tok[0])
                idx = [int(x) for x in tok[1:1 + count]]
            except ValueError:
                raise MeshParseError(path, lineno, f"bad face line: {' '.join(tok)}")
            if count != 3 or len(idx) != 3:
                raise MeshParseError(path, lineno, "only triangular faces are supported")
            if max(idx) >= nv or min(idx) < 0:
                raise MeshParseError(path, lineno, f"face index out of range: {idx}")
        raise
    return f[:, 1:].copy()


_HEADERS = {
    "off": "OFF\n{nv} {nf} 0\n",
    "ply": (
        "ply\nformat ascii 1.0\nelement vertex {nv}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face {nf}\nproperty list uchar int vertex_indices\nend_header\n"
    ),
}


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as OFF or ASCII PLY, as the extension of ``path`` names
    (round-trips with :func:`load_mesh`)."""
    header = _HEADERS[_format(path)]
    with open(path, "w") as fh:
        fh.write(header.format(nv=mesh.n_vertices, nf=mesh.n_faces))
        fh.write("%.17g %.17g %.17g\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist()))
        fh.write("3 %d %d %d\n" * mesh.n_faces % tuple(mesh.faces.ravel().tolist()))


def _edge_matrix(mesh: Mesh, weight=None) -> sparse.csr_matrix:
    """Symmetric n x n matrix with entries (i, j) and (j, i) of each edge
    set to ``weight`` of the edge lengths, or to the lengths themselves."""
    e = mesh.edges()
    w = _lengths(mesh.vertices, e)
    if weight is not None:
        w = weight(w)
    n = mesh.n_vertices
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return sparse.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def build_graph(mesh: Mesh) -> Graph:
    """Build the Gaussian-weighted graph of a mesh's 1-skeleton.

    Edges are the deduplicated union of face edges, each weighted
    exp(-len^2 / sigma^2) with its Euclidean length. sigma is the mean
    edge length, which keeps the weights scale-equivariant.
    """
    def weight(lengths):
        s = float(lengths.mean())
        if s <= 0:
            raise InputError("every edge of the mesh has length 0")
        return np.exp(-(lengths ** 2) / s ** 2)

    if mesh.n_faces == 0:
        # no edges: every vertex is its own component (and there is no
        # edge length to take a mean of)
        raise DisconnectedGraphError(mesh.n_vertices)

    # finite coordinates of 1e200 still square to inf
    with np.errstate(over="raise", invalid="raise"):
        try:
            adj = _edge_matrix(mesh, weight)
        except FloatingPointError as exc:
            raise InputError(f"the edge lengths of the mesh overflow ({exc})") from None
    # a weight that underflowed to 0 joins nothing in the Laplacian
    adj.eliminate_zeros()
    graph = Graph(adjacency=adj)
    if graph.n_components != 1:
        raise DisconnectedGraphError(graph.n_components)
    return graph
