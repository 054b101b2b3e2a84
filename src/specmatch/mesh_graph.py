"""Triangle meshes and the weighted graphs they induce."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import DegenerateFaceError, DisconnectedGraphError, MeshParseError


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
            raise ValueError(f"mesh needs at least 3 vertices, got {n}")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if f.size and (f.min() < 0 or f.max() >= n):
            raise ValueError("face index out of range")
        repeats = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeats.any():
            idx = int(repeats.argmax())
            raise DegenerateFaceError(idx, f[idx])

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
    """Sparse symmetric non-negative weighted adjacency with degree data."""

    n: int
    adjacency: sparse.csr_matrix
    degrees: np.ndarray = field(default=None)
    volume: float = field(default=None)

    def __post_init__(self):
        adj = sparse.csr_matrix(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        if self.degrees is None:
            object.__setattr__(self, "degrees", np.asarray(adj.sum(axis=1)).ravel())
        if self.volume is None:
            object.__setattr__(self, "volume", float(self.degrees.sum()))

    @classmethod
    def from_adjacency(cls, adjacency) -> "Graph":
        adj = sparse.csr_matrix(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if (adj != adj.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have zero diagonal")
        if adj.nnz and adj.data.min() < 0:
            raise ValueError("weights must be non-negative")
        return cls(n=adj.shape[0], adjacency=adj)


_FORMATS = ("off", "ply")


def _format(path, format: str | None) -> str:
    """``format`` checked, or inferred from the extension of ``path``."""
    if format is None:
        format = os.path.splitext(path)[1].lower().lstrip(".")
        if format not in _FORMATS:
            raise ValueError(f"cannot infer mesh format from {path!r}")
    elif format not in _FORMATS:
        raise ValueError(f"unsupported mesh format {format!r}")
    return format


def load_mesh(path, format: str | None = None) -> Mesh:
    """Read an OFF or ASCII-PLY triangle mesh.

    ``format`` is "off" or "ply"; inferred from the extension when omitted.
    """
    header = {"off": _off_header, "ply": _ply_header}[_format(path, format)]
    lines = _tokens(path)
    elements, lineno = header(path, lines)
    return _read_elements(path, lines, elements, lineno)


def _tokens(path):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _count(token: str) -> int:
    n = int(token)
    if n < 0:
        raise ValueError(f"negative count {n}")
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


def _read_elements(path, lines, elements, lineno) -> Mesh:
    """Parse the declared elements in order, skipping the lines of elements
    other than vertex and face. ``lineno`` is the last header line."""
    counts = dict(elements)
    vertices = np.empty((counts["vertex"], 3))
    faces = np.empty((counts["face"], 3), dtype=int)
    for name, count in elements:
        read = 0
        for lineno, tok in itertools.islice(lines, count):
            if name == "vertex":
                vertices[read] = _vertex(path, lineno, tok)
            elif name == "face":
                faces[read] = _face(path, lineno, tok, len(vertices))
            read += 1
        if read < count:
            raise MeshParseError(
                path, lineno, f"expected {count} {name} lines, got {read}"
            )
    # trailing data after the declared elements is tolerated in the wild
    return Mesh(vertices=vertices, faces=faces)


def _vertex(path, lineno, tok) -> list[float]:
    if len(tok) < 3:
        raise MeshParseError(path, lineno, "vertex line needs 3 coordinates")
    try:
        return [float(x) for x in tok[:3]]
    except ValueError:
        raise MeshParseError(path, lineno, f"bad vertex line: {' '.join(tok)}")


def _face(path, lineno, tok, nv: int) -> list[int]:
    try:
        count = int(tok[0])
        idx = [int(x) for x in tok[1:1 + count]]
    except ValueError:
        raise MeshParseError(path, lineno, f"bad face line: {' '.join(tok)}")
    if count != 3 or len(idx) != 3:
        raise MeshParseError(path, lineno, "only triangular faces are supported")
    if max(idx) >= nv or min(idx) < 0:
        raise MeshParseError(path, lineno, f"face index out of range: {idx}")
    return idx


_HEADERS = {
    "off": "OFF\n{nv} {nf} 0\n",
    "ply": (
        "ply\nformat ascii 1.0\nelement vertex {nv}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face {nf}\nproperty list uchar int vertex_indices\nend_header\n"
    ),
}


def save_mesh(mesh: Mesh, path, format: str | None = None) -> None:
    """Write a mesh as OFF or ASCII PLY (round-trips with :func:`load_mesh`)."""
    header = _HEADERS[_format(path, format)]
    with open(path, "w") as fh:
        fh.write(header.format(nv=mesh.n_vertices, nf=mesh.n_faces))
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


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


def build_graph(mesh: Mesh, weighting: str = "uniform", sigma: float | None = None) -> Graph:
    """Build the weighted graph of a mesh's 1-skeleton.

    Edges are the deduplicated union of face edges. ``uniform`` assigns
    weight 1 to every edge; ``gaussian`` assigns exp(-len^2 / sigma^2)
    with the Euclidean edge length. When ``sigma`` is omitted the mean
    edge length is used, which keeps the weights scale-equivariant.
    """
    if weighting == "uniform":
        weight = np.ones_like
    elif weighting == "gaussian":
        if sigma is not None and not 0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")

        def weight(lengths):
            s = float(lengths.mean()) if sigma is None else sigma
            if s <= 0:
                raise ValueError(f"sigma must be positive, got {s}")
            return np.exp(-(lengths ** 2) / s ** 2)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    adj = _edge_matrix(mesh, weight)
    graph = Graph(n=mesh.n_vertices, adjacency=adj)

    n_comp, _ = _csgraph_components(adj, directed=False)
    if n_comp != 1:
        raise DisconnectedGraphError(n_comp)
    return graph


def connected_components(graph: Graph) -> list[set[int]]:
    """Partition of the vertex set into connected components."""
    n_comp, labels = _csgraph_components(graph.adjacency, directed=False)
    return [set(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)]
