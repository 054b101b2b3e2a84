"""Triangle meshes and the weighted graphs they induce."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import DegenerateFaceError, DisconnectedGraphError, MeshParseError


@dataclass(frozen=True)
class Mesh:
    """A triangle mesh: 3D vertex positions plus vertex-index triples.

    Immutable after construction. Faces are validated on construction:
    indices must be in range and no face may repeat a vertex.
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
        if f.size and (f.min() < 0 or f.max() >= n):
            raise ValueError("face index out of range")
        for idx, face in enumerate(f):
            if len(set(int(x) for x in face)) != 3:
                raise DegenerateFaceError(idx, face)

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
        return np.unique(pairs, axis=0)

    def edge_lengths(self) -> np.ndarray:
        e = self.edges()
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    def mean_edge_length(self) -> float:
        return float(self.edge_lengths().mean())


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


def load_mesh(path, format: str | None = None) -> Mesh:
    """Read an OFF or ASCII-PLY triangle mesh.

    ``format`` is "off" or "ply"; inferred from the extension when omitted.
    """
    if format is None:
        ext = os.path.splitext(path)[1].lower().lstrip(".")
        format = {"off": "off", "ply": "ply"}.get(ext)
        if format is None:
            raise ValueError(f"cannot infer mesh format from {path!r}")
    if format == "off":
        return _load_off(path)
    if format == "ply":
        return _load_ply_ascii(path)
    raise ValueError(f"unsupported mesh format {format!r}")


def _tokens(path):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _load_off(path) -> Mesh:
    it = _tokens(path)
    try:
        lineno, tok = next(it)
    except StopIteration:
        raise MeshParseError(path, 1, "empty file")
    if tok == ["OFF"]:
        try:
            lineno, tok = next(it)
        except StopIteration:
            raise MeshParseError(path, lineno, "missing counts line")
    elif tok[0] == "OFF":
        tok = tok[1:]
    if len(tok) < 2:
        raise MeshParseError(path, lineno, "expected 'nv nf [ne]' counts")
    try:
        nv, nf = int(tok[0]), int(tok[1])
    except ValueError:
        raise MeshParseError(path, lineno, f"bad counts line: {' '.join(tok)}")

    vertices = np.empty((nv, 3))
    for i in range(nv):
        try:
            lineno, tok = next(it)
        except StopIteration:
            raise MeshParseError(path, lineno, f"expected {nv} vertices, got {i}")
        if len(tok) < 3:
            raise MeshParseError(path, lineno, "vertex line needs 3 coordinates")
        try:
            vertices[i] = [float(x) for x in tok[:3]]
        except ValueError:
            raise MeshParseError(path, lineno, f"bad vertex line: {' '.join(tok)}")

    faces = np.empty((nf, 3), dtype=int)
    for i in range(nf):
        try:
            lineno, tok = next(it)
        except StopIteration:
            raise MeshParseError(path, lineno, f"expected {nf} faces, got {i}")
        try:
            count = int(tok[0])
            idx = [int(x) for x in tok[1:1 + count]]
        except (ValueError, IndexError):
            raise MeshParseError(path, lineno, f"bad face line: {' '.join(tok)}")
        if count != 3 or len(idx) != 3:
            raise MeshParseError(path, lineno, "only triangular faces are supported")
        if max(idx) >= nv or min(idx) < 0:
            raise MeshParseError(path, lineno, f"face index out of range: {idx}")
        faces[i] = idx
    return Mesh(vertices=vertices, faces=faces)


def _load_ply_ascii(path) -> Mesh:
    it = _tokens(path)
    lineno, tok = next(it, (1, []))
    if tok != ["ply"]:
        raise MeshParseError(path, lineno, "missing 'ply' magic")
    elements = []  # header order of (name, count)
    for lineno, tok in it:
        if tok[0] == "format":
            if tok[1] != "ascii":
                raise MeshParseError(path, lineno, "only ascii PLY is supported")
        elif tok[0] == "element":
            try:
                elements.append((tok[1], int(tok[2])))
            except (ValueError, IndexError):
                raise MeshParseError(path, lineno, f"bad element line: {' '.join(tok)}")
        elif tok[0] == "end_header":
            break
        elif tok[0] in ("property", "comment", "obj_info"):
            continue
        else:
            raise MeshParseError(path, lineno, f"unexpected header line: {' '.join(tok)}")
    else:
        raise MeshParseError(path, lineno, "missing end_header")
    counts = dict(elements)
    nv, nf = counts.get("vertex"), counts.get("face")
    if nv is None or nf is None:
        raise MeshParseError(path, lineno, "header must declare vertex and face elements")

    vertices = np.empty((nv, 3))
    faces = np.empty((nf, 3), dtype=int)
    for name, count in elements:
        for i in range(count):
            try:
                lineno, tok = next(it)
            except StopIteration:
                raise MeshParseError(path, lineno, f"truncated {name} data")
            if name == "vertex":
                if len(tok) < 3:
                    raise MeshParseError(path, lineno, "vertex line needs 3 coordinates")
                try:
                    vertices[i] = [float(x) for x in tok[:3]]
                except ValueError:
                    raise MeshParseError(path, lineno, f"bad vertex line: {' '.join(tok)}")
            elif name == "face":
                try:
                    cnt = int(tok[0])
                    idx = [int(x) for x in tok[1:1 + cnt]]
                except (ValueError, IndexError):
                    raise MeshParseError(path, lineno, f"bad face line: {' '.join(tok)}")
                if cnt != 3 or len(idx) != 3:
                    raise MeshParseError(path, lineno, "only triangular faces are supported")
                if max(idx) >= nv or min(idx) < 0:
                    raise MeshParseError(path, lineno, f"face index out of range: {idx}")
                faces[i] = idx
    # trailing data after the declared elements is tolerated in the wild
    return Mesh(vertices=vertices, faces=faces)


def save_mesh(mesh: Mesh, path, format: str | None = None) -> None:
    """Write a mesh as OFF or ASCII PLY (round-trips with :func:`load_mesh`)."""
    if format is None:
        ext = os.path.splitext(path)[1].lower().lstrip(".")
        format = {"off": "off", "ply": "ply"}.get(ext)
        if format is None:
            raise ValueError(f"cannot infer mesh format from {path!r}")
    with open(path, "w") as fh:
        if format == "off":
            fh.write("OFF\n")
            fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
            for v in mesh.vertices:
                fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
            for f in mesh.faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
        elif format == "ply":
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {mesh.n_vertices}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write(f"element face {mesh.n_faces}\n")
            fh.write("property list uchar int vertex_indices\nend_header\n")
            for v in mesh.vertices:
                fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
            for f in mesh.faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
        else:
            raise ValueError(f"unsupported mesh format {format!r}")


def build_graph(mesh: Mesh, weighting: str = "uniform", sigma: float | None = None) -> Graph:
    """Build the weighted graph of a mesh's 1-skeleton.

    Edges are the deduplicated union of face edges. ``uniform`` assigns
    weight 1 to every edge; ``gaussian`` assigns exp(-len^2 / sigma^2)
    with the Euclidean edge length. When ``sigma`` is omitted the mean
    edge length is used, which keeps the weights scale-equivariant.
    """
    edges = mesh.edges()
    n = mesh.n_vertices
    if weighting == "uniform":
        w = np.ones(edges.shape[0])
    elif weighting == "gaussian":
        lengths = np.linalg.norm(
            mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
        )
        if sigma is None:
            sigma = float(lengths.mean())
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        w = np.exp(-(lengths ** 2) / sigma ** 2)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sparse.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    graph = Graph(n=n, adjacency=adj)

    n_comp, _ = _csgraph_components(adj, directed=False)
    if n_comp != 1:
        raise DisconnectedGraphError(n_comp)
    return graph


def connected_components(graph: Graph) -> list[set[int]]:
    """Partition of the vertex set into connected components."""
    n_comp, labels = _csgraph_components(graph.adjacency, directed=False)
    return [set(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)]
