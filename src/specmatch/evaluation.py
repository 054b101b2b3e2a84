"""Ground-truth scoring by geodesic error, plus synthetic shape transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.sparse.csgraph import dijkstra

from .errors import DisconnectedGraphError, SpecmatchError
from .mesh_graph import Mesh, _edge_matrix

TRANSFORM_KINDS = ("isometry_relabel", "noise", "holes", "sampling", "local_scale")

# parameter ramps for the five strength levels of each transform class
STRENGTH_RAMPS = {
    "isometry_relabel": [None] * 5,
    "noise": [0.02, 0.05, 0.10, 0.15, 0.20],
    "holes": [0.01, 0.02, 0.05, 0.08, 0.12],
    "sampling": [0.9, 0.8, 0.7, 0.6, 0.5],
    "local_scale": [1.2, 1.5, 2.0, 2.5, 3.0],
}


class TransformError(SpecmatchError):
    """The requested synthetic transform could not keep the mesh connected."""


@dataclass(frozen=True)
class GroundTruth:
    """True correspondence: vertex j of the transformed shape -> vertex of
    the original shape."""

    pairs: dict[int, int]

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class ErrorReport:
    """Geodesic registration errors as percent of the geodesic diameter."""

    per_vertex: dict[int, float]
    mean: float
    median: float
    max: float
    normalization: float      # geodesic diameter used for the percent scale
    n_matched: int
    n_unmatched: int


def geodesic_distances(mesh: Mesh, source: int | np.ndarray) -> np.ndarray:
    """Single- or multi-source shortest paths over edge-length weights."""
    g = _edge_matrix(mesh)
    n_comp, _ = _csgraph_components(g, directed=False)
    if n_comp != 1:
        raise DisconnectedGraphError(n_comp)
    return dijkstra(g, directed=False, indices=source)


def geodesic_diameter(mesh: Mesh, sweeps: int = 20, seed: int = 0) -> float:
    """Max distance over a set of random-source sweeps (diameter estimate)."""
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    sources = rng.choice(n, size=min(sweeps, n), replace=False)
    dist = geodesic_distances(mesh, sources)
    return float(dist.max())


def registration_error(
    corr, gt: GroundTruth, mesh_a: Mesh, diameter: float | None = None
) -> ErrorReport:
    """Score matched vertices by geodesic distance to their true targets.

    Errors are measured on the first (reference) mesh and reported as
    percent of its geodesic diameter. Unmatched vertices are excluded
    from the statistics but counted.
    """
    matches = corr.map_matches if hasattr(corr, "map_matches") else list(corr)
    if not matches:
        raise ValueError("empty match set")
    if diameter is None:
        diameter = geodesic_diameter(mesh_a)

    scored = [(j, i, gt.pairs[j]) for j, i in matches if j in gt.pairs]
    wrong_sources = sorted({true_i for _, i, true_i in scored if i != true_i})
    dist_rows = {}
    if wrong_sources:
        dist = geodesic_distances(mesh_a, np.array(wrong_sources))
        dist = np.atleast_2d(dist)
        dist_rows = {s: dist[k] for k, s in enumerate(wrong_sources)}

    per_vertex = {}
    for j, i, true_i in scored:
        if i == true_i:
            per_vertex[j] = 0.0
        else:
            per_vertex[j] = float(dist_rows[true_i][i]) / diameter * 100.0
    errors = np.array(list(per_vertex.values()))
    n_unmatched = len(matches) - len(scored) + len(
        getattr(corr, "unmatched", [])
    )
    return ErrorReport(
        per_vertex=per_vertex,
        mean=float(errors.mean()),
        median=float(np.median(errors)),
        max=float(errors.max()),
        normalization=diameter,
        n_matched=len(scored),
        n_unmatched=n_unmatched,
    )


def strength_param(kind: str, level: int):
    """Map a 1-5 strength level onto the transform's parameter ramp."""
    if kind not in STRENGTH_RAMPS:
        raise ValueError(f"unknown transform kind {kind!r}")
    if not 1 <= level <= 5:
        raise ValueError(f"strength level must be 1..5, got {level}")
    return STRENGTH_RAMPS[kind][level - 1]


def synth_transform(
    mesh: Mesh, kind: str, param: float | None = None, seed: int = 0
) -> tuple[Mesh, GroundTruth]:
    """Apply a benchmark-style deformation and return the exact ground truth.

    kinds: isometry_relabel (vertex relabeling), noise (vertex jitter as a
    fraction of the mean edge length), holes (fraction of faces removed),
    sampling (vertex decimation keeping the given ratio), local_scale
    (scaling of a geodesic region). The ground truth is the identity on
    surviving vertices (composed with the relabeling where applicable).
    """
    rng = np.random.default_rng(seed)
    if kind == "isometry_relabel":
        return _relabel(mesh, rng)
    if kind == "noise":
        return _noise(mesh, 0.05 if param is None else param, rng)
    if kind == "holes":
        return _holes(mesh, 0.05 if param is None else param, rng)
    if kind == "sampling":
        return _sampling(mesh, 0.5 if param is None else param, rng)
    if kind == "local_scale":
        return _local_scale(mesh, 1.5 if param is None else param, rng)
    raise ValueError(f"unknown transform kind {kind!r}")


def _relabel(mesh: Mesh, rng) -> tuple[Mesh, GroundTruth]:
    n = mesh.n_vertices
    perm = rng.permutation(n)          # old index i -> new index perm[i]
    new_vertices = np.empty_like(mesh.vertices)
    new_vertices[perm] = mesh.vertices
    new_faces = perm[mesh.faces]
    gt = {int(perm[i]): i for i in range(n)}
    return Mesh(vertices=new_vertices, faces=new_faces), GroundTruth(gt)


def _noise(mesh: Mesh, eps: float, rng) -> tuple[Mesh, GroundTruth]:
    if eps < 0:
        raise ValueError("noise strength must be non-negative")
    scale = eps * mesh.mean_edge_length() if mesh.n_faces else eps
    offset = rng.standard_normal(mesh.vertices.shape) * scale if eps > 0 else 0.0
    out = Mesh(vertices=mesh.vertices + offset, faces=mesh.faces.copy())
    return out, GroundTruth({i: i for i in range(mesh.n_vertices)})


def _connected(mesh: Mesh) -> bool:
    n_comp, _ = _csgraph_components(_edge_matrix(mesh, np.ones_like), directed=False)
    return n_comp == 1


def _holes(mesh: Mesh, fraction: float, rng, attempts: int = 25):
    if not 0.0 <= fraction < 1.0:
        raise ValueError("hole fraction must be in [0, 1)")
    n_remove = int(round(fraction * mesh.n_faces))
    if n_remove == 0:
        return (
            Mesh(vertices=mesh.vertices.copy(), faces=mesh.faces.copy()),
            GroundTruth({i: i for i in range(mesh.n_vertices)}),
        )
    for _ in range(attempts):
        drop = rng.choice(mesh.n_faces, size=n_remove, replace=False)
        keep_mask = np.ones(mesh.n_faces, dtype=bool)
        keep_mask[drop] = False
        faces = mesh.faces[keep_mask]
        used = np.unique(faces)
        if used.size < 3:
            continue
        remap = -np.ones(mesh.n_vertices, dtype=int)
        remap[used] = np.arange(used.size)
        out = Mesh(vertices=mesh.vertices[used], faces=remap[faces])
        if not _connected(out):
            continue
        gt = {int(remap[v]): int(v) for v in used}
        return out, GroundTruth(gt)
    raise TransformError(
        f"could not remove {n_remove} faces without disconnecting the mesh"
    )


def _ordered_ring(faces_at_v: list[tuple[int, int, int]], v: int) -> list[int] | None:
    """Order the one-ring of v into a single directed cycle, or None."""
    nxt = {}
    for f in faces_at_v:
        idx = list(f).index(v)
        a, b = f[(idx + 1) % 3], f[(idx + 2) % 3]
        if a in nxt:
            return None      # non-manifold fan
        nxt[a] = b
    start = next(iter(nxt))
    ring = [start]
    cur = nxt[start]
    while cur != start:
        ring.append(cur)
        cur = nxt.get(cur)
        if cur is None or len(ring) > len(nxt):
            return None
    if len(ring) != len(nxt):
        return None
    return ring


def _sampling(mesh: Mesh, ratio: float, rng):
    """Decimate vertices one at a time, retriangulating each one-ring hole.

    Only vertices whose one-ring forms a single cycle (interior vertices
    of a closed manifold) are removable; candidates that would create a
    duplicate face are skipped. The kept-vertex ratio is therefore
    approximate when the mesh resists decimation.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    n = mesh.n_vertices
    target_remove = int(round((1.0 - ratio) * n))
    faces = {tuple(int(x) for x in f) for f in mesh.faces}
    face_sets = {frozenset(f) for f in faces}

    incident: dict[int, set] = {i: set() for i in range(n)}
    for f in faces:
        for v in f:
            incident[v].add(f)

    candidates = rng.permutation(n)
    removed: set[int] = set()
    for v in candidates:
        if len(removed) >= target_remove:
            break
        v = int(v)
        at_v = list(incident[v])
        if len(at_v) < 3:
            continue
        ring = _ordered_ring(at_v, v)
        if ring is None or len(ring) < 3:
            continue
        anchor = ring[0]
        new_faces = [
            (anchor, ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)
        ]
        if any(frozenset(f) in face_sets for f in new_faces):
            continue
        if len({frozenset(f) for f in new_faces}) != len(new_faces):
            continue
        for f in at_v:
            faces.discard(f)
            face_sets.discard(frozenset(f))
            for u in f:
                incident[u].discard(f)
        for f in new_faces:
            faces.add(f)
            face_sets.add(frozenset(f))
            for u in f:
                incident[u].add(f)
        removed.add(v)

    kept = np.array(sorted(set(range(n)) - removed), dtype=int)
    remap = -np.ones(n, dtype=int)
    remap[kept] = np.arange(kept.size)
    new_faces = remap[np.array(sorted(faces), dtype=int)]
    out = Mesh(vertices=mesh.vertices[kept], faces=new_faces)
    if not _connected(out):
        raise TransformError("decimation disconnected the mesh")
    gt = {int(remap[v]): int(v) for v in kept}
    return out, GroundTruth(gt)


def _local_scale(mesh: Mesh, factor: float, rng):
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    n = mesh.n_vertices
    seed_vertex = int(rng.integers(n))
    dist = geodesic_distances(mesh, seed_vertex)
    region = dist < 0.25 * dist.max()
    vertices = mesh.vertices.copy()
    center = vertices[region].mean(axis=0)
    vertices[region] = center + factor * (vertices[region] - center)
    out = Mesh(vertices=vertices, faces=mesh.faces.copy())
    return out, GroundTruth({i: i for i in range(n)})
