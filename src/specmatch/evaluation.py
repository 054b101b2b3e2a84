"""Ground-truth scoring by geodesic error, plus synthetic shape transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import DisconnectedGraphError, InputError
from .mesh_graph import Graph, Mesh, _edge_matrix

# the transform kinds, each with its parameter ramp for the five strength levels
STRENGTH_RAMPS = {
    "isometry_relabel": [None] * 5,
    "noise": [0.02, 0.05, 0.10, 0.15, 0.20],
    "holes": [0.01, 0.02, 0.05, 0.08, 0.12],
    "sampling": [0.9, 0.8, 0.7, 0.6, 0.5],
    "local_scale": [1.2, 1.5, 2.0, 2.5, 3.0],
}


@dataclass(frozen=True)
class GroundTruth:
    """True correspondence: vertex j of the transformed shape -> vertex of
    the original shape."""

    pairs: dict[int, int]


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


def _geodesic_graph(mesh: Mesh):
    """Edge-length matrix of a mesh, checked to be connected. A zero length
    stays an edge: coincident vertices are at geodesic distance 0."""
    g = Graph(adjacency=_edge_matrix(mesh))
    if g.n_components != 1:
        raise DisconnectedGraphError(g.n_components)
    return g.adjacency


def _sweep_sources(n: int) -> np.ndarray:
    """The 20 random sources of a diameter estimate (all n vertices when
    there are fewer), the same for every call."""
    return np.random.default_rng(0).choice(n, size=min(20, n), replace=False)


def geodesic_distances(mesh: Mesh, source: int | np.ndarray) -> np.ndarray:
    """Single- or multi-source shortest paths over edge-length weights."""
    return dijkstra(_geodesic_graph(mesh), directed=False, indices=source)


def geodesic_diameter(mesh: Mesh) -> float:
    """Max distance over a set of random-source sweeps (diameter estimate)."""
    return float(geodesic_distances(mesh, _sweep_sources(mesh.n_vertices)).max())


def registration_error(corr, gt: GroundTruth, mesh_a: Mesh) -> ErrorReport:
    """Score matched vertices by geodesic distance to their true targets.

    Errors are measured on the first (reference) mesh and reported as
    percent of its geodesic diameter, ``geodesic_diameter``'s estimate.
    Unmatched vertices are excluded from the statistics but counted.
    """
    matches = corr.map_matches if hasattr(corr, "map_matches") else list(corr)
    if not matches:
        raise InputError("empty match set")

    scored = [(j, i, gt.pairs[j]) for j, i in matches if j in gt.pairs]
    if not scored:
        raise InputError("no matched vertex has a ground-truth target")
    n = mesh_a.n_vertices
    for j, i, true_i in scored:
        if not (0 <= i < n and 0 <= true_i < n):
            raise InputError(f"vertex {j}: target {i} (ground truth {true_i}) is not "
                             f"a vertex of the {n}-vertex reference mesh")
    wrong_sources = [true_i for _, i, true_i in scored if i != true_i]
    # one Dijkstra run serves the diameter sweep and the wrong matches
    sweep = _sweep_sources(n)
    sources = np.union1d(sweep, wrong_sources).astype(int)
    dist = dijkstra(_geodesic_graph(mesh_a), directed=False, indices=sources)
    dist_rows = dict(zip(sources.tolist(), dist))
    diameter = float(dist[np.searchsorted(sources, sweep)].max())

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

    kinds: isometry_relabel (vertex relabeling; no parameter), noise (vertex jitter as a
    fraction of the mean edge length), holes (fraction of faces removed),
    sampling (vertex decimation keeping the given ratio), local_scale
    (scaling of a geodesic region). The ground truth is the identity on
    surviving vertices (composed with the relabeling where applicable).
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if kind == "isometry_relabel":
        if param is not None:
            raise InputError("isometry_relabel takes no parameter")
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
    if not 0 <= eps < np.inf:
        raise InputError("noise strength must be finite and non-negative")
    scale = eps * mesh.mean_edge_length() if mesh.n_faces else eps
    offset = rng.standard_normal(mesh.vertices.shape) * scale if eps > 0 else 0.0
    out = Mesh(vertices=mesh.vertices + offset, faces=mesh.faces.copy())
    return out, GroundTruth({i: i for i in range(mesh.n_vertices)})


def _connected(mesh: Mesh) -> bool:
    return Graph(adjacency=_edge_matrix(mesh, np.ones_like)).n_components == 1


def _holes(mesh: Mesh, fraction: float, rng):
    if not 0.0 <= fraction < 1.0:
        raise InputError("hole fraction must be in [0, 1)")
    n_remove = int(round(fraction * mesh.n_faces))
    if n_remove == 0:
        return (
            Mesh(vertices=mesh.vertices.copy(), faces=mesh.faces.copy()),
            GroundTruth({i: i for i in range(mesh.n_vertices)}),
        )
    for _ in range(25):
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
    raise InputError(
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
        raise InputError("sampling ratio must be in (0, 1]")
    n = mesh.n_vertices
    target_remove = int(round((1.0 - ratio) * n))
    # vertex -> the faces at it, the only record of the current faces
    incident: dict[int, set] = {i: set() for i in range(n)}
    for f in {tuple(int(x) for x in f) for f in mesh.faces}:
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
        # every new face holds the anchor, and so does any face equal to one
        new_sets = {frozenset(f) for f in new_faces}
        if len(new_sets) != len(new_faces) or new_sets & {frozenset(f) for f in incident[anchor]}:
            continue
        for f in at_v:
            for u in f:
                incident[u].discard(f)
        for f in new_faces:
            for u in f:
                incident[u].add(f)
        removed.add(v)

    kept = np.array(sorted(set(range(n)) - removed), dtype=int)
    remap = -np.ones(n, dtype=int)
    remap[kept] = np.arange(kept.size)
    new_faces = remap[np.array(sorted(set().union(*incident.values())), dtype=int)]
    out = Mesh(vertices=mesh.vertices[kept], faces=new_faces)
    if not _connected(out):
        raise InputError("decimation disconnected the mesh")
    gt = {int(remap[v]): int(v) for v in kept}
    return out, GroundTruth(gt)


def _local_scale(mesh: Mesh, factor: float, rng):
    if not 0 < factor < np.inf:
        raise InputError("scale factor must be finite and positive")
    n = mesh.n_vertices
    seed_vertex = int(rng.integers(n))
    dist = geodesic_distances(mesh, seed_vertex)
    region = dist < 0.25 * dist.max()
    vertices = mesh.vertices.copy()
    center = vertices[region].mean(axis=0)
    vertices[region] = center + factor * (vertices[region] - center)
    out = Mesh(vertices=vertices, faces=mesh.faces.copy())
    return out, GroundTruth({i: i for i in range(n)})
