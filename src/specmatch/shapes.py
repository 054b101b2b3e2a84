"""Synthetic closed test meshes.

All generators break their surface's continuous symmetries with a fixed
smooth modulation: a perfectly symmetric sphere or torus has degenerate
Laplacian eigenvalues and self-isometries, which makes correspondence
ill-posed. The modulated variants have simple spectra and a unique
ground-truth correspondence.
"""

from __future__ import annotations

import numpy as np

from .mesh_graph import Mesh


def _radial_bump(p: np.ndarray, amount: float) -> np.ndarray:
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    mod = (np.sin(3.1 * x + 0.4) + np.sin(4.3 * y + 1.1) + np.sin(5.7 * z + 2.3)) / 3.0
    return 1.0 + amount * mod


def bumpy_sphere(subdivisions: int = 4) -> Mesh:
    """Subdivided icosahedron with a deterministic radial modulation.

    subdivisions=3 gives 642 vertices, 4 gives 2562.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = np.add(verts[i], verts[j]) / 2.0
                m = tuple(m / np.linalg.norm(m))
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    v = np.array(verts)
    v = v * _radial_bump(v, 0.15)[:, None]
    return Mesh(vertices=v, faces=np.array(faces, dtype=int))


def bumpy_torus(n_u: int = 48, n_v: int = 32) -> Mesh:
    """Torus grid with an angle-dependent tube radius (n_u * n_v vertices)."""
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    v = 2.0 * np.pi * np.arange(n_v) / n_v
    uu, vv = np.meshgrid(u, v, indexing="ij")
    # low-frequency terms with generic phases plus a mixed u+v term, so no
    # grid shift or reflection maps the surface onto itself
    tube = 0.35 * (1.0 + 0.2 * (
        0.5 * np.sin(uu + 0.9)
        + 0.3 * np.cos(2.0 * uu + 0.4)
        + 0.4 * np.cos(vv + 1.3)
        + 0.3 * np.sin(uu + 2.0 * vv + 0.7)
    ))
    x = (1.0 + tube * np.cos(vv)) * np.cos(uu)
    y = (1.0 + tube * np.cos(vv)) * np.sin(uu)
    z = tube * np.sin(vv)
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)

    def vid(i, j):
        return (i % n_u) * n_v + (j % n_v)

    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            faces += [(a, b, c), (a, c, d)]
    return Mesh(vertices=vertices, faces=np.array(faces, dtype=int))


def bent_cylinder(n_ring: int = 24, n_len: int = 60) -> Mesh:
    """Capped cylinder whose axis bends along its length (an elbow).

    Vertex count: n_ring * n_len + 2 (two cap apices).
    """
    t = np.linspace(0.0, 1.0, n_len)
    # centerline: straight then arcing; derivative-continuous enough for a mesh
    cx = 4.0 * t
    cy = t ** 2
    cz = 0.3 * np.sin(2.0 * np.pi * t) * t
    centers = np.stack([cx, cy, cz], axis=1)

    # local frames by finite-difference tangents
    tangents = np.gradient(centers, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    ref = np.array([0.0, 0.0, 1.0])
    vertices = []
    theta = 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring_radii = np.empty(n_len)
    for k in range(n_len):
        tangent = tangents[k]
        normal = ref - tangent * (ref @ tangent)
        normal /= np.linalg.norm(normal)
        binormal = np.cross(tangent, normal)
        # taper toward the ends so the cap fans use short edges (long
        # edges would get negligible gaussian weights downstream)
        envelope = np.tanh((min(t[k], 1.0 - t[k]) + 0.02) / 0.07)
        ring_r = 0.3 * envelope * (1.0 + 0.25 * np.sin(3.0 * t[k] * np.pi + 0.7))
        ring_radii[k] = ring_r
        ring = (
            centers[k]
            + ring_r * np.outer(np.cos(theta), normal)
            + ring_r * np.outer(np.sin(theta), binormal)
        )
        vertices.append(ring)
    vertices = np.vstack(vertices)

    def vid(k, i):
        return k * n_ring + (i % n_ring)

    faces = []
    for k in range(n_len - 1):
        for i in range(n_ring):
            a, b = vid(k, i), vid(k, i + 1)
            c, d = vid(k + 1, i + 1), vid(k + 1, i)
            faces += [(a, b, c), (a, c, d)]

    # cap both ends with apex fans
    apex0 = len(vertices)
    apex1 = apex0 + 1
    cap0 = centers[0] - tangents[0] * ring_radii[0] * 0.6
    cap1 = centers[-1] + tangents[-1] * ring_radii[-1] * 0.6
    vertices = np.vstack([vertices, cap0[None, :], cap1[None, :]])
    for i in range(n_ring):
        faces.append((apex0, vid(0, i + 1), vid(0, i)))
        faces.append((apex1, vid(n_len - 1, i), vid(n_len - 1, i + 1)))
    return Mesh(vertices=vertices, faces=np.array(faces, dtype=int))
