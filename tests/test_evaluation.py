import numpy as np
import pytest

from specmatch import evaluation
from specmatch.errors import DisconnectedGraphError
from specmatch.evaluation import (
    ErrorReport,
    GroundTruth,
    geodesic_diameter,
    geodesic_distances,
    registration_error,
    strength_param,
    synth_transform,
)
from specmatch.mesh_graph import Mesh

from conftest import tetrahedron_mesh


def path3_mesh() -> Mesh:
    # a thin strip whose shortest paths realize unit hops 0-1-2
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [2.0, 0.0, 0.0],
        [0.5, 5.0, 0.0],
        [1.5, 5.0, 0.0],
    ])
    faces = np.array([[0, 1, 3], [1, 4, 3], [1, 2, 4]])
    return Mesh(vertices=vertices, faces=faces)


def test_geodesics_along_strip():
    dist = geodesic_distances(path3_mesh(), 0)
    np.testing.assert_allclose(dist[:3], [0.0, 1.0, 2.0])


def test_geodesics_unit_square_brute_force():
    # 3x3 grid on the unit square; compare dijkstra against explicit
    # enumeration of simple paths
    xs, ys = np.meshgrid(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    vertices = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(9)])
    faces = []
    for r in range(2):
        for c in range(2):
            a = 3 * r + c
            faces.append([a, a + 1, a + 3])
            faces.append([a + 1, a + 4, a + 3])
    mesh = Mesh(vertices=vertices, faces=np.array(faces))

    edges = mesh.edges()
    lengths = np.linalg.norm(
        vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1
    )
    adj = {i: [] for i in range(9)}
    for (a, b), w in zip(edges, lengths):
        adj[a].append((b, w))
        adj[b].append((a, w))

    def brute(src, dst):
        best = [np.inf]

        def walk(v, seen, acc):
            if acc >= best[0]:
                return
            if v == dst:
                best[0] = acc
                return
            for u, w in adj[v]:
                if u not in seen:
                    walk(u, seen | {u}, acc + w)

        walk(src, {src}, 0.0)
        return best[0]

    dist = geodesic_distances(mesh, 0)
    for target in range(9):
        assert dist[target] == pytest.approx(brute(0, target), rel=1e-12)


def test_geodesic_disconnected():
    v = np.vstack([np.eye(3), np.eye(3) + 9.0])
    mesh = Mesh(vertices=v, faces=np.array([[0, 1, 2], [3, 4, 5]]))
    with pytest.raises(DisconnectedGraphError):
        geodesic_distances(mesh, 0)


def test_geodesic_diameter_strip():
    mesh = path3_mesh()
    diam = geodesic_diameter(mesh)
    full = geodesic_distances(mesh, np.arange(5))
    assert diam == pytest.approx(float(full.max()))


def test_registration_error_perfect():
    mesh = tetrahedron_mesh()
    gt = GroundTruth({i: i for i in range(4)})
    corr = [(i, i) for i in range(4)]
    report = registration_error(corr, gt, mesh)
    assert report.mean == 0.0
    assert report.max == 0.0
    assert report.n_matched == 4
    assert report.n_unmatched == 0


def test_registration_error_single_miss():
    mesh = path3_mesh()
    gt = GroundTruth({i: i for i in range(5)})
    corr = [(0, 1)] + [(i, i) for i in range(1, 5)]
    diam = geodesic_diameter(mesh)
    report = registration_error(corr, gt, mesh)
    # vertex 0 matched to 1: one unit hop away on the reference mesh
    assert report.per_vertex[0] == pytest.approx(1.0 / diam * 100.0)
    assert report.median == 0.0
    assert report.max == pytest.approx(1.0 / diam * 100.0)


def test_registration_error_one_edge_matrix(monkeypatch):
    # the diameter sweep and the wrong matches share one matrix and one run
    mesh = path3_mesh()
    gt = GroundTruth({i: i for i in range(5)})
    corr = [(0, 1), (2, 3)] + [(i, i) for i in (1, 3, 4)]
    diam = geodesic_diameter(mesh)
    dist = geodesic_distances(mesh, np.array([0, 2]))
    per_vertex = {0: float(dist[0, 1]) / diam * 100.0, 2: float(dist[1, 3]) / diam * 100.0,
                  1: 0.0, 3: 0.0, 4: 0.0}
    errors = np.array(list(per_vertex.values()))
    expected = ErrorReport(per_vertex=per_vertex, mean=float(errors.mean()),
                           median=float(np.median(errors)), max=float(errors.max()),
                           normalization=diam, n_matched=5, n_unmatched=0)
    calls = {"_edge_matrix": 0, "dijkstra": 0}
    for name in calls:
        def counting(*args, _original=getattr(evaluation, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counting)
    report = registration_error(corr, gt, mesh)
    assert calls == {"_edge_matrix": 1, "dijkstra": 1}
    assert report == expected


def test_registration_error_empty_rejected():
    with pytest.raises(ValueError):
        registration_error([], GroundTruth({}), tetrahedron_mesh())


def test_registration_error_no_ground_truth_overlap_rejected():
    # matches exist, but none of their vertices has a true target
    with pytest.raises(ValueError, match="no matched vertex has a ground-truth target"):
        registration_error([(0, 1), (1, 2)], GroundTruth({3: 3}), tetrahedron_mesh())


def test_strength_param_ramps():
    assert strength_param("noise", 1) == 0.02
    assert strength_param("noise", 5) == 0.20
    assert strength_param("sampling", 5) == 0.5
    assert strength_param("isometry_relabel", 3) is None
    with pytest.raises(ValueError):
        strength_param("noise", 6)
    with pytest.raises(ValueError):
        strength_param("melt", 1)


def test_relabel_is_bijection(torus_small):
    out, gt = synth_transform(torus_small, "isometry_relabel", seed=3)
    n = torus_small.n_vertices
    assert out.n_vertices == n
    assert sorted(gt.pairs.keys()) == list(range(n))
    assert sorted(gt.pairs.values()) == list(range(n))
    # geometry is preserved: vertex j of the output is vertex gt[j]
    for j in (0, 5, n - 1):
        np.testing.assert_allclose(
            out.vertices[j], torus_small.vertices[gt.pairs[j]]
        )


def test_relabel_preserves_edge_multiset(torus_small):
    out, gt = synth_transform(torus_small, "isometry_relabel", seed=4)
    orig = sorted(map(tuple, np.sort(torus_small.faces, axis=1).tolist()))
    back = np.vectorize(gt.pairs.get)(out.faces)
    mapped = sorted(map(tuple, np.sort(back, axis=1).tolist()))
    assert orig == mapped


def test_noise_zero_is_identity(torus_small):
    out, gt = synth_transform(torus_small, "noise", param=0.0)
    np.testing.assert_array_equal(out.vertices, torus_small.vertices)
    np.testing.assert_array_equal(out.faces, torus_small.faces)
    assert gt.pairs == {i: i for i in range(torus_small.n_vertices)}


def test_holes_zero_is_a_copy(torus_small):
    out, gt = synth_transform(torus_small, "holes", 0.0)
    assert out is not torus_small
    assert not np.shares_memory(out.vertices, torus_small.vertices)
    assert not np.shares_memory(out.faces, torus_small.faces)
    np.testing.assert_array_equal(out.vertices, torus_small.vertices)
    np.testing.assert_array_equal(out.faces, torus_small.faces)
    assert gt.pairs == {i: i for i in range(torus_small.n_vertices)}


def test_noise_displacement_scales(torus_small):
    mel = torus_small.mean_edge_length()
    out, _ = synth_transform(torus_small, "noise", param=0.1, seed=5)
    disp = np.linalg.norm(out.vertices - torus_small.vertices, axis=1)
    assert disp.max() > 0.0
    assert disp.max() < 1.0 * mel  # 0.1 sigma leaves plenty of headroom


def test_holes_removes_faces_and_stays_connected(torus_small):
    out, gt = synth_transform(torus_small, "holes", param=0.05, seed=6)
    assert out.n_faces == torus_small.n_faces - round(0.05 * torus_small.n_faces)
    from specmatch.mesh_graph import build_graph

    graph = build_graph(out)  # raises if disconnected
    assert graph.n == out.n_vertices
    for j, i in gt.pairs.items():
        np.testing.assert_allclose(out.vertices[j], torus_small.vertices[i])


def test_sampling_decimates(torus_small):
    out, gt = synth_transform(torus_small, "sampling", param=0.5, seed=7)
    n = torus_small.n_vertices
    assert out.n_vertices < n
    assert out.n_vertices == len(gt.pairs)
    # surviving vertices keep their positions
    for j, i in list(gt.pairs.items())[:20]:
        np.testing.assert_allclose(out.vertices[j], torus_small.vertices[i])
    kept = sorted(gt.pairs.values())
    assert len(set(kept)) == len(kept)
    # the retriangulated torus stays a closed surface: no two faces share a
    # vertex set, every edge lies in exactly two faces, and V - E + F = 0
    faces = np.sort(out.faces, axis=1)
    assert len(np.unique(faces, axis=0)) == len(faces)
    edges, counts = np.unique(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]]),
                              axis=0, return_counts=True)
    assert (counts == 2).all()
    assert out.n_vertices - len(edges) + len(faces) == 0


def test_sampling_ratio_validation(torus_small):
    with pytest.raises(ValueError):
        synth_transform(torus_small, "sampling", param=0.0)


def test_local_scale_moves_a_region(torus_small):
    out, gt = synth_transform(torus_small, "local_scale", param=2.0, seed=8)
    disp = np.linalg.norm(out.vertices - torus_small.vertices, axis=1)
    assert (disp > 1e-9).any()
    assert (disp < 1e-12).any()  # vertices outside the region are untouched
    assert gt.pairs == {i: i for i in range(torus_small.n_vertices)}


def test_unknown_transform(torus_small):
    with pytest.raises(ValueError):
        synth_transform(torus_small, "stretch")
