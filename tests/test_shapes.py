import numpy as np
import pytest

from specmatch.laplacian import assemble
from specmatch.mesh_graph import build_graph
from specmatch.shapes import bent_cylinder, bumpy_sphere, bumpy_torus
from specmatch.spectral import eigs_smallest


@pytest.mark.parametrize("factory,kwargs", [
    (bumpy_torus, {"n_u": 24, "n_v": 16}),
    (bumpy_sphere, {"subdivisions": 3}),
    (bent_cylinder, {"n_ring": 16, "n_len": 30}),
])
def test_shapes_produce_connected_manifolds(factory, kwargs):
    mesh = factory(**kwargs)
    assert mesh.n_vertices > 100
    graph = build_graph(mesh)  # raises if disconnected
    assert graph.n == mesh.n_vertices
    # each edge should belong to exactly two faces on these closed or
    # capped surfaces, so |F| is even and Euler-consistent sizes hold
    assert mesh.faces.shape[1] == 3


def test_torus_euler_characteristic():
    mesh = bumpy_torus(24, 16)
    V, F = mesh.n_vertices, mesh.n_faces
    E = mesh.edges().shape[0]
    assert V - E + F == 0  # genus one


def test_sphere_euler_characteristic():
    mesh = bumpy_sphere(3)
    V, F = mesh.n_vertices, mesh.n_faces
    E = mesh.edges().shape[0]
    assert V - E + F == 2  # genus zero


def test_cylinder_euler_characteristic():
    mesh = bent_cylinder(16, 30)
    V, F = mesh.n_vertices, mesh.n_faces
    E = mesh.edges().shape[0]
    assert V - E + F == 2  # capped tube is a topological sphere


def test_shapes_deterministic():
    a = bumpy_torus(24, 16)
    b = bumpy_torus(24, 16)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.faces, b.faces)


def test_torus_spectrum_is_simple():
    # the bump pattern must break all mesh symmetries, otherwise repeated
    # eigenvalues make eigenvector-level comparisons ill-posed downstream
    mesh = bumpy_torus(24, 16)
    graph = build_graph(mesh)
    spectrum = eigs_smallest(assemble(graph), 12)
    gaps = np.diff(spectrum.eigenvalues[1:])
    assert gaps.min() > 1e-8


def test_edge_lengths_are_balanced():
    # gaussian weighting collapses for edges much longer than the mean, so
    # the generators must avoid long sliver edges
    for mesh in (bumpy_torus(24, 16), bumpy_sphere(3), bent_cylinder(16, 30)):
        lengths = mesh.edge_lengths()
        assert lengths.max() / lengths.mean() < 3.0
