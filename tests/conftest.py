import numpy as np
import pytest
from scipy import sparse

from specmatch import laplacian, mesh_graph, spectral
from specmatch.mesh_graph import Graph, Mesh
from specmatch.shapes import bumpy_sphere, bumpy_torus


def path3_graph() -> Graph:
    """Path graph on 3 vertices with unit weights."""
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    return Graph.from_adjacency(adj)


def random_connected_graph(rng: np.random.Generator, n: int,
                           density: float = 0.3) -> Graph:
    """Random weighted graph with weights in (0,1], made connected by a
    random spanning path."""
    A = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    w = rng.random(len(iu[0]))
    w[rng.random(len(iu[0])) >= density] = 0.0
    A[iu] = w
    A += A.T
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        if A[a, b] == 0.0:
            A[a, b] = A[b, a] = rng.random() * 0.9 + 0.1
    return Graph.from_adjacency(sparse.csr_matrix(A))


def dump_triplets(matrix, path) -> None:
    """Write a sparse matrix as `row col value` lines, 17 significant
    digits, in row-major order: the format of ``laplacian.load_triplets``."""
    coo = sparse.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for k in order:
            fh.write(f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.17g}\n")


def tetrahedron_mesh() -> Mesh:
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.5, 1.0]]
    )
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    return Mesh(vertices=vertices, faces=faces)


@pytest.fixture
def tetra():
    return tetrahedron_mesh()


@pytest.fixture
def p3():
    return path3_graph()


@pytest.fixture
def solve_sizes(monkeypatch):
    """The K argument of every ``eigs_smallest`` call that the pipeline makes."""
    sizes = []
    solve = spectral.eigs_smallest

    def recording(lap, K):
        sizes.append(K)
        return solve(lap, K)

    monkeypatch.setattr(spectral, "eigs_smallest", recording)
    return sizes


@pytest.fixture(scope="session")
def torus_small():
    return bumpy_torus(24, 16)


@pytest.fixture(scope="session")
def torus():
    return bumpy_torus()


@pytest.fixture(scope="session")
def sphere_small():
    return bumpy_sphere(3)


@pytest.fixture(scope="session")
def torus_spectrum(torus):
    """K=12 leading eigenpairs of the 1536-vertex torus (shared oracle)."""
    graph = mesh_graph.build_graph(torus)
    lap = laplacian.assemble(graph)
    return spectral.eigs_smallest(lap, 12)
