"""Reference Laplacian and eigenvalues, computed apart from the package.

The embedding check needs the operator and spectrum the package should
have produced. Both are rebuilt here from the mesh's vertex array and face
list alone: the gaussian-weighted combinatorial Laplacian L = D - W with
w_ij = exp(-|v_i - v_j|^2 / sigma^2) and sigma the mean edge length, and
its smallest eigenvalues from scipy's dense subset ``eigh`` (mid-size
meshes) or shift-invert ``eigsh`` (large meshes).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as splinalg

# Above this vertex count the shift-invert Lanczos solver is used: the dense
# solver's n x n arrays (30 MB each at n=1922) would otherwise set the
# benchmark process's peak memory, which is meant to measure the package.
DENSE_MAX = 1000


def mesh_edges(faces: np.ndarray) -> np.ndarray:
    """Deduplicated undirected edges (i < j) of a triangle list."""
    f = np.asarray(faces, dtype=np.int64)
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def gaussian_laplacian(vertices: np.ndarray, faces: np.ndarray) -> sparse.csr_matrix:
    """Combinatorial Laplacian D - W of the gaussian-weighted edge graph."""
    v = np.asarray(vertices, dtype=float)
    e = mesh_edges(faces)
    lengths = np.sqrt(((v[e[:, 0]] - v[e[:, 1]]) ** 2).sum(axis=1))
    sigma = lengths.mean()
    w = np.exp(-(lengths ** 2) / sigma ** 2)
    n = v.shape[0]
    W = sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]),
                                  np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    ).tocsr()
    return (sparse.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def smallest_eigenvalues(L: sparse.spmatrix, count: int) -> np.ndarray:
    """The ``count`` algebraically smallest eigenvalues of L, ascending."""
    n = L.shape[0]
    if n <= DENSE_MAX:
        return scipy.linalg.eigh(
            L.toarray(), eigvals_only=True, subset_by_index=[0, count - 1]
        )
    # L is singular (constant null vector); shifting just below zero makes
    # L - shift*I positive definite and maps the wanted end of the spectrum
    # to the largest-magnitude eigenvalues of the inverse
    shift = -1e-3 * float(L.diagonal().mean())
    vals = splinalg.eigsh(
        L.tocsc(), k=count, sigma=shift, which="LM", return_eigenvectors=False,
        v0=np.random.default_rng(0).standard_normal(n),
    )
    return np.sort(vals)
