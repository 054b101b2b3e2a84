"""Smallest eigenpairs of sparse symmetric Laplacians, plus a dense oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .errors import DisconnectedGraphError, NonConvergenceError
from .laplacian import LaplacianMatrix
from .mesh_graph import Graph

DENSE_LIMIT = 2000
# shift-invert pole as a multiple of ||L||_1: just below the zero
# eigenvalue, so the sparse LU factors the positive definite L + 1e-6 ||L||_1 I
SHIFT = -1e-6


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of a symmetric Laplacian with solver metadata.

    ``eigenvalues[0]`` is the (numerically zero) null mode of a connected
    graph.
    """

    eigenvalues: np.ndarray       # ascending, length K+1
    eigenvectors: np.ndarray      # n x (K+1), column-orthonormal
    residuals: np.ndarray         # per-pair ||A u - lambda u||
    source_kind: str
    method: str = "dense"         # solver path: "dense" or "shift_invert"

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.eigenvalues.size


def _canonicalize_signs(U: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    U = U.copy()
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _null_vector(lap: LaplacianMatrix) -> np.ndarray:
    n = lap.n
    if lap.kind == "combinatorial":
        v = np.ones(n)
    elif lap.kind == "normalized":
        v = np.sqrt(lap.degrees)
    else:
        raise ValueError(f"no symmetric null vector for kind {lap.kind!r}")
    return v / np.linalg.norm(v)


def eigs_smallest(
    lap: LaplacianMatrix,
    K: int,
    tol: float | None = None,
) -> Spectrum:
    """The K+1 algebraically smallest eigenpairs of a symmetric Laplacian.

    Mid-size and large problems take one shift-invert Lanczos solve
    (ARPACK via ``eigsh``) about a shift just below zero, so the sparse LU
    factors the positive definite L + eps I and the wanted low end of the
    spectrum becomes the dominant end of its inverse. Problems where K+1 is
    a sizeable share of n go to a dense solver. Either path yields the K
    non-null pairs; the analytic null vector takes the first slot, and the
    connectivity and residual checks are shared. The Lanczos start vector
    is fixed and each eigenvector's sign is canonicalized, so results are
    deterministic.
    """
    if lap.kind not in ("combinatorial", "normalized"):
        raise ValueError("eigs_smallest requires a symmetric Laplacian kind")
    n = lap.n
    if K + 1 > n:
        raise ValueError(f"K+1={K + 1} exceeds matrix size n={n}")
    A = lap.matrix.tocsr()
    norm1 = splinalg.norm(A, 1) if A.nnz else 1.0
    if tol is None:
        tol = 1e-8 * norm1
    null = _null_vector(lap).reshape(-1, 1)

    # Lanczos needs a basis well beyond K+1 vectors; small problems go
    # straight to the dense solver
    if 5 * min(K + 3, n - 1) >= n:
        method = "dense"
        vals, vecs = np.linalg.eigh(A.toarray())
        vals, vecs = vals[1:K + 1], vecs[:, 1:K + 1]
    else:
        method = "shift_invert"
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = splinalg.eigsh(
                A.tocsc(), k=K + 1, sigma=SHIFT * norm1, which="LM", v0=v0
            )
        except splinalg.ArpackNoConvergence as exc:
            res = np.linalg.norm(
                A @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues, axis=0
            )
            raise NonConvergenceError(res.tolist() or [np.inf], tol) from exc
        # re-orthonormalize the K non-null vectors against the null vector
        # and within the block
        vecs = vecs[:, np.argsort(vals)[1:]]
        vecs -= null @ (null.T @ vecs)
        vecs, _ = np.linalg.qr(vecs)
        vals = np.einsum("ij,ij->j", vecs, A @ vecs)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if vals.size and vals[0] <= 1e-8 * max(1.0, float(vals[-1])):
        # a second numerically-zero eigenvalue means the graph is disconnected
        raise DisconnectedGraphError(2)
    vals = np.concatenate([[float(null[:, 0] @ (A @ null[:, 0]))], vals])
    vecs = np.hstack([null, vecs])
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    if not residuals.max() <= tol:   # NaN residuals fail too
        raise NonConvergenceError(residuals.tolist(), tol)
    return Spectrum(
        eigenvalues=vals,
        eigenvectors=_canonicalize_signs(vecs),
        residuals=residuals,
        source_kind=lap.kind,
        method=method,
    )


def dense_eig(A, source_kind: str = "dense") -> Spectrum:
    """All eigenpairs of a dense symmetric matrix (test oracle, n <= 2000)."""
    A = np.asarray(A, dtype=float)
    if sparse.issparse(A):
        A = A.toarray()
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to n <= {DENSE_LIMIT}, got {n}")
    vals, vecs = np.linalg.eigh(A)
    vecs = _canonicalize_signs(vecs)
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    return Spectrum(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=residuals,
        source_kind=source_kind,
    )


@dataclass(frozen=True)
class SpectralReport:
    """Pass/fail record of the analytic eigenvector properties."""

    zero_sum: bool              # non-constant eigenvectors sum to ~0
    entry_bounds: bool          # |u_ik| < 1 for non-constant eigenvectors
    mean_variance: bool         # mean 0 and variance 1/n per eigenvector
    eigenvalue_bound: bool      # lambda_k <= 2 max_i d_i
    weighted_zero_sum: bool | None = None   # normalized kind only
    normalized_bound: bool | None = None    # gamma_k <= 2, normalized kind only

    @property
    def passed(self) -> bool:
        checks = [self.zero_sum, self.entry_bounds, self.mean_variance,
                  self.eigenvalue_bound]
        checks += [c for c in (self.weighted_zero_sum, self.normalized_bound)
                   if c is not None]
        return all(checks)


def check_spectral_properties(
    spectrum: Spectrum, graph: Graph, atol: float = 1e-8
) -> SpectralReport:
    """Verify the analytic constraints a Laplacian spectrum must satisfy."""
    U = spectrum.eigenvectors[:, 1:]
    n = spectrum.n
    ev = spectrum.eigenvalues

    if spectrum.source_kind == "normalized":
        weighted = np.sqrt(graph.degrees) @ U
        weighted_zero_sum = bool(np.all(np.abs(weighted) <= atol * np.sqrt(n)))
        normalized_bound = bool(np.all(ev <= 2.0 + atol))
        zero_sum = True      # plain zero-sum does not hold for this kind
        mean_variance = True
        eigenvalue_bound = True
    else:
        sums = U.sum(axis=0)
        zero_sum = bool(np.all(np.abs(sums) <= atol * np.sqrt(n)))
        variances = np.mean(U * U, axis=0)
        mean_variance = zero_sum and bool(
            np.all(np.abs(variances - 1.0 / n) <= 1e-10 + atol / n)
        )
        eigenvalue_bound = bool(
            np.all(ev <= 2.0 * graph.degrees.max() + atol)
        )
        weighted_zero_sum = None
        normalized_bound = None

    return SpectralReport(
        zero_sum=zero_sum,
        entry_bounds=bool(np.all(np.abs(U) < 1.0)),
        mean_variance=mean_variance,
        eigenvalue_bound=eigenvalue_bound,
        weighted_zero_sum=weighted_zero_sum,
        normalized_bound=normalized_bound,
    )


def dump_spectrum(spectrum: Spectrum, path) -> None:
    """Text dump: one `lambda residual` line per pair, then the eigenvector
    block in column-major order, 17 significant digits."""
    with open(path, "w") as fh:
        for lam, res in zip(spectrum.eigenvalues, spectrum.residuals):
            fh.write(f"{lam:.17g} {res:.17g}\n")
        for col in range(spectrum.eigenvectors.shape[1]):
            for x in spectrum.eigenvectors[:, col]:
                fh.write(f"{x:.17g}\n")
