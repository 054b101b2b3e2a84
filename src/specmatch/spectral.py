"""Smallest eigenpairs of sparse symmetric Laplacians, plus a dense oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse import linalg as splinalg
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import DisconnectedGraphError, NonConvergenceError, NumericalError
from .mesh_graph import Graph

DENSE_LIMIT = 2000
# shift-invert pole as a multiple of ||L||_1: just below the zero
# eigenvalue, so the banded Cholesky factors the positive definite
# L + 1e-6 ||L||_1 I
SHIFT = -1e-6
# absolute tolerance of the tests in check_spectral_properties
PROPERTY_ATOL = 1e-8
# every returned pair's residual is at most this multiple of ||L||_1
RESIDUAL_SHARE = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of a symmetric Laplacian with solver metadata.

    ``eigenvalues[0]`` is the (numerically zero) null mode of a connected
    graph.
    """

    eigenvalues: np.ndarray       # ascending, length K+1
    eigenvectors: np.ndarray      # n x (K+1), column-orthonormal
    residuals: np.ndarray         # per-pair ||A u - lambda u||
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


def _shift_invert_operator(L: sparse.csr_matrix, shift: float) -> splinalg.LinearOperator:
    """(L - shift I)^-1 as a linear operator, through a banded Cholesky factor.

    In reverse Cuthill-McKee order a mesh Laplacian has a narrow band, so
    LAPACK's band Cholesky (``dpbtrf``) factors the lower band once, and
    each application is one band solve (``dpbtrs``) between the two index
    permutations. Only the lower triangle is read.
    """
    n = L.shape[0]
    perm = reverse_cuthill_mckee(L, symmetric_mode=True)
    A = sparse.tril((L - shift * sparse.identity(n, format="csr"))[perm][:, perm]).tocoo()
    band = A.row - A.col
    # LAPACK band storage ab[i - j, j] = A[i, j], in Fortran order so that
    # the factor overwrites it in place rather than in a copy
    ab = np.zeros((band.max() + 1, n), order="F")
    ab[band, A.col] = A.data
    factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise NumericalError(
            f"L + {-shift:.3e} I is not positive definite: its Cholesky factor "
            f"fails at row {perm[info - 1]}, so L is not a graph Laplacian"
        )
    inverse = np.argsort(perm)

    def solve(b):
        x, _ = lapack.dpbtrs(factor, b[perm], lower=1)
        return x[inverse]

    return splinalg.LinearOperator((n, n), matvec=solve, dtype=float)


def eigs_smallest(L: sparse.csr_matrix, K: int) -> Spectrum:
    """The K+1 algebraically smallest eigenpairs of a graph Laplacian D - W.

    Mid-size and large problems take one shift-invert Lanczos solve
    (ARPACK via ``eigsh``) about a shift just below zero. Its inverse
    operator is a banded Cholesky factor of the positive definite L + eps I
    in reverse Cuthill-McKee order, so the wanted low end of the spectrum
    becomes the dominant end of the inverse. Problems where K+1 is a
    sizeable share of n go to a dense solver. Either path yields the K
    non-null pairs; the analytic null vector takes the first slot, and the
    connectivity and residual checks are shared. A matrix with a negative
    eigenvalue is not a Laplacian: the factorization or the dense solve
    finds it and raises ``NumericalError``; a non-finite entry raises
    ``NonConvergenceError`` before either path runs. The Lanczos start vector is
    fixed and each eigenvector's sign is canonicalized, so results are
    deterministic.
    """
    n = L.shape[0]
    if K + 1 > n:
        raise ValueError(f"K+1={K + 1} exceeds matrix size n={n}")
    # a non-finite entry has no finite residual on either path; caught
    # here, before LAPACK or ARPACK print to stderr and raise their own
    if not np.isfinite(L.data).all():
        raise NonConvergenceError([np.nan], np.nan)
    norm1 = splinalg.norm(L, 1) if L.nnz else 1.0
    tol = RESIDUAL_SHARE * norm1
    null = (np.ones(n) / np.linalg.norm(np.ones(n))).reshape(-1, 1)

    # Lanczos needs a basis well beyond K+1 vectors; small problems go
    # straight to the dense solver
    if 5 * (K + 3) >= n:
        method = "dense"
        vals, vecs = np.linalg.eigh(L.toarray())
        if vals[0] < -tol:
            raise NumericalError(
                f"L has the negative eigenvalue {vals[0]:.3e}, so it is not a "
                "graph Laplacian"
            )
        vals, vecs = vals[1:K + 1], vecs[:, 1:K + 1]
    else:
        method = "shift_invert"
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = splinalg.eigsh(
                L, k=K + 1, sigma=SHIFT * norm1, which="LM", v0=v0,
                OPinv=_shift_invert_operator(L, SHIFT * norm1),
            )
        except splinalg.ArpackNoConvergence as exc:
            res = np.linalg.norm(
                L @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues, axis=0
            )
            raise NonConvergenceError(res.tolist() or [np.inf], tol) from exc
        # re-orthonormalize the K non-null vectors against the null vector
        # and within the block
        vecs = vecs[:, np.argsort(vals)[1:]]
        vecs -= null @ (null.T @ vecs)
        vecs, _ = np.linalg.qr(vecs)
        vals = np.einsum("ij,ij->j", vecs, L @ vecs)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    # each numerically-zero eigenvalue beyond the null pair's is one more
    # connected component; the K computed pairs may show fewer than there
    # are, and the off-diagonal pattern (diagonal entries are self-loops)
    # shows them all
    n_zero = np.count_nonzero(vals <= 1e-8 * max(1.0, float(vals.max(initial=0.0))))
    if n_zero:
        n_components = connected_components(L, directed=False, return_labels=False)
        raise DisconnectedGraphError(max(1 + n_zero, n_components))
    vals = np.concatenate([[float(null[:, 0] @ (L @ null[:, 0]))], vals])
    vecs = np.hstack([null, vecs])
    residuals = np.linalg.norm(L @ vecs - vecs * vals, axis=0)
    if not residuals.max() <= tol:   # NaN residuals fail too
        raise NonConvergenceError(residuals.tolist(), tol)
    return Spectrum(
        eigenvalues=vals,
        eigenvectors=_canonicalize_signs(vecs),
        residuals=residuals,
        method=method,
    )


def dense_eig(A) -> Spectrum:
    """All eigenpairs of a symmetric matrix, solved densely (test oracle,
    n <= 2000)."""
    A = A.toarray() if sparse.issparse(A) else np.asarray(A, dtype=float)
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to n <= {DENSE_LIMIT}, got {n}")
    vals, vecs = np.linalg.eigh(A)
    vecs = _canonicalize_signs(vecs)
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=residuals)


@dataclass(frozen=True)
class SpectralReport:
    """Pass/fail record of the analytic eigenvector properties."""

    zero_sum: bool              # non-constant eigenvectors sum to ~0
    entry_bounds: bool          # |u_ik| < 1 for non-constant eigenvectors
    mean_variance: bool         # mean 0 and variance 1/n per eigenvector
    eigenvalue_bound: bool      # lambda_k <= 2 max_i d_i

    @property
    def passed(self) -> bool:
        return all((self.zero_sum, self.entry_bounds, self.mean_variance,
                    self.eigenvalue_bound))


def check_spectral_properties(spectrum: Spectrum, graph: Graph) -> SpectralReport:
    """Verify the analytic constraints a spectrum of D - W must satisfy."""
    U = spectrum.eigenvectors[:, 1:]
    n = spectrum.n
    sums = U.sum(axis=0)
    zero_sum = bool(np.all(np.abs(sums) <= PROPERTY_ATOL * np.sqrt(n)))
    variances = np.mean(U * U, axis=0)
    mean_variance = zero_sum and bool(
        np.all(np.abs(variances - 1.0 / n) <= 1e-10 + PROPERTY_ATOL / n)
    )
    return SpectralReport(
        zero_sum=zero_sum,
        entry_bounds=bool(np.all(np.abs(U) < 1.0)),
        mean_variance=mean_variance,
        eigenvalue_bound=bool(
            np.all(spectrum.eigenvalues <= 2.0 * graph.degrees.max() + PROPERTY_ATOL)
        ),
    )
