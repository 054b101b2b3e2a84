"""Small-scale spectral graph isomorphism: exact sign enumeration, the
eigendecomposition matching heuristic, and eigenvalue-gap bounds."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matutil import PermutationMatrix, frobenius_norm, hungarian

EXACT_SIZE_LIMIT = 12
# adjacent eigenvalues closer than this make a spectrum near-degenerate
GAP_TOL = 1e-8


@dataclass(frozen=True)
class IsoResult:
    """Outcome of a spectral matching attempt between two adjacency matrices."""

    permutation: PermutationMatrix
    signs: np.ndarray            # diagonal +-1 vector applied to eigenvectors
    residual: float              # ||A_A - P A_B P^T||_F
    exact: bool
    degenerate: bool = False     # spectrum had near-equal adjacent eigenvalues


def _symmetric_pair(A_A, A_B):
    """Both inputs as float arrays, checked to be symmetric and square of
    one size: the eigensolver reads only one triangle of a matrix, so a
    non-symmetric input would be matched as a different graph."""
    A_A = np.asarray(A_A, dtype=float)
    A_B = np.asarray(A_B, dtype=float)
    n = A_A.shape[0]
    if A_A.shape != A_B.shape or A_A.shape != (n, n):
        raise InputError("inputs must be square matrices of equal size")
    for name, A in (("first", A_A), ("second", A_B)):
        # the cheap exact comparison settles the usual, exactly symmetric
        # input; asymmetry at rounding level (Q A Q^T) is accepted
        if not np.array_equal(A, A.T) and (
                np.abs(A - A.T).max() > 1e-12 * max(np.abs(A).max(), 1.0)):
            raise InputError(f"the {name} matrix is not symmetric")
    return A_A, A_B


def _checked_eigh(A, strict: bool):
    vals, vecs = np.linalg.eigh(A)
    gaps = np.diff(vals)
    degenerate = bool(gaps.size and gaps.min() <= GAP_TOL)
    if degenerate and strict:
        raise NumericalError(
            f"adjacent eigenvalue gap {gaps.min():.3e} below {GAP_TOL:.3e}"
        )
    return vals, vecs, degenerate


def _conjugation_residual(A_A, A_B, perm: PermutationMatrix) -> float:
    """||A_A - P A_B P^T||_F, where (P A_B P^T)[i, j] = A_B[p_i, p_j]."""
    p = perm.mapping
    return frobenius_norm(A_A - A_B[np.ix_(p, p)])


def exact_spectral_isomorphism(A_A, A_B) -> IsoResult | None:
    """Exact isomorphism by enumerating the 2^n eigenvector sign choices.

    Each sign matrix S yields a candidate U_B S U_A^T; candidates whose
    entries round to a valid permutation are verified against the
    conjugation identity. Returns None when the spectra differ or no
    sign choice produces a permutation.
    """
    A_A, A_B = _symmetric_pair(A_A, A_B)
    n = A_A.shape[0]
    if n > EXACT_SIZE_LIMIT:
        raise InputError(f"exact enumeration limited to n <= {EXACT_SIZE_LIMIT}")

    vals_a, U_A, _ = _checked_eigh(A_A, strict=True)
    vals_b, U_B, _ = _checked_eigh(A_B, strict=True)
    scale = max(1.0, np.abs(vals_a).max())
    if np.abs(vals_a - vals_b).max() > 1e-6 * scale:
        return None  # different spectra: no isomorphism possible

    norm_a = frobenius_norm(A_A)
    for signs in itertools.product((1.0, -1.0), repeat=n):
        s = np.array(signs)
        cand = (U_A * s) @ U_B.T
        rounded = np.rint(cand)
        if np.abs(cand - rounded).max() > 1e-6:
            continue
        if not np.all((rounded == 0.0) | (rounded == 1.0)):
            continue
        if not (np.all(rounded.sum(axis=0) == 1) and np.all(rounded.sum(axis=1) == 1)):
            continue
        perm = PermutationMatrix(np.argmax(rounded, axis=1))
        residual = _conjugation_residual(A_A, A_B, perm)
        if residual <= 1e-8 * max(norm_a, 1.0):
            return IsoResult(
                permutation=perm, signs=s, residual=residual, exact=True
            )
    return None


def umeyama_match(A_A, A_B) -> IsoResult:
    """Relaxed spectral matching via absolute-eigenvector assignment.

    Builds the entrywise absolute eigenvector matrices (ascending
    eigenvalue order), maximizes the trace of their product over
    permutations with the assignment solver, then recovers per-column
    signs. Near-degenerate spectra are flagged but still processed.
    """
    A_A, A_B = _symmetric_pair(A_A, A_B)

    _, U_A, deg_a = _checked_eigh(A_A, strict=False)
    _, U_B, deg_b = _checked_eigh(A_B, strict=False)
    degenerate = deg_a or deg_b
    if degenerate:
        warnings.warn(
            "near-degenerate spectrum: matching heuristic may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    score = np.abs(U_A) @ np.abs(U_B).T
    perm = hungarian(score, sense="max")
    PU_B = perm.apply_to_rows(U_B)  # rows of U_B put in A's order
    signs = np.sign(np.einsum("ij,ij->j", U_A, PU_B))
    signs[signs == 0] = 1.0

    residual = _conjugation_residual(A_A, A_B, perm)
    exact = residual <= 1e-8 * max(frobenius_norm(A_A), 1.0)
    return IsoResult(
        permutation=perm,
        signs=signs,
        residual=residual,
        exact=exact,
        degenerate=degenerate,
    )


def hoffman_wielandt_gap(A_A, A_B) -> tuple[float, float]:
    """(sum of squared sorted-eigenvalue differences, squared Frobenius distance).

    The first component never exceeds the second; the gap between them
    measures how far the two matrices are from being aligned by an
    orthogonal conjugation.
    """
    A_A, A_B = _symmetric_pair(A_A, A_B)
    alpha = np.sort(np.linalg.eigvalsh(A_A))
    beta = np.sort(np.linalg.eigvalsh(A_B))
    lower = float(np.sum((alpha - beta) ** 2))
    dist = float(frobenius_norm(A_A - A_B) ** 2)
    return lower, dist
