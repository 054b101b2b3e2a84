"""Spectral graph isomorphism: an exact search for graphs with simple
spectra, the eigendecomposition matching heuristic, and eigenvalue-gap
bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matutil import PermutationMatrix, frobenius_norm, hungarian

# nodes the exact search may visit before it gives up
SEARCH_NODES = 10_000
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


def _signs(U_A, U_B, perm: PermutationMatrix) -> np.ndarray:
    """Per-eigenvector signs of U_A against the rows of U_B put in A's order."""
    return np.where(np.einsum("ij,ij->j", U_A, perm.apply_to_rows(U_B)) < 0, -1.0, 1.0)


def exact_spectral_isomorphism(A_A, A_B) -> IsoResult | None:
    """Exact isomorphism of two graphs with simple spectra, by candidate refinement.

    An isomorphism P (A_A = P A_B P^T) gives U_A = P U_B S for one sign
    vector s, so row i of U_A equals row p_i of U_B up to the signs. The
    rows are unit vectors, so i can map to j only if
    sum_fixed U_A[i,k] s_k U_B[j,k] + sum_free |U_A[i,k]| |U_B[j,k]| = 1,
    where s_k is 0 ("free") until fixed; with nothing fixed this is
    ``umeyama_match``'s score matrix. A depth-first search recomputes these
    candidates at each node: a vertex without one ends the branch, candidates
    that form a permutation are verified against the conjugation identity,
    and otherwise the search branches on the vertex with the fewest (> 1)
    candidates, each branch fixing the signs of every free eigenvector that
    is nonzero there. A vertex has more than one candidate only while such an
    eigenvector is free, so each branch fixes a sign and no path is longer
    than n + 1 nodes. The search visits at most ``SEARCH_NODES`` nodes and raises ``NumericalError``
    beyond them. For simple spectra the problem is polynomial (Babai,
    Grigoryev & Mount, STOC 1982); generic weighted graphs take one node.

    A degenerate spectrum raises ``NumericalError``: the eigenvectors, and so
    the candidates, are not determined. Returns None when the spectra differ
    or no candidate permutation verifies.
    """
    A_A, A_B = _symmetric_pair(A_A, A_B)
    vals_a, U_A, _ = _checked_eigh(A_A, strict=True)
    vals_b, U_B, _ = _checked_eigh(A_B, strict=True)
    if np.abs(vals_a - vals_b).max() > 1e-6 * max(1.0, np.abs(vals_a).max()):
        return None  # different spectra: no isomorphism possible

    bound = 1e-8 * max(frobenius_norm(A_A), 1.0)
    stack, nodes = [np.zeros(A_A.shape[0])], 0
    while stack:
        nodes += 1
        if nodes > SEARCH_NODES:
            raise NumericalError(f"exact isomorphism search exceeded {SEARCH_NODES} nodes")
        s = stack.pop()
        score = np.where(s != 0, U_A * s, np.abs(U_A)) @ np.where(s != 0, U_B, np.abs(U_B)).T
        cand = score >= 1 - 1e-6
        rows, cols = cand.sum(axis=1), cand.sum(axis=0)
        if not (rows.all() and cols.all()):
            continue  # a vertex of A or of B has no candidate
        if (rows == 1).all():
            perm = PermutationMatrix(np.argmax(cand, axis=1))
            residual = _conjugation_residual(A_A, A_B, perm)
            if residual <= bound:
                return IsoResult(perm, _signs(U_A, U_B, perm), residual, exact=True)
            continue
        i = np.argmin(np.where(rows > 1, rows, rows.max() + 1))
        free = (s == 0) & (np.abs(U_A[i]) > 1e-8)
        for j in np.flatnonzero(cand[i])[::-1]:  # the first candidate on top
            stack.append(np.where(free, np.copysign(1.0, U_A[i] * U_B[j]), s))
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

    score = np.abs(U_A) @ np.abs(U_B).T
    perm = hungarian(score)
    signs = _signs(U_A, U_B, perm)

    residual = _conjugation_residual(A_A, A_B, perm)
    exact = residual <= 1e-8 * max(frobenius_norm(A_A), 1.0)
    return IsoResult(
        permutation=perm,
        signs=signs,
        residual=residual,
        exact=exact,
        degenerate=deg_a or deg_b,
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
