"""Spectral graph isomorphism: an exact search for graphs with simple
spectra, the eigendecomposition matching heuristic, and eigenvalue-gap
bounds."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matutil import PermutationMatrix, frobenius_norm, hungarian

# nodes the exact search may visit before it gives up
SEARCH_NODES = 10_000
# adjacent eigenvalues closer than this make a spectrum near-degenerate
GAP_TOL = 1e-8


def _blas_pinned_with_spare_cpu() -> bool:
    """Whether the environment pins BLAS to one thread (at least one of its
    thread-count variables is set, and each one set is "1") and the process
    may run on two or more CPUs (counted where the platform reports them)."""
    counts = [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if v in os.environ]
    return (bool(counts) and all(c == "1" for c in counts)
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


# decompose the second matrix of a pair on a thread of its own. np.linalg's
# eigh and eigvalsh release the GIL, so with one BLAS thread the two
# decompositions overlap on two CPUs; with BLAS's own threads they would
# compete for the CPUs, and were slower than one after the other
SECOND_THREAD = _blas_pinned_with_spare_cpu()
# the least n at which the second thread is started: below it, starting the
# thread cost more than the overlap saved (2-core host, one BLAS thread)
SECOND_THREAD_MIN_N = 200


@dataclass(frozen=True)
class IsoResult:
    """Outcome of a spectral matching attempt between two adjacency matrices."""

    permutation: PermutationMatrix
    signs: np.ndarray            # diagonal +-1 vector applied to eigenvectors
    residual: float              # ||A_A - P A_B P^T||_F
    exact: bool
    degenerate: bool             # a spectrum had near-equal adjacent eigenvalues


def _spectrum(A, name: str, vectors: bool):
    """The checks of one input matrix, then its ascending eigenvalues, its
    eigenvectors (None unless ``vectors``) and its smallest adjacent gap.

    The eigensolver reads only one triangle of a matrix, so a non-symmetric
    input would be matched as a different graph.
    """
    if A.size == 0:
        raise InputError(f"the {name} matrix is empty")
    if not np.isfinite(A).all():
        raise InputError(f"the {name} matrix has a non-finite entry")
    # the cheap exact comparison settles the usual, exactly symmetric
    # input; asymmetry at rounding level (Q A Q^T) is accepted
    if not np.array_equal(A, A.T) and (
            np.abs(A - A.T).max() > 1e-12 * max(np.abs(A).max(), 1.0)):
        raise InputError(f"the {name} matrix is not symmetric")
    vals, vecs = np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
    return vals, vecs, np.diff(vals).min(initial=np.inf)


def _spectra(A_A, A_B, vectors: bool = True):
    """(A_A, A_B, spectrum of A_A, spectrum of A_B): both inputs as float
    arrays, square of one size, each with ``_spectrum``'s results.

    With ``SECOND_THREAD`` and n >= ``SECOND_THREAD_MIN_N``, A_B's work runs
    as a future on a one-thread pool that lives for this call, and an error
    of A_A's, found in the caller's thread, takes precedence.
    """
    A_A = np.asarray(A_A, dtype=float)
    A_B = np.asarray(A_B, dtype=float)
    n = A_A.shape[0]
    if A_A.shape != A_B.shape or A_A.shape != (n, n):
        raise InputError("inputs must be square matrices of equal size")
    if not SECOND_THREAD or n < SECOND_THREAD_MIN_N:
        return A_A, A_B, _spectrum(A_A, "first", vectors), _spectrum(A_B, "second", vectors)
    # leaving the block joins the worker, so no thread outlives a call and
    # an error of A_A's is raised before result() raises one of A_B's
    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(_spectrum, A_B, "second", vectors)
        first = _spectrum(A_A, "first", vectors)
    return A_A, A_B, first, second.result()


def _verified(A_A, A_B, U_A, U_B, perm: PermutationMatrix, gap) -> IsoResult:
    """The result of a candidate P: its residual ||A_A - P A_B P^T||_F, with
    (P A_B P^T)[i, j] = A_B[p_i, p_j], is exact up to 1e-8 max(||A_A||_F, 1),
    the signs compare U_A with P U_B, and ``gap`` is both spectra's least gap."""
    p = perm.mapping
    residual = frobenius_norm(A_A - A_B[np.ix_(p, p)])
    signs = np.where(np.einsum("ij,ij->j", U_A, U_B[p]) < 0, -1.0, 1.0)
    exact = residual <= 1e-8 * max(frobenius_norm(A_A), 1.0)
    return IsoResult(perm, signs, residual, exact, degenerate=bool(gap <= GAP_TOL))


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
    A_A, A_B, (vals_a, U_A, gap_a), (vals_b, U_B, gap_b) = _spectra(A_A, A_B)
    gap = min(gap_a, gap_b)
    if gap <= GAP_TOL:
        raise NumericalError(f"adjacent eigenvalue gap {gap:.3e} below {GAP_TOL:.3e}")
    if np.abs(vals_a - vals_b).max() > 1e-6 * max(1.0, np.abs(vals_a).max()):
        return None  # different spectra: no isomorphism possible

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
            result = _verified(A_A, A_B, U_A, U_B, PermutationMatrix(np.argmax(cand, axis=1)), gap)
            if result.exact:
                return result
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
    A_A, A_B, (_, U_A, gap_a), (_, U_B, gap_b) = _spectra(A_A, A_B)
    perm = hungarian(np.abs(U_A) @ np.abs(U_B).T)
    return _verified(A_A, A_B, U_A, U_B, perm, min(gap_a, gap_b))


def hoffman_wielandt_gap(A_A, A_B) -> tuple[float, float]:
    """(sum of squared sorted-eigenvalue differences, squared Frobenius distance).

    The first component never exceeds the second; the gap between them
    measures how far the two matrices are from being aligned by an
    orthogonal conjugation.
    """
    # eigvalsh returns ascending eigenvalues: the sorted pairing
    A_A, A_B, (alpha, _, _), (beta, _, _) = _spectra(A_A, A_B, vectors=False)
    lower = float(np.sum((alpha - beta) ** 2))
    dist = float(frobenius_norm(A_A - A_B) ** 2)
    return lower, dist
