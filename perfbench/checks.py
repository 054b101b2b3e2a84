"""Output checks for every benchmark operation.

Each check recomputes what it can apart from the package (permutation
conjugation, Birkhoff sums, Laplacian residuals against the benchmark's own
operator) or tests a property the method must have (EM likelihood ascent,
row-stochastic posteriors). A check returns nothing on success and raises
``CheckFailed`` naming the first violated property.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_relabel_match(map_matches, unmatched, gt_pairs: dict, m: int) -> None:
    """Every vertex of the relabelled shape maps to its true counterpart.

    An exact map has geodesic error 0 at every vertex, so this is the
    mean-geodesic-error-is-0 condition without the distance computation.
    """
    _require(not unmatched, f"{len(unmatched)} vertices left unmatched")
    _require(len(map_matches) == m, f"{len(map_matches)} matches for {m} vertices")
    wrong = sum(1 for j, i in map_matches if gt_pairs.get(j) != i)
    _require(wrong == 0, f"{wrong} of {m} vertices mapped off their ground truth")
    _require(len({j for j, _ in map_matches}) == m, "a vertex is matched twice")


def check_em(posterior, map_matches, unmatched, ll_trace, m: int, n: int) -> None:
    """EM invariants: likelihood ascent, stochastic posteriors, MAP rule."""
    post = np.asarray(posterior, dtype=float)
    _require(post.shape == (m, n + 1), f"posterior shape {post.shape} != {(m, n + 1)}")
    _require(np.isfinite(post).all(), "posterior has non-finite entries")
    _require((post >= 0.0).all(), "posterior has negative entries")
    _require(np.allclose(post.sum(axis=1), 1.0, rtol=0.0, atol=1e-9),
             "posterior rows do not sum to 1")

    trace = np.asarray(ll_trace, dtype=float)
    _require(trace.ndim == 1 and trace.size >= 2, "likelihood trace is too short")
    _require(np.isfinite(trace).all(), "likelihood trace has non-finite entries")
    drops = trace[:-1] - trace[1:]
    _require((drops <= 1e-9 * np.abs(trace[:-1])).all(),
             f"log-likelihood decreased by up to {drops.max():.3e}")

    rows = [j for j, _ in map_matches]
    _require(len(set(rows)) == len(rows), "a data point is matched twice")
    for j, i in map_matches:
        _require(0 <= j < m and 0 <= i < n, f"match ({j}, {i}) out of range")
        _require(post[j, i] > 0.5, f"match ({j}, {i}) has posterior {post[j, i]:.3g} <= 0.5")
    _require(len(map_matches) + len(unmatched) == m,
             "matched plus unmatched does not equal m")
    _require(set(rows).isdisjoint(unmatched), "a point is both matched and unmatched")


def check_embedding(rows, L, reference_eigenvalues) -> None:
    """Commute-time rows x_k = u_k / sqrt(lambda_k) of the operator L.

    lambda_k is read back as 1 / |x_k|^2; the rows must be ascending in
    lambda, orthogonal to the constant vector, eigenvectors of L to within
    the solver's tolerance, and agree with the reference eigenvalues.
    """
    X = np.atleast_2d(np.asarray(rows, dtype=float))
    K, n = X.shape
    ref = np.asarray(reference_eigenvalues, dtype=float)
    _require(L.shape == (n, n), f"embedding has {n} columns, operator is {L.shape}")
    _require(ref.size == K, f"{K} rows for {ref.size} reference eigenvalues")
    norms = np.linalg.norm(X, axis=1)
    _require((norms > 0).all(), "an embedding row is zero")
    lam = 1.0 / norms ** 2
    _require((np.diff(lam) >= -1e-12 * lam[1:]).all(), "rows are not ascending in lambda")
    sums = X.sum(axis=1)
    _require((np.abs(sums) <= 1e-8 * np.sqrt(n) * norms).all(),
             "an embedding row does not sum to 0")
    scale = float(abs(L).sum(axis=0).max())
    residual = np.linalg.norm((L @ X.T) - X.T * lam, axis=0)
    _require((residual <= 1e-7 * scale * norms).all(),
             f"eigen-residual {(residual / norms).max():.3e} above {1e-7 * scale:.3e}")
    _require(np.allclose(lam, ref, rtol=1e-7, atol=1e-12 * scale),
             f"eigenvalues differ from the reference by {np.abs(lam - ref).max():.3e}")


def check_isomorphism(mapping, A_A, A_B, planted) -> None:
    """P A_B P^T = A_A for the returned P, and P is the planted permutation.

    P has its 1 in row i at column mapping[i], so (P A_B P^T)_ij is
    A_B[mapping[i], mapping[j]].
    """
    p = np.asarray(mapping)
    A_A = np.asarray(A_A, dtype=float)
    A_B = np.asarray(A_B, dtype=float)
    n = A_A.shape[0]
    _require(np.array_equal(np.sort(p), np.arange(n)), "result is not a permutation")
    conj = A_B[np.ix_(p, p)]
    err = np.linalg.norm(conj - A_A)
    _require(err <= 1e-9 * max(np.linalg.norm(A_A), 1.0),
             f"|P A_B P^T - A_A| = {err:.3e}")
    _require(np.array_equal(p, np.asarray(planted)), "planted permutation not recovered")


def check_birkhoff(terms, X) -> None:
    """sum_i w_i P_i = X with positive weights summing to 1, <= (n-1)^2+1 terms."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    _require(0 < len(terms) <= (n - 1) ** 2 + 1, f"{len(terms)} terms for n={n}")
    total = np.zeros_like(X)
    weights = []
    for w, perm in terms:
        p = np.asarray(perm.mapping)
        _require(np.array_equal(np.sort(p), np.arange(n)), "a term is not a permutation")
        _require(w > 0, f"non-positive weight {w}")
        total[np.arange(n), p] += w
        weights.append(w)
    _require(abs(sum(weights) - 1.0) <= 1e-9, f"weights sum to {sum(weights)!r}")
    err = np.abs(total - X).max()
    _require(err <= 1e-9, f"max |sum w_i P_i - X| = {err:.3e}")
