"""Eigenvector histogram signatures and cross-shape eigenbasis alignment.

Eigenvector order and sign are arbitrary across two shapes. The value
distribution of an eigenvector's components is invariant under vertex
relabeling but mirrors under a sign flip, so matching histograms pins
down both the pairing and the signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matutil import hungarian

DEFAULT_BINS = 100
DEFAULT_THRESHOLD = 0.7


@dataclass(frozen=True)
class EigenSignature:
    """Normalized histogram of an eigenvector's components."""

    bin_edges: np.ndarray     # B+1 ascending edges, symmetric about 0
    mass: np.ndarray          # B frequencies summing to 1


def eigensignature(u, B: int = DEFAULT_BINS, limit: float | None = None) -> EigenSignature:
    """Histogram of the components of ``u`` over a symmetric range.

    ``limit`` sets the half-range; by default the largest absolute
    component. Cross-shape comparisons must pass a shared limit so both
    signatures use identical bins.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size < 2:
        raise ValueError("eigenvector must have at least 2 components")
    edges = _bin_edges(np.abs(u).max() if limit is None else limit, B)
    counts, _ = np.histogram(u, bins=edges)
    mass = counts / u.size
    return EigenSignature(bin_edges=edges, mass=mass)


def _bin_edges(limit, B: int) -> np.ndarray:
    """B+1 edges over [-a, a] for each limit a, along the last axis; a limit
    <= 0 (an all-zero vector) becomes 1."""
    a = np.asarray(limit, dtype=float)
    a = np.where(a <= 0, 1.0, a)
    return np.linspace(-a, a, B + 1, axis=-1)


def histogram_similarity(H1: EigenSignature, H2: EigenSignature) -> float:
    """Pearson correlation of the two mass vectors, in [-1, 1]."""
    if H1.bin_edges.shape != H2.bin_edges.shape or not np.allclose(
        H1.bin_edges, H2.bin_edges, rtol=0.0, atol=1e-12
    ):
        raise InputError("signatures use different bins")
    a = H1.mass - H1.mass.mean()
    b = H2.mass - H2.mass.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0 if np.array_equal(H1.mass, H2.mass) else 0.0
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class EigenAlignment:
    """Matched eigenvector indices with signs and similarity scores.

    ``permutation[k]`` is the index in the second shape matched to
    eigenvector k of the first; ``kept`` lists the first-shape indices
    whose match score reached the threshold.
    """

    permutation: np.ndarray   # length K, bijective
    signs: np.ndarray         # length K, +-1
    kept: np.ndarray          # sorted indices into [0, K)
    scores: np.ndarray        # length K similarity of each matched pair

    @property
    def K(self) -> int:
        return self.permutation.size


def align_embeddings(
    U: np.ndarray,
    U_other: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    bins: int = DEFAULT_BINS,
) -> EigenAlignment:
    """Match the eigenvector columns of two shapes by histogram similarity.

    For every pair (k, l) both orientations of the second shape's
    eigenvector are scored over shared symmetric bins; the assignment
    solver extracts the best pairing and matched pairs scoring below the
    threshold are dropped. Scores are those of ``eigensignature`` and
    ``histogram_similarity``; an exact tie between the two orientations
    resolves to +1.
    """
    U = np.asarray(U, dtype=float)
    U_other = np.asarray(U_other, dtype=float)
    if U.ndim != 2 or U_other.ndim != 2 or U.shape[1] != U_other.shape[1]:
        raise ValueError("eigenvector blocks must share the same column count K")
    if min(U.shape[0], U_other.shape[0]) < 2:
        raise ValueError("eigenvector must have at least 2 components")
    scores, sign_table = _pair_scores(U, U_other, bins)
    K = scores.shape[0]
    perm = hungarian(scores)
    matched_scores = scores[np.arange(K), perm.mapping]
    signs = sign_table[np.arange(K), perm.mapping]
    kept = np.flatnonzero(matched_scores >= threshold)
    if kept.size == 0:
        raise InputError(
            "no eigenvector pair reached the similarity threshold "
            f"{threshold}; shapes may be too dissimilar or K too large"
        )
    return EigenAlignment(
        permutation=perm.mapping.copy(),
        signs=signs,
        kept=kept,
        scores=matched_scores,
    )


def _pair_scores(U: np.ndarray, U_other: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """K x K tables of the better orientation's score and its sign, equal to
    what ``eigensignature`` and ``histogram_similarity`` give pair by pair;
    pair (k, l) is binned over its own limit max(m_k, m'_l)."""
    K = U.shape[1]
    su = np.sort(U, axis=0).T
    sv = np.sort(U_other, axis=0).T
    m_u = np.abs(U).max(axis=0)
    m_v = np.abs(U_other).max(axis=0)
    # hu[k, l]: u_k over pair (k, l)'s bins
    hu = np.empty((K, K, bins), dtype=np.int64)
    for k in range(K):
        hu[k] = _centred_counts(su[k], _bin_edges(np.maximum(m_u[k], m_v), bins))
    # per pair: u.v, u.(-v), |u|^2, |v|^2, |-v|^2 of the centred counts
    sums = np.empty((5, K, K), dtype=np.int64)
    for l in range(K):
        edges = _bin_edges(np.maximum(m_u, m_v[l]), bins)
        hp = _centred_counts(sv[l], edges)
        hn = _centred_counts(-sv[l, ::-1], edges)
        h = hu[:, l]
        for table, (x, y) in zip(sums, ((h, hp), (h, hn), (h, h), (hp, hp), (hn, hn))):
            table[:, l] = np.einsum("kb,kb->k", x, y)

    dot_pos, dot_neg, norm_u, norm_pos, norm_neg = sums
    c_pos = _pearson(dot_pos, norm_u, norm_pos)
    c_neg = _pearson(dot_neg, norm_u, norm_neg)
    scores = np.maximum(c_pos, c_neg)
    # equal integer sums give equal floats, so an exact tie resolves to +1
    sign_table = np.where(c_pos >= c_neg, 1.0, -1.0)
    return scores, sign_table


def _centred_counts(sorted_x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``B*c - n`` for the histogram of ``sorted_x`` over each row of
    ``edges``, as ``eigensignature`` builds them; one row per histogram.

    B*c - n is n*B times the mean-centred mass, so Pearson correlations
    computed from it equal those of ``histogram_similarity``. Every entry is
    at most B*n in magnitude, so a dot product or squared norm over B bins
    stays below B*(B*n)^2, inside int64 (9.2e18) up to n ~ 3e6 at B = 100;
    int32 can overflow from n = 466 at B = 100.
    """
    # np.histogram's rule for array bins: bin i holds edges[i] <= x <
    # edges[i+1], and the last bin is closed. No x lies outside the outer
    # edges, so the counts are the differences of [0, #x below each inner
    # edge, n].
    n = sorted_x.size
    below = np.searchsorted(sorted_x, edges[..., 1:-1])
    counts = np.diff(below, prepend=0, append=n, axis=-1)
    return (edges.shape[-1] - 1) * counts - n


def _pearson(dot: np.ndarray, norm1: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    """Correlations from exact integer sums, with ``histogram_similarity``'s
    rule for a flat histogram (zero norm): 1 when both are flat, since the
    masses are then equal, and 0 otherwise."""
    denom = np.sqrt(norm1.astype(float) * norm2)
    r = np.divide(dot, denom, out=np.zeros(dot.shape), where=denom > 0)
    r[(norm1 == 0) & (norm2 == 0)] = 1.0
    return np.clip(r, -1.0, 1.0)
