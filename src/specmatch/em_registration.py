"""EM point registration in the spectral embedding space.

The first shape's embedded points act as Gaussian cluster centers under
an unknown orthogonal transformation; the second shape's points are the
data. An extra uniform component over the unit ball absorbs outliers.
The algorithm alternates posterior assignment with a closed-form
orthogonal update until the likelihood stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .textfile import write_text

SIGMA_FLOOR = 1e-12
# squared distances below this share of max |y|^2 + max |R x|^2 are
# recomputed by differences in ``_sq_distances``; the expansion's error on
# every other entry is then at most about K eps / NEAR_PAIR_SHARE of the
# entry (about 1e-11 at K = 50)
NEAR_PAIR_SHARE = 1e-3
# a data point is matched when its largest posterior strictly exceeds this
MAP_THRESHOLD = 0.5
# EM has converged once the relative log-likelihood change drops below this
TOL = 1e-6
# EM stops after this many iterations whether or not it has converged
MAX_ITER = 100
# EM visits the data points in row blocks whose distance matrix holds at most
# this many entries (8 MB); a block has at least one row
BLOCK_ENTRIES = 1 << 20
# np.exp returns 0.0 below about -745.13; e_step writes that 0.0 itself
# for exponents below this, sparing exp's slow path on underflow
EXP_ZERO = -746.0
# prior of the uniform outlier class over the unit ball; each of the n
# clusters has prior (1 - PI_OUT) / n
PI_OUT = 0.01


def unit_ball_volume(K: int) -> float:
    """Volume of the unit ball in K dimensions.
    ``scipy.special`` is imported here, so only a command that runs EM loads it."""
    from scipy.special import gammaln

    return float(np.exp((K / 2.0) * np.log(np.pi) - gammaln(K / 2.0 + 1.0)))


def _sq_distances(X: np.ndarray, X_data: np.ndarray, R: np.ndarray) -> np.ndarray:
    """m x n squared distances between data points and transformed centers.

    The matrix is |y_j|^2 + |R x_i|^2 - 2 y_j^T R x_i from one matrix
    product. Its rounding error, about K eps (max |y|^2 + max |R x|^2),
    would swamp the distance of a near-coincident pair, so the entries
    below ``NEAR_PAIR_SHARE`` of that scale are recomputed from coordinate
    differences; coincident pairs come out exactly 0.
    """
    Y = R @ X
    y_sq = np.einsum("ij,ij->j", X_data, X_data)
    c_sq = np.einsum("ij,ij->j", Y, Y)
    D2 = X_data.T @ Y
    D2 *= -2.0
    D2 += y_sq[:, None]
    D2 += c_sq
    near = D2 < NEAR_PAIR_SHARE * (y_sq.max() + c_sq.max())
    if near.any():
        j, i = np.nonzero(near)
        diff = X_data[:, j] - Y[:, i]
        D2[j, i] = (diff * diff).sum(axis=0)
    return D2


class EStep(NamedTuple):
    """One block's e-step. Row j's posterior is ``weights[j] / denom[j]``
    over the n clusters and ``outlier[j] / denom[j]`` for the outlier class."""

    weights: np.ndarray      # m x n unnormalised inlier weights, in D2's buffer
    row_sums: np.ndarray     # sum of each row of weights
    outlier: np.ndarray      # the outlier class's term on the same scale
    denom: np.ndarray        # row_sums + outlier
    log_likelihood: float


def e_step(D2: np.ndarray, sigma: float, K: int, d2_max: float) -> EStep:
    """Unnormalised posterior weights of a block of data points and their
    observed-data log-likelihood, from the m x n squared distances ``D2``
    of ``_sq_distances`` in K dimensions at variance sigma. ``D2`` is
    overwritten with the weights.

    Row j's weights are exp(-D2_ji / (2 sigma) - shift_j), with shift_j
    the larger of the row's largest exponent and the outlier term's, so
    very small variances do not underflow. A row's log-likelihood is its
    shift plus the log of its normalizer plus log pi_in - K/2 log(2 pi
    sigma). ``d2_max`` bounds every entry of ``D2``; exponents that it
    shows may fall below ``EXP_ZERO`` are set to 0 without calling ``exp``.
    A wrong bound costs time, never accuracy.
    """
    m, n = D2.shape
    pi_in = (1.0 - PI_OUT) / n
    # the outlier term over the Gaussian ones is uniform_const sigma^{K/2},
    # with the uniform density supported on the unit ball (the
    # hypersphere-normalized coordinates live inside it)
    density = 1.0 / unit_ball_volume(K)
    uniform_const = (PI_OUT / pi_in) * (2.0 * np.pi) ** (K / 2.0) * density
    log_u = np.log(uniform_const) + (K / 2.0) * np.log(sigma)
    # the exponents and their exponentials are written in place
    weights = np.divide(D2, -2.0 * sigma, out=D2)
    shift = np.maximum(weights.max(axis=1), log_u)
    weights -= shift[:, None]
    # every exponent is at least -d2_max / (2 sigma) - max(shift), and
    # every shift is at most max(0, log_u), since no D2 entry is negative
    if -d2_max / (2.0 * sigma) - max(log_u, 0.0) < EXP_ZERO:
        low = weights < EXP_ZERO
        np.exp(weights, out=weights, where=~low)
        weights[low] = 0.0
    else:
        np.exp(weights, out=weights)
    row_sums = weights.sum(axis=1)
    outlier = np.exp(log_u - shift)
    denom = row_sums + outlier
    const = np.log(pi_in) - (K / 2.0) * np.log(2.0 * np.pi * sigma)
    ll = float((shift + np.log(denom)).sum() + m * const)
    return EStep(weights, row_sums, outlier, denom, ll)


def m_step(
    X: np.ndarray, X_data: np.ndarray, weighted: np.ndarray,
    col_mass: np.ndarray, row_mass: np.ndarray,
) -> tuple[np.ndarray, float, bool]:
    """Closed-form orthogonal alignment and variance update from the
    posterior's sufficient statistics over its m x n inlier columns alpha:
    ``weighted`` = X_data @ alpha (K x n), ``col_mass`` = alpha's column
    sums and ``row_mass`` its row sums.

    Returns (R, sigma, degenerate). R is the orthogonal polar factor of
    the posterior-weighted cross-covariance; reflections are allowed.
    ``degenerate`` is set when the cross-covariance is rank deficient,
    in which case the factorization completes the rotation
    deterministically on the null space.
    """
    cross = weighted @ X.T
    A, svals, Bt = np.linalg.svd(cross)
    R = A @ Bt
    degenerate = bool(svals.size and svals[-1] <= 1e-12 * max(svals[0], 1e-300))

    total = row_mass.sum()
    if total <= 0:
        raise ValueError("posterior carries no inlier mass")
    # sum_ji alpha_ji |y_j - R x_i|^2 without a distance matrix, as in rigid
    # Coherent Point Drift: tr(R^T cross) is the sum of the singular values.
    # Rounding can leave it slightly negative, which the floor absorbs.
    residual = (row_mass @ (X_data ** 2).sum(axis=0)
                + col_mass @ (X ** 2).sum(axis=0) - 2.0 * svals.sum())
    sigma = float(residual / (X.shape[0] * total))
    return R, max(sigma, SIGMA_FLOOR), degenerate


def log_likelihood(X: np.ndarray, X_data: np.ndarray, R: np.ndarray, sigma: float) -> float:
    """Observed-data log-likelihood of the mixture (the EM objective) at
    (R, sigma), from its own distance matrix, built by direct differences
    rather than by ``_sq_distances``; ``e_step`` returns the same value.
    Only tests and tracers call it, so its scipy imports are made here, not at import."""
    from scipy.spatial.distance import cdist
    from scipy.special import logsumexp

    K, n = X.shape
    D2 = cdist(X_data.T, (R @ X).T, metric="sqeuclidean")
    log_gauss = (
        np.log((1.0 - PI_OUT) / n)
        - (K / 2.0) * np.log(2.0 * np.pi * sigma)
        - D2 / (2.0 * sigma)
    )
    log_out = np.log(PI_OUT) + np.log(1.0 / unit_ball_volume(K))
    terms = np.concatenate([log_gauss, np.full((D2.shape[0], 1), log_out)], axis=1)
    return float(logsumexp(terms, axis=1).sum())


@dataclass(frozen=True)
class Correspondence:
    """Soft and hard assignments from the second shape onto the first."""

    posterior: np.ndarray                 # m x (n+1), row-stochastic
    map_matches: list = field(default_factory=list)   # (j, i) accepted pairs
    unmatched: list = field(default_factory=list)     # j indices left out
    iterations: int = 0
    log_likelihood: float = float("-inf")
    log_likelihood_trace: np.ndarray = None
    R: np.ndarray = None                  # K x K orthogonal alignment
    sigma: float = None                   # isotropic variance
    degenerate: bool = False
    converged: bool = False               # False when MAX_ITER stopped EM


def em_register(X: np.ndarray, X_data: np.ndarray, R0: np.ndarray) -> Correspondence:
    """Register the data point set onto the cluster set starting from R0.

    X is K x n (cluster centers), X_data is K x m. R0 is an orthogonal
    K x K matrix, typically the signed permutation produced by the
    eigenbasis alignment. Iterates until the relative log-likelihood
    change drops below ``TOL`` or ``MAX_ITER`` is hit, then accepts the
    assignments whose posterior strictly exceeds ``MAP_THRESHOLD``. Each
    iteration is an m-step followed by an e-step; the first e-step, at R0,
    also gives the starting variance. An e-step visits the data points in
    row blocks of at most ``BLOCK_ENTRIES`` distances, builds one distance
    matrix per block and adds the block's unnormalised weights, scaled by
    their rows' normalisers, to the m-step's sufficient statistics. The
    last e-step instead writes the normalised posterior, which with its
    likelihood is the result.
    """
    X = np.asarray(X, dtype=float)
    X_data = np.asarray(X_data, dtype=float)
    K, n = X.shape
    if X_data.shape[0] != K:
        raise ValueError("embeddings must share the same dimension K")
    if n == 0:
        raise ValueError("the cluster point set X is empty")
    if X_data.shape[1] == 0:
        raise ValueError("the data point set X_data is empty")
    R = np.asarray(R0, dtype=float)
    if R.shape != (K, K) or np.linalg.norm(R.T @ R - np.eye(K)) > 1e-8:
        raise ValueError(f"R0 must be an orthogonal {K} x {K} matrix")

    m = X_data.shape[1]
    rows = max(1, BLOCK_ENTRIES // n)
    blocks = [slice(start, start + rows) for start in range(0, m, rows)]
    # R is orthogonal, so no squared distance exceeds (max |y| + max |x|)^2
    d2_max = (np.linalg.norm(X_data, axis=0).max() + np.linalg.norm(X, axis=0).max()) ** 2

    # the starting variance is the mean squared distance from each data
    # point to its nearest center; a single block's matrix is also the
    # first e-step's, more blocks are built again
    nearest = np.empty(m)
    for b in blocks:
        D2 = _sq_distances(X, X_data[:, b], R)
        nearest[b] = D2.min(axis=1)
    sigma = max(float(nearest.mean()), SIGMA_FLOOR)
    if len(blocks) > 1:
        D2 = None
    posterior = np.empty((m, n + 1))
    winners = np.empty(m, dtype=np.intp)
    row_mass = np.empty(m)
    trace = []
    degenerate = converged = False
    iterations = 0
    while True:
        # the last e-step alone normalises its rows, into the posterior;
        # the others add their blocks to the m-step's sufficient statistics
        last = converged or iterations == MAX_ITER
        weighted = np.zeros((K, n))
        col_mass = np.zeros(n)
        ll = 0.0
        for b in blocks:
            if D2 is None:
                D2 = _sq_distances(X, X_data[:, b], R)
            step = e_step(D2, sigma, K, d2_max)
            ll += step.log_likelihood
            if last:
                inlier = posterior[b, :n]
                np.divide(step.weights, step.denom[:, None], out=inlier)
                np.divide(step.outlier, step.denom, out=posterior[b, n])
                # by block: argmax copies a strided matrix first
                winners[b] = inlier.argmax(axis=1)
            else:
                r = 1.0 / step.denom
                weighted += (X_data[:, b] * r) @ step.weights
                col_mass += r @ step.weights
                row_mass[b] = step.row_sums * r
            # the next matrix is built only after this one is dropped
            D2 = step = None
        if not np.isfinite(ll):
            raise NumericalError(f"non-finite log-likelihood at e-step {iterations + 1}")
        trace.append(ll)
        if last:
            break
        R, sigma, degenerate = m_step(X, X_data, weighted, col_mass, row_mass)
        iterations += 1
        # converged once the likelihood this m-step started from moved less
        # than TOL from the one before; one more e-step gives the result
        converged = iterations > 1 and (
            abs(ll - trace[-2]) / max(abs(trace[-2]), 1e-30) < TOL
        )

    accepted = posterior[np.arange(winners.size), winners] > MAP_THRESHOLD
    map_matches = [(j, int(winners[j])) for j in np.flatnonzero(accepted).tolist()]
    unmatched = np.flatnonzero(~accepted).tolist()
    return Correspondence(
        posterior=posterior,
        map_matches=map_matches,
        unmatched=unmatched,
        iterations=iterations,
        log_likelihood=ll,
        log_likelihood_trace=np.array(trace),
        R=R,
        sigma=sigma,
        degenerate=degenerate,
        converged=converged,
    )


def write_correspondence_tsv(corr: Correspondence, path) -> None:
    """`j<TAB>i<TAB>posterior` per accepted match; unmatched rows use i = -1."""
    post = corr.posterior
    matched = dict(corr.map_matches)
    # an unmatched row's -1 also indexes its posterior: the outlier column
    targets = [matched.get(j, -1) for j in range(post.shape[0])]
    write_text(path, (f"{j}\t{i}\t{post[j, i]:.17g}\n" for j, i in enumerate(targets)))
