"""Matrix-analysis utilities: norms, assignment, doubly-stochastic tools."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# tolerance of the doubly-stochastic test and of Birkhoff peeling
TOL = 1e-9


@dataclass(frozen=True)
class PermutationMatrix:
    """A permutation stored as its mapping: row i has its 1 in column mapping[i]."""

    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=int)
        object.__setattr__(self, "mapping", m)
        n = m.size
        if not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError(f"mapping is not a bijection on [0, {n})")

    @property
    def n(self) -> int:
        return self.mapping.size

    def to_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n))
        mat[np.arange(self.n), self.mapping] = 1.0
        return mat


def frobenius_norm(A) -> float:
    """sqrt of the sum of squared entries."""
    A = np.asarray(A, dtype=float)
    return float(np.sqrt(np.sum(A * A)))


def hungarian(cost) -> PermutationMatrix:
    """The assignment of largest total on a square matrix.

    Backed by scipy's modified Jonker-Volgenant solver, which is
    deterministic for identical inputs. Every caller maximizes; a minimum-cost
    assignment is ``hungarian(-cost)``.
    ``scipy.optimize`` is imported here: it takes 0.25 s that embed and synth need not pay.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost must be square")
    if not np.isfinite(cost).all():
        raise ValueError("cost must be finite")
    from scipy.optimize import linear_sum_assignment

    _, cols = linear_sum_assignment(cost, maximize=True)
    return PermutationMatrix(cols)


def is_doubly_stochastic(A) -> bool:
    """True iff A is non-negative with all row and column sums equal to 1."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    if (A < -TOL).any():
        return False
    return bool(
        np.all(np.abs(A.sum(axis=0) - 1.0) <= TOL)
        and np.all(np.abs(A.sum(axis=1) - 1.0) <= TOL)
    )


def birkhoff_decompose(X) -> list[tuple[float, PermutationMatrix]]:
    """Decompose a doubly stochastic matrix into a convex sum of permutations.

    Greedy peeling: each term is the maximum-weight assignment on the
    residual R itself, with every entry outside the positive support
    ``R > 0`` priced at -n. A permutation inside the support scores > 0 and
    any other scores < 0, so the pick leaves the support only when the
    support holds no perfect matching, which raises ``InputError``.
    Taking the heaviest permutation of the support, rather than any one of
    them, sets the term count (Dufosse & Ucar, LAA 2016): a mix of 30
    permutations of size 100 comes apart in about 360 terms, not 2,400.
    Each step subtracts the smallest matched entry, which zeroes it, so
    there are at most (n-1)^2 + 1 terms.

    The support is ``R > 0``, not ``R > TOL``: near the end the residual's
    entries sit around ``TOL``, and a cut there can leave no perfect
    matching while R still has mass. The loop runs while a row sum of R
    exceeds ``TOL``. Every term lowers all row sums by its weight, so this
    tests R itself, leaves no entry above ``TOL``, and bounds 1 - sum(w)
    by ``TOL`` plus the input's own row-sum error. Stopping once no single
    entry exceeds ``TOL`` can leave row sums of several times ``TOL``.
    """
    R = np.asarray(X, dtype=float).copy()
    if not is_doubly_stochastic(R):
        raise ValueError("input is not doubly stochastic within tolerance")
    n = R.shape[0]
    rows = np.arange(n)
    terms: list[tuple[float, PermutationMatrix]] = []
    while R.sum(axis=1).max() > TOL:
        perm = hungarian(np.where(R > 0, R, -float(n)))
        matched = R[rows, perm.mapping]
        if (matched <= 0).any():
            raise InputError(
                "no permutation inside the positive support; "
                "input is not doubly stochastic"
            )
        w = float(matched.min())
        terms.append((w, perm))
        R[rows, perm.mapping] -= w
    return terms
