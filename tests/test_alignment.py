import numpy as np
import pytest

from specmatch.alignment import (
    EigenSignature,
    align_embeddings,
    eigensignature,
    histogram_similarity,
    _bin_edges,
    _centred_counts,
    _pearson,
)
from specmatch.errors import InputError
from specmatch.matutil import hungarian
from specmatch.laplacian import assemble
from specmatch.spectral import dense_eig

from conftest import random_connected_graph


def test_signature_mass_two_bins():
    sig = eigensignature(np.array([0.5, -0.5]), B=2)
    np.testing.assert_allclose(sig.mass, [0.5, 0.5])
    np.testing.assert_allclose(sig.bin_edges, [-0.5, 0.0, 0.5])


def test_signature_mass_sums_to_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(200)
    sig = eigensignature(u, B=40)
    assert sig.mass.sum() == pytest.approx(1.0)
    assert sig.bin_edges.size == 41


def test_signature_relabel_invariance():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(500)
    a = float(np.abs(u).max())
    sig = eigensignature(u, B=30, limit=a)
    shuffled = eigensignature(rng.permutation(u), B=30, limit=a)
    np.testing.assert_array_equal(sig.mass, shuffled.mass)


def test_signature_mirrors_under_sign_flip():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(500)
    a = float(np.abs(u).max())
    sig = eigensignature(u, B=30, limit=a)
    flipped = eigensignature(-u, B=30, limit=a)
    # symmetric bins: negating the vector reverses the histogram, up to
    # points landing exactly on bin edges (none here almost surely)
    np.testing.assert_array_equal(flipped.mass, sig.mass[::-1])


def test_similarity_self_is_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(300)
    sig = eigensignature(u, B=50)
    assert histogram_similarity(sig, sig) == pytest.approx(1.0)


def test_similarity_orthogonal_masses():
    edges = np.linspace(-1.0, 1.0, 3)
    h1 = EigenSignature(bin_edges=edges, mass=np.array([1.0, 0.0]))
    h2 = EigenSignature(bin_edges=edges, mass=np.array([0.0, 1.0]))
    assert histogram_similarity(h1, h2) == pytest.approx(-1.0)


def test_similarity_bounds():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.standard_normal(100)
        v = rng.standard_normal(100)
        a = max(np.abs(u).max(), np.abs(v).max())
        c = histogram_similarity(
            eigensignature(u, B=20, limit=a), eigensignature(v, B=20, limit=a)
        )
        assert -1.0 <= c <= 1.0


def test_similarity_bin_mismatch():
    u = np.arange(10.0)
    with pytest.raises(InputError, match="signatures use different bins"):
        histogram_similarity(eigensignature(u, B=10), eigensignature(u, B=20))


def test_skewed_vector_sign_detectable():
    # a strongly skewed component distribution scores its own reflection
    # well below itself, so sign flips are observable in the histogram
    rng = np.random.default_rng(5)
    u = rng.exponential(size=2000) - 0.3
    a = float(np.abs(u).max())
    same = histogram_similarity(
        eigensignature(u, B=60, limit=a), eigensignature(u, B=60, limit=a)
    )
    flipped = histogram_similarity(
        eigensignature(u, B=60, limit=a), eigensignature(-u, B=60, limit=a)
    )
    assert same == pytest.approx(1.0)
    assert flipped <= same - 0.1


def spectrum_block(seed, n=300, K=6):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n)
    spectrum = dense_eig(assemble(graph))
    return spectrum.eigenvectors[:, 1:K + 1]


def test_align_identity():
    U = spectrum_block(6)
    res = align_embeddings(U, U, threshold=0.7)
    np.testing.assert_array_equal(res.permutation, np.arange(U.shape[1]))
    np.testing.assert_allclose(res.signs, 1.0)
    np.testing.assert_array_equal(res.kept, np.arange(U.shape[1]))
    assert np.all(res.scores >= 0.999)


def test_align_scramble_recovery():
    rng = np.random.default_rng(7)
    U = spectrum_block(7)
    K = U.shape[1]
    perm = rng.permutation(K)
    signs = rng.choice([-1.0, 1.0], size=K)
    Up = np.empty_like(U)
    for k in range(K):
        Up[:, perm[k]] = signs[k] * U[:, k]
    res = align_embeddings(U, Up, threshold=0.7)
    np.testing.assert_array_equal(res.permutation, perm)
    np.testing.assert_array_equal(res.signs, signs)


def test_align_threshold_drops_dissimilar():
    rng = np.random.default_rng(9)
    U = spectrum_block(9, K=4)
    # make one column of the second block pure noise at tight bins, so at
    # least the noise pair falls under an aggressive threshold
    V = U.copy()
    noise = rng.standard_normal(U.shape[0])
    V[:, 3] = noise / np.linalg.norm(noise)
    res = align_embeddings(U, V, threshold=0.95, bins=400)
    assert 3 not in set(res.kept.tolist())
    assert {0, 1, 2}.issubset(set(res.kept.tolist()))


def test_align_empty_raises():
    rng = np.random.default_rng(10)
    U = rng.standard_normal((200, 3))
    V = rng.standard_normal((200, 3))
    with pytest.raises(InputError, match="no eigenvector pair reached the similarity threshold"):
        align_embeddings(U, V, threshold=1.0 - 1e-12, bins=500)


def loop_alignment(U, V, threshold, bins):
    """The pair-by-pair double loop over the public signature functions:
    the reference the batched scoring is held to. Returns the permutation,
    signs, kept set and scores, plus c_pos - c_neg of each matched pair."""
    K = U.shape[1]
    scores = np.empty((K, K))
    signs = np.empty((K, K))
    margin = np.empty((K, K))
    for k in range(K):
        u = U[:, k]
        for l in range(K):
            v = V[:, l]
            a = max(np.abs(u).max(), np.abs(v).max())
            h_u = eigensignature(u, B=bins, limit=a)
            c_pos = histogram_similarity(h_u, eigensignature(v, B=bins, limit=a))
            c_neg = histogram_similarity(h_u, eigensignature(-v, B=bins, limit=a))
            scores[k, l] = max(c_pos, c_neg)
            signs[k, l] = 1.0 if c_pos >= c_neg else -1.0
            margin[k, l] = c_pos - c_neg
    perm = hungarian(scores).mapping
    rows = np.arange(K)
    matched = scores[rows, perm]
    return perm, signs[rows, perm], np.flatnonzero(matched >= threshold), matched, margin[rows, perm]


def assert_matches_loop(U, V, threshold=0.7, bins=100):
    perm, signs, kept, scores, margin = loop_alignment(U, V, threshold, bins)
    res = align_embeddings(U, V, threshold=threshold, bins=bins)
    np.testing.assert_array_equal(res.permutation, perm)
    np.testing.assert_array_equal(res.kept, kept)
    np.testing.assert_allclose(res.scores, scores, rtol=0.0, atol=1e-12)
    decided = np.abs(margin) > 1e-12
    np.testing.assert_array_equal(res.signs[decided], signs[decided])
    return res


def scrambled(U, rng):
    perm = rng.permutation(U.shape[1])
    signs = rng.choice([-1.0, 1.0], size=U.shape[1])
    V = np.empty_like(U)
    V[:, perm] = signs * U
    return V


@pytest.mark.parametrize("bins", [20, 100, 400])
def test_align_matches_loop_scrambled(bins):
    rng = np.random.default_rng(20)
    U = spectrum_block(20, K=8)
    assert_matches_loop(U, scrambled(U, rng), bins=bins)


@pytest.mark.parametrize("bins", [20, 100, 400])
def test_align_matches_loop_noisy_unequal_sizes(bins):
    # the second block keeps 263 of 300 rows, jittered, so n_u != n_v
    rng = np.random.default_rng(21)
    U = spectrum_block(21, K=8)
    rows = np.sort(rng.choice(U.shape[0], 263, replace=False))
    V = scrambled(U[rows] + 0.02 * U.std() * rng.standard_normal((263, 8)), rng)
    assert_matches_loop(U, V, threshold=0.3, bins=bins)
    assert_matches_loop(V, U, threshold=0.3, bins=bins)


@pytest.mark.parametrize("bins", [20, 100, 400])
def test_counts_on_edges_match_np_histogram(bins):
    # every value sits on a bin edge, the first and last edges included
    edges = np.linspace(-1.0, 1.0, bins + 1)
    rng = np.random.default_rng(22)
    u = rng.permutation(np.concatenate([edges, edges[1:-1:3]]))
    v = 0.5 * edges[rng.integers(0, bins + 1, size=77)]
    for x in (u, v, -v):
        counts, _ = np.histogram(x, bins=edges)
        c = _centred_counts(np.sort(x), _bin_edges(1.0, bins))
        np.testing.assert_array_equal(c, bins * counts - x.size)
    # one sorted vector against several limits in one call, one of them its
    # own maximum, which falls in the closed last bin
    w = np.sort(v)
    limits = np.array([1.5, w.max(), 0.75, 3.0])
    edge_rows = _bin_edges(limits, bins)
    c = _centred_counts(w, edge_rows)
    for row, e in zip(c, edge_rows):
        np.testing.assert_array_equal(e, np.linspace(-e[-1], e[-1], bins + 1))
        counts, _ = np.histogram(w, bins=e)
        np.testing.assert_array_equal(row, bins * counts - w.size)


def test_align_matches_loop_with_edge_values_and_zero_column():
    # columns with values on the shared bin edges, and an all-zero column
    # in each block, whose pair with the other takes the limit 1.0
    rng = np.random.default_rng(23)
    bins = 20
    U = spectrum_block(23, K=5)
    V = scrambled(U, rng)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    U[:, 0] = edges[rng.integers(0, bins + 1, size=U.shape[0])]
    U[:2, 0] = [-1.0, 1.0]
    V[:, 1] = edges[rng.integers(0, bins + 1, size=V.shape[0])]
    U[:, 4] = 0.0
    V[:, 2] = 0.0
    res = assert_matches_loop(U, V, threshold=-1.0, bins=bins)
    np.testing.assert_array_equal(res.permutation[4], 2)


def test_exact_sign_tie_resolves_to_plus_one():
    # u's histogram is mirror-symmetric, so v and -v correlate with it
    # exactly equally; the loop's float rounding picks -1 on this input
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    U = np.concatenate([x, -x])[:, None]
    V = rng.exponential(size=200)[:, None] - 0.5
    c = _centred_counts(np.sort(U[:, 0]), _bin_edges(np.abs(V).max(), 20))
    np.testing.assert_array_equal(c, c[::-1])
    _, loop_signs, _, loop_scores, margin = loop_alignment(U, V, -1.0, 20)
    assert abs(margin[0]) < 1e-12
    res = align_embeddings(U, V, threshold=-1.0, bins=20)
    assert res.signs[0] == 1.0
    np.testing.assert_allclose(res.scores, loop_scores, rtol=0.0, atol=1e-12)


def test_sums_do_not_overflow_int32():
    # u_0 fills one bin, so its squared norm n^2*B*(B-1) ~ 9.9e9 exceeds
    # 2^31; a sum taken in int32 would wrap and change the scores
    rng = np.random.default_rng(24)
    n = 1000
    U = np.column_stack([np.full(n, 0.3), rng.standard_normal(n)])
    V = np.column_stack([rng.standard_normal(n), np.full(n, -0.2) + 0.01 * rng.random(n)])
    assert_matches_loop(U, V, threshold=-1.0, bins=100)


def test_flat_histograms_score_one_together_and_zero_against_others():
    # u puts one value in each of 4 bins, so its centred mass has zero norm
    # and no Pearson correlation; -u's histogram is not flat. Two flat
    # histograms have equal masses and score 1, a flat one against any
    # other 0, pair by pair and in the batched scores alike
    u = np.array([-1.0, -0.5, 0.0, 0.5])
    flat, other = eigensignature(u, B=4), eigensignature(-u, B=4)
    np.testing.assert_array_equal(flat.mass, 0.25)
    assert histogram_similarity(flat, flat) == 1.0
    assert histogram_similarity(flat, other) == histogram_similarity(other, flat) == 0.0
    edges = _bin_edges(1.0, 4)
    h_flat, h_other = (_centred_counts(np.sort(x), edges) for x in (u, -u))
    for x, y, want in ((h_flat, h_flat, 1.0), (h_flat, h_other, 0.0),
                       (h_other, h_flat, 0.0)):
        assert _pearson(np.array([x @ y]), np.array([x @ x]), np.array([y @ y])) == [want]
    res = assert_matches_loop(u[:, None], -u[:, None], threshold=-1.0, bins=4)
    assert (res.scores[0], res.signs[0]) == (1.0, -1.0)
