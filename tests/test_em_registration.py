import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import special_ortho_group

from specmatch import em_registration, laplacian, mesh_graph
from specmatch.embedding import commute_time_embedding, normalize_hypersphere
from specmatch.em_registration import (
    Correspondence,
    _sq_distances,
    e_step,
    em_register,
    log_likelihood,
    m_step,
    unit_ball_volume,
    write_correspondence_tsv,
)
from specmatch.errors import NumericalError
from specmatch.shapes import bent_cylinder
from specmatch.spectral import dense_eig

SIGMA_FLOOR = 1e-12


def test_unit_ball_volume_anchors():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def _direct_sq_distances(X, X_data, R):
    return cdist(X_data.T, (R @ X).T, metric="sqeuclidean")


@pytest.fixture(scope="module")
def cylinder_spectrum():
    mesh = bent_cylinder(8, 20)
    return dense_eig(laplacian.assemble(mesh_graph.build_graph(mesh)))


@pytest.mark.parametrize("scaling", ["sm2", "sm1", "sm1-spread"])
def test_sq_distances_match_direct_differences(cylinder_spectrum, scaling):
    # sm2 points lie on the unit sphere; sm1 rows scale as lambda^{-1/2},
    # and "spread" also puts the point norms over three orders of magnitude
    K = 40
    emb = commute_time_embedding(cylinder_spectrum, K)
    X = normalize_hypersphere(emb).coords if scaling == "sm2" else emb.coords
    n = X.shape[1]
    if scaling == "sm1-spread":
        X = X * np.logspace(-3.0, 0.0, n)
    rng = np.random.default_rng(17)
    R = special_ortho_group.rvs(K, random_state=18)
    perm = rng.permutation(n)
    # half the data points coincide with their center, half are jittered
    data = (R @ X)[:, perm]
    jittered = rng.random(n) < 0.5
    data[:, jittered] += (0.05 * np.linalg.norm(X[:, perm[jittered]], axis=0)
                          * rng.standard_normal((K, jittered.sum())))
    D2 = _sq_distances(X, data, R)
    np.testing.assert_allclose(D2, _direct_sq_distances(X, data, R), rtol=1e-12, atol=0.0)
    coincident = np.flatnonzero(~jittered)
    assert np.all(D2[coincident, perm[coincident]] == 0.0)


def test_em_on_near_exact_copy_matches_direct_distances(monkeypatch):
    # a copy within 1e-10 drives sigma to the floor, where the distance
    # expansion's rounding alone would move the likelihood by about the
    # convergence tolerance; the near pairs' recompute keeps the trace that
    # direct differences give
    rng = np.random.default_rng(19)
    K, n = 10, 60
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    Q = special_ortho_group.rvs(K, random_state=20)
    data = Q @ X[:, rng.permutation(n)] + 1e-10 * rng.standard_normal((K, n))
    corr = em_register(X, data, Q)
    assert corr.sigma == SIGMA_FLOOR
    assert corr.converged and corr.iterations == 2
    monkeypatch.setattr(em_registration, "_sq_distances", _direct_sq_distances)
    direct = em_register(X, data, Q)
    np.testing.assert_allclose(corr.log_likelihood_trace, direct.log_likelihood_trace,
                               rtol=1e-14, atol=0.0)


def test_e_step_equidistant_centers():
    X = np.array([[-1.0, 1.0], [0.0, 0.0]])
    data = np.zeros((2, 1))
    post, _ = e_step(_sq_distances(X, data, np.eye(2)), 0.3, 2)
    assert post[0, 0] == post[0, 1]
    assert post[0].sum() == pytest.approx(1.0)


def test_e_step_outlier_balance(monkeypatch):
    # at distance zero the gaussian term is exp(0); in two dimensions with
    # one center, PI_OUT = 2/3 pins the uniform term to 2 PI_OUT / (1 -
    # PI_OUT) sigma = 1, which forces a fifty-fifty split
    monkeypatch.setattr(em_registration, "PI_OUT", 2.0 / 3.0)
    X = np.zeros((2, 1))
    data = np.zeros((2, 1))
    post, _ = e_step(_sq_distances(X, data, np.eye(2)), 0.25, 2)
    np.testing.assert_allclose(post, [[0.5, 0.5]], atol=1e-12)


def test_e_step_rows_stochastic(monkeypatch):
    monkeypatch.setattr(em_registration, "PI_OUT", 0.05)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 8))
    data = rng.standard_normal((3, 12))
    post, _ = e_step(_sq_distances(X, data, np.eye(3)), 0.2, 3)
    assert post.shape == (12, 9)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(post >= 0.0)


def test_e_step_tiny_sigma_no_underflow():
    X = np.array([[0.0, 10.0]])
    data = np.array([[0.1]])
    post, _ = e_step(_sq_distances(X, data, np.eye(1)), 1e-14, 1)
    assert np.all(np.isfinite(post))
    np.testing.assert_allclose(post.sum(axis=1), 1.0)


def test_m_step_recovers_rotation():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 20))
    Q0 = special_ortho_group.rvs(3, random_state=2)
    data = Q0 @ X
    posterior = np.eye(20)
    R, sigma, degenerate = m_step(X, data, posterior)
    np.testing.assert_allclose(R, Q0, atol=1e-10)
    assert sigma == pytest.approx(SIGMA_FLOOR)
    assert not degenerate


def test_m_step_uniform_posterior_sigma():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 5))
    data = rng.standard_normal((2, 4))
    alpha = np.full((4, 5), 1.0 / 5.0)
    R, sigma, _ = m_step(X, data, alpha)
    D2 = cdist(data.T, (R @ X).T, metric="sqeuclidean")
    expected = (alpha * D2).sum() / (2.0 * alpha.sum())
    assert sigma == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(R.T @ R, np.eye(2), atol=1e-12)


def test_m_step_single_pair_floor():
    X = np.array([[1.0], [0.0]])
    data = np.array([[0.0], [1.0]])
    R, sigma, _ = m_step(X, data, np.array([[1.0]]))
    np.testing.assert_allclose(R @ X, data, atol=1e-12)
    assert sigma == pytest.approx(SIGMA_FLOOR)


def test_m_step_degenerate_flag():
    X = np.zeros((2, 3))
    data = np.zeros((2, 3))
    _, _, degenerate = m_step(X, data, np.full((3, 3), 1 / 3))
    assert degenerate


def test_m_step_rejects_a_posterior_without_inlier_mass():
    # every point an outlier: with no inlier mass the variance would be 0/0
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 5))
    data = rng.standard_normal((2, 4))
    with pytest.raises(ValueError, match="posterior carries no inlier mass"):
        m_step(X, data, np.zeros((4, 5)))


def test_initial_sigma_nearest_center(monkeypatch):
    # EM starts from the mean squared distance to the nearest center (1.0
    # here), and its first likelihood is the e-step's at that variance
    monkeypatch.setattr(em_registration, "MAX_ITER", 1)
    X = np.array([[0.0, 4.0]])
    data = np.array([[1.0, 3.0]])
    corr = em_register(X, data, np.eye(1))
    _, ll = e_step(_sq_distances(X, data, np.eye(1)), 1.0, 1)
    assert corr.log_likelihood_trace[0] == ll


def test_em_identity_registration():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 30))
    X /= np.linalg.norm(X, axis=0)
    corr = em_register(X, X, np.eye(4))
    assert corr.map_matches == [(j, j) for j in range(30)]
    assert corr.unmatched == []
    np.testing.assert_allclose(corr.R, np.eye(4), atol=1e-8)


def test_em_perturbed_rotation_recovery():
    rng = np.random.default_rng(5)
    K, n = 5, 60
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    Q = special_ortho_group.rvs(K, random_state=6)
    data = Q @ X + 1e-3 * rng.standard_normal((K, n))
    # start from a small perturbation of the true transform
    delta = special_ortho_group.rvs(K, random_state=7)
    A, _, Bt = np.linalg.svd(Q + 0.05 * delta)
    R0 = A @ Bt  # nearest orthogonal matrix to the perturbation
    corr = em_register(X, data, R0)
    assert corr.map_matches == [(j, j) for j in range(n)]
    assert np.abs(corr.R - Q).max() <= 1e-2


def test_em_outlier_classification(monkeypatch):
    monkeypatch.setattr(em_registration, "PI_OUT", 0.15)
    rng = np.random.default_rng(8)
    K, n, n_out = 4, 50, 8
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    radii = rng.random(n_out) ** (1.0 / K)
    dirs = rng.standard_normal((K, n_out))
    dirs /= np.linalg.norm(dirs, axis=0)
    outliers = dirs * radii
    data = np.hstack([X, outliers])
    corr = em_register(X, data, np.eye(K))
    matched = dict(corr.map_matches)
    assert all(matched.get(j) == j for j in range(n))
    assert set(corr.unmatched) == set(range(n, n + n_out))
    out_mass = corr.posterior[n:, -1]
    assert out_mass.min() > 0.5


def test_em_loglik_monotone(monkeypatch):
    monkeypatch.setattr(em_registration, "PI_OUT", 0.05)
    monkeypatch.setattr(em_registration, "MAX_ITER", 200)
    rng = np.random.default_rng(9)
    K, n = 3, 40
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    Q = special_ortho_group.rvs(K, random_state=10)
    data = Q @ X + 0.02 * rng.standard_normal((K, n))
    corr = em_register(X, data, np.eye(K))
    trace = corr.log_likelihood_trace
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    assert corr.log_likelihood == pytest.approx(trace[-1])


def test_em_final_r_orthogonal(monkeypatch):
    monkeypatch.setattr(em_registration, "MAX_ITER", 30)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3, 25))
    data = rng.standard_normal((3, 25))
    corr = em_register(X, data, np.eye(3))
    R = corr.R
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)


def test_likelihood_consistent_with_e_step(monkeypatch):
    monkeypatch.setattr(em_registration, "PI_OUT", 0.1)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2, 6))
    data = rng.standard_normal((2, 5))
    ll = log_likelihood(X, data, np.eye(2), 0.3)
    assert np.isfinite(ll)
    _, e_ll = e_step(_sq_distances(X, data, np.eye(2)), 0.3, 2)
    assert e_ll == pytest.approx(ll, rel=1e-12)


@pytest.mark.parametrize("pi_out", [0.01, 0.2])
@pytest.mark.parametrize("sigma, near", [
    *(pytest.param(sigma, False, id=str(sigma)) for sigma in (1e-12, 1e-6, 0.05, 3.0)),
    # data within 1e-10 of the transformed centers at the variance floor,
    # where the expansion's rounding alone would move the likelihood
    pytest.param(1e-12, True, id="1e-12-near"),
])
def test_e_step_log_likelihood_matches_reference(monkeypatch, pi_out, sigma, near):
    monkeypatch.setattr(em_registration, "PI_OUT", pi_out)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((4, 9))
    X /= np.linalg.norm(X, axis=0)
    cols = rng.permutation(9)[:7]
    data = X[:, cols] + 0.01 * rng.standard_normal((4, 7))
    R = special_ortho_group.rvs(4, random_state=14)
    if near:
        data = R @ X[:, cols] + 1e-10 * rng.standard_normal((4, 7))
    _, ll = e_step(_sq_distances(X, data, R), sigma, 4)
    assert ll == pytest.approx(log_likelihood(X, data, R, sigma), rel=1e-12)


def _counting(monkeypatch, name):
    """Replace ``em_registration.<name>`` with a wrapper; returns its call list."""
    calls = []
    original = getattr(em_registration, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(em_registration, name, counting)
    return calls


def test_em_builds_one_distance_matrix_per_iteration(monkeypatch):
    matrices = _counting(monkeypatch, "_sq_distances")
    e_steps = _counting(monkeypatch, "e_step")
    monkeypatch.setattr(em_registration, "PI_OUT", 0.05)
    rng = np.random.default_rng(15)
    K, n = 4, 40
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    data = X + 0.02 * rng.standard_normal((K, n))
    corr = em_register(X, data, np.eye(K))
    assert corr.iterations > 2
    # one e-step at R0, which also gives the initial variance, and one
    # after each iteration's m-step; each builds one matrix
    assert len(matrices) == corr.iterations + 1
    assert len(e_steps) == corr.iterations + 1


def test_em_reports_convergence(monkeypatch):
    rng = np.random.default_rng(16)
    X = rng.standard_normal((4, 30))
    X /= np.linalg.norm(X, axis=0)
    done = em_register(X, X, np.eye(4))
    assert done.converged
    data = X + 0.05 * rng.standard_normal((4, 30))
    monkeypatch.setattr(em_registration, "MAX_ITER", 1)
    capped = em_register(X, data, np.eye(4))
    assert capped.iterations == 1
    assert not capped.converged
    for corr in (done, capped):
        assert len(corr.log_likelihood_trace) == corr.iterations + 1
        assert corr.log_likelihood == corr.log_likelihood_trace[-1]


def test_em_final_likelihood_is_checked(monkeypatch):
    # the last e-step's likelihood is the result, so it is held to the
    # same finiteness check as the others
    original = em_registration.e_step
    calls = []

    def nan_on_second(*args):
        calls.append(1)
        posterior, ll = original(*args)
        return posterior, (np.nan if len(calls) == 2 else ll)

    monkeypatch.setattr(em_registration, "e_step", nan_on_second)
    monkeypatch.setattr(em_registration, "MAX_ITER", 1)
    X = np.array([[0.0, 4.0]])
    with pytest.raises(NumericalError, match="non-finite log-likelihood at e-step 2"):
        em_register(X, X + 0.5, np.eye(1))


def test_em_rejects_empty_point_sets():
    X = np.ones((3, 5))
    with pytest.raises(ValueError, match="cluster point set"):
        em_register(np.zeros((3, 0)), X, np.eye(3))
    with pytest.raises(ValueError, match="data point set"):
        em_register(X, np.zeros((3, 0)), np.eye(3))


@pytest.mark.parametrize("R0", [np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(3)],
                         ids=["skew", "wrong-size"])
def test_em_rejects_a_non_orthogonal_start(R0):
    X = np.ones((2, 4))
    with pytest.raises(ValueError, match="R0 must be an orthogonal 2 x 2 matrix"):
        em_register(X, X, R0)


def test_write_correspondence_tsv(tmp_path):
    post = np.array([[0.9, 0.05, 0.05], [0.2, 0.1, 0.7]])
    corr = Correspondence(
        posterior=post, map_matches=[(0, 0)], unmatched=[1]
    )
    path = tmp_path / "corr.tsv"
    write_correspondence_tsv(corr, path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[:2] == ["0", "0"]
    assert lines[1].split("\t")[:2] == ["1", "-1"]
    assert float(lines[0].split("\t")[2]) == pytest.approx(0.9)
