import numpy as np
import pytest

from anodens.baselines import (
    fit_gaussian,
    fit_knn,
    gaussian_score_batch,
    knn_score_batch,
)
from anodens.model import (
    GAUSSIAN_MIXTURE,
    ROW_TILE,
    SIGMA_MIN,
    anomaly_score_batch,
    build_masks,
    init_params,
)


class TestGaussianBaseline:
    def test_fitted_mean_is_global_minimum(self):
        rng = np.random.default_rng(0)
        model = fit_gaussian(rng.normal(size=(50, 3)))
        at_mean = gaussian_score_batch(model, model.means)[0]
        for _ in range(20):
            x = model.means + rng.normal(scale=0.5, size=3)
            assert gaussian_score_batch(model, x)[0] > at_mean

    def test_standard_normal_closed_form(self):
        model = fit_gaussian(np.zeros((10, 1)))
        model.means[:] = 0.0
        model.variances[:] = 1.0
        at_zero = gaussian_score_batch(model, np.array([0.0]))[0]
        assert at_zero == pytest.approx(0.5 * np.log(2.0 * np.pi), abs=1e-12)
        assert at_zero == pytest.approx(0.9189385, abs=1e-6)

    def test_symmetric_around_mean(self):
        rng = np.random.default_rng(1)
        model = fit_gaussian(rng.normal(loc=2.0, size=(40, 4)))
        delta = rng.normal(size=4)
        left = gaussian_score_batch(model, model.means - delta)[0]
        right = gaussian_score_batch(model, model.means + delta)[0]
        assert left == pytest.approx(right, rel=1e-12)

    def test_variance_floor(self):
        model = fit_gaussian(np.full((5, 2), 3.0))
        assert (model.variances >= 1e-6).all()

    def test_matches_constant_head_density_model(self):
        # single-component, mask-free-equivalent model with matching heads
        rng = np.random.default_rng(2)
        train = rng.uniform(0.2, 0.8, size=(60, 3))
        baseline = fit_gaussian(train)
        masks = build_masks(3, 4, 1, 1, seed=0)
        params = init_params(masks, GAUSSIAN_MIXTURE, n_components=1, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        sigma = np.sqrt(baseline.variances)
        params.b_out[1] = baseline.means
        params.b_out[2] = np.log(np.expm1(sigma - SIGMA_MIN))
        x = rng.uniform(size=(10, 3))
        np.testing.assert_allclose(
            gaussian_score_batch(baseline, x), anomaly_score_batch(params, x), atol=1e-9
        )

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(30, 2))
        a = fit_gaussian(train)
        b = fit_gaussian(train[::-1])
        np.testing.assert_allclose(a.means, b.means, atol=1e-12)
        np.testing.assert_allclose(a.variances, b.variances, atol=1e-12)


class TestKnnBaseline:
    def test_stored_point_scores_zero(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(20, 3))
        model = fit_knn(train, k=1)
        assert knn_score_batch(model, train[7])[0] == 0.0

    def test_k_equals_count_gives_farthest(self):
        train = np.array([[0.0], [1.0], [3.0]])
        model = fit_knn(train, k=3)
        assert knn_score_batch(model, np.array([0.0]))[0] == 3.0

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(20, 4))
        for k in (1, 3, 20):
            model = fit_knn(train, k=k)
            queries = rng.normal(size=(6, 4))
            got = knn_score_batch(model, queries)
            for q, value in zip(queries, got):
                dists = np.sort(np.linalg.norm(train - q, axis=1))
                assert value == pytest.approx(dists[k - 1], abs=1e-12)

    def test_row_tiles_match_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(40, 3))
        model = fit_knn(train, k=1)
        # one row past a tile edge, with stored points in both tiles
        x = rng.normal(size=(ROW_TILE + 1, 3))
        x[[0, ROW_TILE]] = train[[3, 9]]
        got = knn_score_batch(model, x)
        np.testing.assert_array_equal(got, [knn_score_batch(model, row)[0] for row in x])
        assert got[0] == 0.0 and got[ROW_TILE] == 0.0

    def test_k_out_of_range(self):
        train = np.zeros((5, 2))
        with pytest.raises(ValueError):
            fit_knn(train, k=6)
        with pytest.raises(ValueError):
            fit_knn(train, k=0)

    def test_order_independence(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(25, 3))
        x = rng.normal(size=(4, 3))
        a = knn_score_batch(fit_knn(train, k=5), x)
        b = knn_score_batch(fit_knn(train[::-1], k=5), x)
        np.testing.assert_allclose(a, b, atol=1e-12)
