import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodens.metrics import auc, report_from_scores, roc_points
from anodens.data import CONTINUOUS, Dataset
from anodens.model import BERNOULLI, anomaly_score_batch, build_masks, init_params

from helpers import auc_double_loop, roc_points_loop, tiny_params


class TestAuc:
    def test_perfect_separation(self):
        assert auc([5.0, 6.0], [1.0, 2.0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([3.0, 3.0, 3.0], [3.0, 3.0]) == 0.5

    def test_matches_double_loop_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            # coarse grid plants plenty of exact ties
            anoms = rng.integers(0, 12, size=rng.integers(2, 40)) / 4.0
            norms = rng.integers(0, 12, size=rng.integers(2, 60)) / 4.0
            expected = auc_double_loop(anoms, norms)
            assert auc(anoms, norms) == pytest.approx(expected, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=20)
        n = rng.normal(size=30)
        assert auc(a, n) + auc(n, a) == pytest.approx(1.0, abs=1e-12)
        # holds under the tie convention too
        a_t = rng.integers(0, 4, size=15).astype(float)
        n_t = rng.integers(0, 4, size=25).astype(float)
        assert auc(a_t, n_t) + auc(n_t, a_t) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_increasing_transforms(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8)
        n = rng.normal(size=12)
        base = auc(a, n)
        assert auc(np.exp(a), np.exp(n)) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * a + 7.0, 3.0 * n + 7.0) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            auc([np.nan], [1.0])


class TestReports:
    def make_ds(self):
        rng = np.random.default_rng(1)
        attrs = rng.uniform(size=(30, 3))
        labels = np.r_[np.ones(10, int), np.zeros(20, int)]
        return Dataset(attrs, labels, ("a", "b", "c"), (CONTINUOUS,) * 3)

    def test_report_counts_and_auc(self):
        scores = np.r_[np.full(3, 9.0), np.full(5, 1.0)]
        labels = np.r_[np.ones(3, int), np.zeros(5, int)]
        report = report_from_scores(np.arange(8), labels, scores)
        assert report.auc == 1.0
        assert report.n_anomalies == 3
        assert report.n_normals == 5

    def test_evaluate_uniform_model_all_ties(self):
        # constant-density model forces every score equal: AUC 0.5
        ds = self.make_ds()
        binary = Dataset(
            (ds.attributes > 0.5).astype(float), ds.labels, ds.attribute_names,
            ("binary",) * 3,
        )
        masks = build_masks(3, 4, 2, 2, seed=0)
        params = init_params(masks, BERNOULLI, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        scores = anomaly_score_batch(params, binary.attributes)
        report = report_from_scores(np.arange(30), binary.labels, scores)
        assert (scores == scores[0]).all()
        assert report.auc == 0.5

    def test_evaluate_with_real_model(self):
        ds = self.make_ds()
        params = tiny_params(seed=2, noise=0.4)
        scores = anomaly_score_batch(params, ds.attributes)
        report = report_from_scores(np.arange(30), ds.labels, scores)
        assert 0.0 <= report.auc <= 1.0
        assert len(report.scores) == 30

    def test_report_without_both_classes_has_no_auc(self):
        normals = report_from_scores(np.arange(4), np.zeros(4, int), np.arange(4.0))
        assert (normals.auc, normals.n_anomalies, normals.n_normals) == (None, 0, 4)
        unlabeled = report_from_scores(np.arange(4), None, np.arange(4.0))
        assert (unlabeled.auc, unlabeled.n_anomalies, unlabeled.n_normals) == (None, None, None)

    def test_csv_output(self, tmp_path):
        report = report_from_scores(
            np.array([4, 7]), np.array([1, 0]), np.array([2.5, 1.5])
        )
        path = tmp_path / "scores.csv"
        report.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,label,score"
        assert lines[1] == "4,1,2.5"

    def test_roc_points_monotone(self):
        rng = np.random.default_rng(0)
        pts = roc_points(rng.normal(size=10) + 1.0, rng.normal(size=15))
        assert (np.diff(pts[:, 1]) >= 0).all()
        assert (np.diff(pts[:, 2]) >= 0).all()
        assert pts[-1, 1] == 1.0 and pts[-1, 2] == 1.0

    @pytest.mark.parametrize("anoms, norms", [([], [1.0]), ([1.0], [])], ids=["anoms", "norms"])
    def test_roc_points_reject_an_empty_class(self, anoms, norms):
        with pytest.raises(ValueError, match="both score lists must be non-empty"):
            roc_points(anoms, norms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_roc_points_reject_a_non_finite_score(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            roc_points([bad], [1.0])
        with pytest.raises(ValueError, match="scores must be finite"):
            roc_points([1.0], [0.0, bad])

    def test_roc_points_match_threshold_scan_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            # a coarse grid plants heavy ties within and across the two classes
            anoms = rng.integers(-6, 6, size=rng.integers(1, 40)) / 4.0
            norms = rng.integers(-6, 6, size=rng.integers(1, 60)) / 4.0
            pts = roc_points(anoms, norms)
            expected = roc_points_loop(anoms, norms)
            assert pts.dtype == np.float64
            np.testing.assert_array_equal(pts, expected)
