import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodens.metrics import auc
from anodens.model import (
    BERNOULLI,
    GAUSSIAN_MIXTURE,
    build_masks,
    init_params,
    log_density,
    log_density_batch,
)
from anodens.objective import (
    LabeledBatch,
    ObjectiveConfig,
    objective_and_gradient,
    objective_value,
    pairwise_regularizer,
    sigmoid,
)

from helpers import fd_gradient, max_rel_err, random_batch, sigmoid_two_branch, tiny_params


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_without_overflow(self):
        assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-40.0) < 1e-15
        with np.errstate(over="raise"):
            assert sigmoid(1e6) == 1.0
            assert sigmoid(-1e6) == 0.0

    def test_log_three(self):
        # 1 / (1 + 1/3) = 3/4
        assert sigmoid(np.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_matches_two_branch_formula_bit_for_bit(self):
        grid = np.concatenate([
            np.linspace(-50.0, 50.0, 2001),
            [0.0, -0.0, 745.0, -745.0, 1e6, -1e6, 1e-300, -1e-300],
        ])
        assert np.array_equal(sigmoid(grid), sigmoid_two_branch(grid))
        for s in (0.0, -745.0, 745.0, 1e6, -1e6, 3.5):
            value = sigmoid(s)
            assert type(value) is float
            assert value == sigmoid_two_branch(s)
            assert sigmoid(np.array(s)) == value  # 0-d input

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_bounds_and_symmetry(self, s):
        value = sigmoid(s)
        assert 0.0 <= value <= 1.0
        assert value + sigmoid(-s) == pytest.approx(1.0, abs=1e-12)


class TestNormalLoglik:
    """The objective at lambda 0: the mean log-density of the normals."""

    def test_single_instance_is_its_log_density(self):
        params = tiny_params(seed=1)
        x = np.random.default_rng(0).uniform(size=3)
        value = objective_value(params, LabeledBatch(x[None, :]), ObjectiveConfig())
        assert value == log_density(params, x)

    def test_batch_of_five_is_the_mean(self):
        params = tiny_params(seed=2)
        xs = np.random.default_rng(1).uniform(size=(5, 3))
        singles = [log_density(params, x) for x in xs]
        value = objective_value(params, LabeledBatch(xs), ObjectiveConfig())
        assert value == pytest.approx(np.mean(singles), abs=1e-12)

    def test_batch_of_sixteen_against_loop(self):
        params = tiny_params(seed=3, noise=0.6)
        xs = np.random.default_rng(2).uniform(size=(16, 3))
        total = 0.0
        for x in xs:
            total += log_density(params, x)
        value = objective_value(params, LabeledBatch(xs), ObjectiveConfig())
        assert value == pytest.approx(total / 16.0, abs=1e-12)

    def test_empty_rejected(self):
        params = tiny_params(seed=0)
        with pytest.raises(ValueError):
            objective_value(params, LabeledBatch(np.empty((0, 3))), ObjectiveConfig())


class TestPairwiseRegularizer:
    def test_equal_densities_give_half(self):
        assert pairwise_regularizer(np.full(4, -2.0), np.full(3, -2.0)) == 0.5

    def test_saturates_at_one(self):
        ld_normals = np.zeros(5)
        ld_anoms = np.full(3, -45.0)
        assert pairwise_regularizer(ld_normals, ld_anoms) == pytest.approx(1.0, abs=1e-15)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        ld_n = rng.normal(size=4)
        ld_a = rng.normal(size=3)
        total = 0.0
        for a in ld_a:
            for n in ld_n:
                total += 1.0 / (1.0 + np.exp(-(n - a)))
        expected = total / 12.0
        assert pairwise_regularizer(ld_n, ld_a) == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        ld_n = rng.normal(size=6)
        ld_a = rng.normal(size=2)
        base = pairwise_regularizer(ld_n, ld_a)
        for c in (-17.5, 3.25, 1e4):
            assert pairwise_regularizer(ld_n + c, ld_a + c) == pytest.approx(base, abs=1e-12)

    def test_indicator_substitution_matches_auc(self):
        rng = np.random.default_rng(5)
        scores_a = rng.permutation(30) * 0.01  # tie-free by construction
        scores_n = rng.permutation(40) * 0.01 + 0.005
        indicator = lambda s: (np.asarray(s) > 0).astype(float)
        reg = pairwise_regularizer(-scores_n, -scores_a, transfer=indicator)
        assert reg == auc(scores_a, scores_n)

    def test_temperature_scaling_approaches_auc(self):
        rng = np.random.default_rng(6)
        scores_a = rng.permutation(25) * 1e-2 + 7e-3  # gaps of at least 3e-3
        scores_n = rng.permutation(35) * 1e-2
        target = auc(scores_a, scores_n)
        t = 1e4
        reg = pairwise_regularizer(-t * scores_n, -t * scores_a)
        assert abs(reg - target) <= 1e-3

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            pairwise_regularizer(np.zeros(2), np.empty(0))
        with pytest.raises(ValueError):
            pairwise_regularizer(np.empty(0), np.zeros(2))


class TestObjectiveValue:
    def test_lambda_zero_equals_loglik_bitwise(self):
        params = tiny_params(seed=8, noise=0.4)
        batch = random_batch(GAUSSIAN_MIXTURE, seed=8)
        value = objective_value(params, batch, ObjectiveConfig(lam=0.0))
        assert value == objective_value(params, LabeledBatch(batch.normals), ObjectiveConfig())

    def test_no_anomalies_falls_back_to_loglik(self):
        params = tiny_params(seed=9)
        normals = np.random.default_rng(0).uniform(size=(5, 3))
        batch = LabeledBatch(normals)
        value = objective_value(params, batch, ObjectiveConfig(lam=10.0))
        assert value == objective_value(params, batch, ObjectiveConfig())

    def test_composition_with_known_terms(self):
        # uniform Bernoulli model: every instance has log-density D*log(1/2),
        # so the regularizer is exactly 0.5 and the likelihood is D*log(1/2)
        masks = build_masks(8, 4, 2, 2, seed=0)
        params = init_params(masks, BERNOULLI, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        rng = np.random.default_rng(1)
        batch = LabeledBatch(
            (rng.uniform(size=(4, 8)) > 0.5).astype(float),
            (rng.uniform(size=(2, 8)) > 0.5).astype(float),
        )
        value = objective_value(params, batch, ObjectiveConfig(lam=10.0))
        assert value == pytest.approx(8 * np.log(0.5) + 10.0 * 0.5, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="regularizer weight must be non-negative, got -1.0"):
            ObjectiveConfig(lam=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="regularizer weight must be finite"):
            ObjectiveConfig(lam=lam)

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("lam", [1.0, 1e3])
    def test_ranking_term_is_pairwise_regularizer(self, head, lam):
        # the fused pass forwards normals and anomalies stacked; the reference
        # forwards each set on its own, so the two agree to roundoff only
        for seed in range(3):
            params = tiny_params(head=head, seed=seed, noise=0.5)
            batch = random_batch(head, seed)
            value = objective_value(params, batch, ObjectiveConfig(lam=lam))
            reg = pairwise_regularizer(
                log_density_batch(params, batch.normals),
                log_density_batch(params, batch.anomalies),
            )
            ranking = value - objective_value(params, batch, ObjectiveConfig())
            assert abs(ranking - lam * reg) <= 1e-12 * max(1.0, abs(value))


class TestGradient:
    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 1e3])
    def test_matches_finite_differences(self, head, lam):
        for seed in range(5):
            params = tiny_params(head=head, seed=seed)
            batch = random_batch(head, seed)
            cfg = ObjectiveConfig(lam=lam)
            value = objective_value(params, batch, cfg)
            _, grads = objective_and_gradient(params, batch, cfg)
            worst = max_rel_err(grads, fd_gradient(params, batch, cfg), value)
            assert worst <= 1e-4

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("lam", [0.0, 1e3])
    def test_float32_pass_agrees_with_float64(self, head, lam):
        # training steps run on float32 rows; the FD gate above certifies the float64 path
        for seed in range(3):
            params = tiny_params(head=head, seed=seed, n_attributes=8, n_hidden=64,
                                 n_components=3)
            batch = random_batch(head, seed, n_attributes=8, n_normals=64, n_anomalies=3)
            cfg = ObjectiveConfig(lam=lam)
            value32, grads32 = objective_and_gradient(
                params,
                LabeledBatch(batch.normals.astype(np.float32),
                             batch.anomalies.astype(np.float32)),
                cfg,
            )
            value64 = objective_value(params, batch, cfg)
            assert abs(value32 - value64) <= 1e-5 * abs(value64)
            for name, grad64 in objective_and_gradient(params, batch, cfg)[1].items():
                assert grads32[name].dtype == np.float64
                scale = np.abs(grad64).max()
                assert np.abs(grads32[name] - grad64).max() <= 1e-4 * scale, name

    def test_lambda_zero_is_pure_loglik_gradient_bitwise(self):
        params = tiny_params(seed=10, noise=0.5)
        batch = random_batch(GAUSSIAN_MIXTURE, seed=10)
        _, with_anoms = objective_and_gradient(params, batch, ObjectiveConfig(lam=0.0))
        _, without = objective_and_gradient(
            params, LabeledBatch(batch.normals), ObjectiveConfig(lam=123.0)
        )
        for name in with_anoms:
            np.testing.assert_array_equal(with_anoms[name], without[name])

    def test_doubling_lambda_doubles_regularizer_gradient(self):
        params = tiny_params(seed=11, noise=0.5)
        batch = random_batch(GAUSSIAN_MIXTURE, seed=11)
        g0, g1, g2 = (
            objective_and_gradient(params, batch, ObjectiveConfig(lam=lam))[1]
            for lam in (0.0, 2.5, 5.0)
        )
        for name in g0:
            lhs = g2[name] - g0[name]
            rhs = 2.0 * (g1[name] - g0[name])
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_value_and_gradient_consistent(self):
        params = tiny_params(seed=12)
        batch = random_batch(GAUSSIAN_MIXTURE, seed=12)
        cfg = ObjectiveConfig(lam=3.0)
        value, grads = objective_and_gradient(params, batch, cfg)
        assert value == objective_value(params, batch, cfg)
        _, again = objective_and_gradient(params, batch, cfg)
        for name in grads:
            np.testing.assert_array_equal(grads[name], again[name])

    def test_masked_weights_have_zero_gradient(self):
        params = tiny_params(seed=13)
        batch = random_batch(GAUSSIAN_MIXTURE, seed=13)
        _, grads = objective_and_gradient(params, batch, ObjectiveConfig(lam=1.0))
        # a weight masked out in every member cannot influence the objective
        all_in = params.masks.input_masks.max(axis=0)
        assert np.array_equal(grads["w_in"][all_in == 0], np.zeros((all_in == 0).sum()))
