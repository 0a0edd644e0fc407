import numpy as np
import pytest

from anodens.model import (
    BERNOULLI,
    GAUSSIAN_MIXTURE,
    SIGMA_MIN,
    anomaly_score,
    build_masks,
    choose_head,
    forward_conditionals,
    forward_ensemble,
    init_params,
    load_model,
    log_density,
    log_density_batch,
    save_model,
)

from helpers import gaussian_logpdf, tiny_params, trapezoid_mixture_mass


def connectivity_paths(masks, member):
    """Reachability oracle: paths[j, d] says input j reaches output group d."""
    reach_in = masks.input_masks[member] > 0  # (D, H)
    reach_out = masks.output_masks[member] > 0  # (H, D)
    return reach_in @ reach_out  # boolean matrix product via int


def conditional_arrays(cond):
    if cond.head == GAUSSIAN_MIXTURE:
        return (cond.mixture_weights, cond.means, cond.variances)
    return (cond.bernoulli_probs,)


class TestMaskConstruction:
    def test_strict_autoregressive_by_enumeration(self):
        masks = build_masks(3, 4, n_orderings=2, n_masks_per_ordering=2, seed=0)
        for member in range(masks.n_members):
            order = masks.ordering_of_member(member)
            paths = connectivity_paths(masks, member)
            for d in range(3):
                for j in range(3):
                    if order[j] >= order[d]:
                        assert not paths[j, d], (
                            f"member {member}: input {j} (pos {order[j]}) reaches "
                            f"output {d} (pos {order[d]})"
                        )

    def test_first_in_order_has_no_incoming_connectivity(self):
        masks = build_masks(4, 8, n_orderings=1, n_masks_per_ordering=3, seed=1)
        # ordering 0 is the identity, so attribute 0 is first in order
        for member in range(masks.n_members):
            assert masks.output_masks[member][:, 0].sum() == 0

    def test_deterministic(self):
        a = build_masks(5, 16, 3, 3, seed=9)
        b = build_masks(5, 16, 3, 3, seed=9)
        np.testing.assert_array_equal(a.orderings, b.orderings)
        np.testing.assert_array_equal(a.hidden_degrees, b.hidden_degrees)
        np.testing.assert_array_equal(a.input_masks, b.input_masks)
        np.testing.assert_array_equal(a.output_masks, b.output_masks)

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            build_masks(1, 4)

    def test_degree_range(self):
        masks = build_masks(6, 32, 4, 4, seed=3)
        assert masks.hidden_degrees.min() >= 1
        assert masks.hidden_degrees.max() <= 5


class TestForwardConditionals:
    def test_zero_weight_mixture_is_symmetric(self):
        masks = build_masks(3, 4, 2, 2, seed=0)
        params = init_params(masks, GAUSSIAN_MIXTURE, n_components=3, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        cond = forward_conditionals(params, np.array([0.2, 0.4, 0.9]), 0)
        np.testing.assert_allclose(cond.mixture_weights, 1.0 / 3.0, atol=1e-15)
        np.testing.assert_array_equal(cond.means, 0.0)
        expected_var = (np.log(2.0) + SIGMA_MIN) ** 2  # softplus(0) + floor, squared
        np.testing.assert_allclose(cond.variances, expected_var, rtol=1e-15)

    def test_zero_weight_bernoulli_is_half(self):
        masks = build_masks(3, 4, 2, 2, seed=0)
        params = init_params(masks, BERNOULLI, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        cond = forward_conditionals(params, np.array([0.0, 1.0, 1.0]), 2)
        np.testing.assert_array_equal(cond.bernoulli_probs, 0.5)

    def test_perturbing_later_coordinates_is_bit_exact(self):
        params = tiny_params(seed=4, n_attributes=4, n_hidden=8)
        masks = params.masks
        rng = np.random.default_rng(0)
        x = rng.uniform(size=4)
        for member in range(masks.n_members):
            order = masks.ordering_of_member(member)
            for d in range(4):
                base = conditional_arrays(forward_conditionals(params, x, member))
                x2 = x.copy()
                for j in range(4):
                    if order[j] >= order[d]:
                        x2[j] = rng.uniform()
                moved = conditional_arrays(forward_conditionals(params, x2, member))
                for left, right in zip(base, moved):
                    assert np.array_equal(left[d], right[d])

    def test_invariants_hold_for_random_params(self):
        params = tiny_params(seed=8, noise=1.0)
        cond = forward_conditionals(params, np.random.default_rng(1).uniform(size=3), 1)
        np.testing.assert_allclose(cond.mixture_weights.sum(axis=1), 1.0, atol=1e-12)
        assert (cond.mixture_weights >= 0).all()
        assert (cond.variances >= SIGMA_MIN**2).all()

    def test_rejects_bad_inputs(self):
        params = tiny_params(seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            forward_conditionals(params, np.array([np.nan, 0.0, 0.0]), 0)
        with pytest.raises(ValueError, match="mask index"):
            forward_conditionals(params, np.zeros(3), 99)


class TestLogDensity:
    def test_matches_independent_gaussian_product(self):
        # constant single-component heads: mean 0.5, variance 0.04 everywhere
        masks = build_masks(3, 4, 1, 1, seed=0)
        params = init_params(masks, GAUSSIAN_MIXTURE, n_components=1, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        sigma = 0.2
        raw_scale = np.log(np.expm1(sigma - SIGMA_MIN))  # softplus inverse
        params.b_out[1::3] = 0.5
        params.b_out[2::3] = raw_scale
        rng = np.random.default_rng(7)
        for x in rng.uniform(size=(5, 3)):
            expected = gaussian_logpdf(x, 0.5, sigma**2).sum()
            assert log_density(params, x) == pytest.approx(expected, abs=1e-12)

    def test_uniform_bernoulli_density(self):
        masks = build_masks(8, 4, 2, 2, seed=0)
        params = init_params(masks, BERNOULLI, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        x = (np.random.default_rng(0).uniform(size=8) > 0.5).astype(float)
        assert log_density(params, x) == pytest.approx(8 * np.log(0.5), abs=1e-12)
        assert anomaly_score(params, x) == pytest.approx(8 * np.log(2.0), abs=1e-12)
        assert anomaly_score(params, x) == pytest.approx(5.545177444479562, abs=1e-9)

    def test_score_is_negated_density(self):
        params = tiny_params(seed=3)
        x = np.random.default_rng(2).uniform(size=3)
        assert anomaly_score(params, x) == -log_density(params, x)

    def test_identical_members_collapse_to_one(self):
        # zero weights make every member's conditionals identical
        masks = build_masks(3, 4, 2, 3, seed=0)
        params = init_params(masks, GAUSSIAN_MIXTURE, n_components=2, seed=0)
        for arr in params.trainable().values():
            arr[...] = 0.0
        single = init_params(build_masks(3, 4, 1, 1, seed=0), GAUSSIAN_MIXTURE, 2, seed=0)
        for arr in single.trainable().values():
            arr[...] = 0.0
        x = np.array([0.1, 0.6, 0.8])
        assert log_density(params, x) == log_density(single, x)

    def test_ensemble_density_between_member_bounds(self):
        params = tiny_params(seed=11, n_orderings=3, n_masks=2, noise=0.8)
        x = np.random.default_rng(4).uniform(size=(10, 3))
        cache = forward_ensemble(params, x)
        n_members = params.masks.n_members
        lower = cache.member_logdensity.min(axis=0) - np.log(n_members)
        upper = cache.member_logdensity.max(axis=0)
        assert (cache.log_density >= lower - 1e-12).all()
        assert (cache.log_density <= upper + 1e-12).all()

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("n_attributes", [3, 8])
    def test_member_conditionals_sum_to_member_logdensity(self, head, n_attributes):
        params = tiny_params(head=head, seed=n_attributes, n_attributes=n_attributes,
                             n_hidden=16, n_components=3, noise=0.5)
        x = np.random.default_rng(7).uniform(size=n_attributes)
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        cache = forward_ensemble(params, x)
        for member in range(params.masks.n_members):
            cond = forward_conditionals(params, x, member)
            if head == GAUSSIAN_MIXTURE:
                comps = np.log(cond.mixture_weights) + gaussian_logpdf(
                    x[:, None], cond.means, cond.variances
                )
                log_cond = np.logaddexp.reduce(comps, axis=1)
            else:
                phi = cond.bernoulli_probs
                log_cond = np.where(x == 1.0, np.log(phi), np.log1p(-phi))
            assert log_cond.sum() == pytest.approx(
                cache.member_logdensity[member, 0], rel=0, abs=1e-12
            )

    def test_finite_for_extreme_weights(self):
        params = tiny_params(seed=5, noise=0.0)
        for arr in params.trainable().values():
            arr += np.random.default_rng(0).normal(scale=50.0, size=arr.shape)
        x = np.random.default_rng(1).uniform(size=(20, 3))
        assert np.isfinite(log_density_batch(params, x)).all()

    def test_rejects_non_finite(self):
        params = tiny_params(seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            log_density(params, np.array([0.1, np.inf, 0.2]))


class TestConditionalNormalization:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_integrates_to_one(self, seed):
        params = tiny_params(seed=seed, n_components=3, noise=0.5)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(size=3)
        for member in (0, params.masks.n_members - 1):
            cond = forward_conditionals(params, x, member)
            for d in range(3):
                mass = trapezoid_mixture_mass(
                    cond.mixture_weights[d], cond.means[d], cond.variances[d]
                )
                assert mass == pytest.approx(1.0, abs=1e-3)

    def test_bernoulli_masses_sum_exactly(self):
        params = tiny_params(head=BERNOULLI, seed=6, noise=1.0)
        x = (np.random.default_rng(3).uniform(size=3) > 0.5).astype(float)
        cond = forward_conditionals(params, x, 1)
        for phi in cond.bernoulli_probs:
            assert phi + (1.0 - phi) == 1.0


class TestHeadSelection:
    def test_all_binary_gets_bernoulli(self):
        assert choose_head(("binary", "binary")) == BERNOULLI

    def test_any_continuous_gets_mixture(self):
        assert choose_head(("binary", "continuous")) == GAUSSIAN_MIXTURE


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        from anodens.data import NormStats

        params = tiny_params(seed=13, noise=0.4)
        stats = NormStats(("a", "b", "c"), np.zeros(3), np.array([1.0, 2.0, 4.0]))
        path = tmp_path / "model.bin"
        save_model(str(path), params, stats)
        loaded, loaded_stats = load_model(str(path))
        x = np.random.default_rng(5).uniform(size=(4, 3))
        np.testing.assert_array_equal(
            log_density_batch(params, x), log_density_batch(loaded, x)
        )
        assert loaded.head == params.head
        assert loaded.n_components == params.n_components
        np.testing.assert_array_equal(loaded_stats.maxs, stats.maxs)

    def test_roundtrip_without_stats(self, tmp_path):
        params = tiny_params(head=BERNOULLI, seed=2)
        path = tmp_path / "model.bin"
        save_model(str(path), params)
        loaded, stats = load_model(str(path))
        assert stats is None
        assert loaded.head == BERNOULLI
