import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodens import model
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
from anodens.objective import LabeledBatch, ObjectiveConfig, gradient

from helpers import (
    assert_same_model,
    gaussian_logpdf,
    reference_log_density,
    tiny_params,
    trapezoid_mixture_mass,
)


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

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    def test_single_b_out_column_moves_one_parameter(self, head):
        # stored column d*P + j must reach attribute d's raw output j and nothing else
        params = tiny_params(head=head, seed=9, n_attributes=4, n_hidden=8, n_components=3)
        x = np.random.default_rng(2).uniform(size=4)
        base = forward_conditionals(params, x, 1)
        k = params.n_components
        for d in range(params.n_attributes):
            for j in range(params.head_width):
                moved = params.copy()
                moved.b_out[d * params.head_width + j] += 0.7
                cond = forward_conditionals(moved, x, 1)
                if head == BERNOULLI:
                    changed = cond.bernoulli_probs != base.bernoulli_probs
                    assert np.flatnonzero(changed).tolist() == [d]
                    assert cond.bernoulli_probs[d] > base.bernoulli_probs[d]
                    continue
                group, comp = divmod(j, k)
                # logits move every weight of attribute d through the softmax
                rows = cond.mixture_weights != base.mixture_weights
                assert np.flatnonzero(rows.any(axis=1)).tolist() == ([d] if group == 0 else [])
                if group == 0:
                    assert cond.mixture_weights[d, comp] > base.mixture_weights[d, comp]
                for g, name in ((1, "means"), (2, "variances")):
                    changed = getattr(cond, name) != getattr(base, name)
                    want = [(d, comp)] if group == g else []
                    assert list(map(tuple, np.argwhere(changed).tolist())) == want

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

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("n_attributes", [3, 8])
    def test_matches_member_loop_reference(self, head, n_attributes):
        params = tiny_params(head=head, seed=20 + n_attributes, n_attributes=n_attributes,
                             n_hidden=16, n_components=3, noise=0.5)
        x = np.random.default_rng(5).uniform(size=(9, n_attributes))
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        np.testing.assert_allclose(
            forward_ensemble(params, x).log_density, reference_log_density(params, x),
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize(
        "n_rows", [1, model.ROW_TILE - 1, model.ROW_TILE, model.ROW_TILE + 1]
    )
    def test_matches_member_loop_reference_at_tile_edges(self, head, n_rows):
        # the paper's D and H, so a tile holds few members; one member more
        # than a tile, so the last member tile is a partial one
        shape = dict(head=head, seed=31, n_attributes=30, n_hidden=500, n_components=3,
                     n_masks=1, noise=0.5)
        tile = model.members_per_tile(tiny_params(n_orderings=1, **shape), np.float64)
        params = tiny_params(n_orderings=tile + 1, **shape)
        x = np.random.default_rng(n_rows).uniform(size=(n_rows, 30))
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        reference = reference_log_density(params, x)
        for for_backprop in (True, False):
            np.testing.assert_allclose(
                forward_ensemble(params, x, for_backprop).log_density, reference,
                rtol=1e-12, atol=1e-12,
            )

    def test_scoring_memory_grows_only_with_input_and_output(self):
        params = tiny_params(seed=9, n_attributes=8, n_hidden=64, n_components=3,
                             n_orderings=4, n_masks=4)
        rng = np.random.default_rng(0)
        peaks = []
        for n_rows in (model.ROW_TILE, 8 * model.ROW_TILE):
            x = rng.uniform(size=(n_rows, 8))
            tracemalloc.start()
            try:
                log_density_batch(params, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_row = (peaks[1] - peaks[0]) / (7 * model.ROW_TILE)
        # a row's input and output: 8 attributes and one log-density, 8 bytes each
        assert per_row <= 4 * (8 + 1) * 8

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


class TestComputeDtype:
    """A pass computes in the dtype of its rows: float32 stays float32, all else is float64."""

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    def test_float32_pass_keeps_every_array_float32(self, head):
        params = tiny_params(head=head, seed=6, n_attributes=8, n_hidden=64, n_components=3)
        x = np.random.default_rng(6).uniform(size=(67, 8)).astype(np.float32)
        if head == BERNOULLI:
            x = (x > 0.5).astype(np.float32)
        for for_backprop in (True, False):
            cache = forward_ensemble(params, x, for_backprop)
            kept = {name: arr.dtype for name, arr in vars(cache).items() if arr is not None}
            assert set(kept.values()) == {np.dtype(np.float32)}, kept
            assert ("member_weight" in kept) == for_backprop

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    def test_float64_rows_give_float64_results(self, head):
        params = tiny_params(head=head, seed=7, n_attributes=8, n_hidden=64, n_components=3)
        x = np.random.default_rng(7).uniform(size=(10, 8))
        if head == BERNOULLI:
            x = (x > 0.5).astype(np.float64)
        for rows in (x, x.tolist(), (x > 0.5).astype(np.int64)):
            assert log_density_batch(params, rows).dtype == np.float64
        cache = forward_ensemble(params, x)
        assert all(arr.dtype == np.float64 for arr in vars(cache).values() if arr is not None)
        grads = gradient(params, LabeledBatch(x[:7], x[7:]), ObjectiveConfig(lam=10.0))
        assert all(grad.dtype == np.float64 for grad in grads.values())

    def test_sigmoid_keeps_float32_and_returns_a_float_for_a_scalar(self):
        assert model.sigmoid(np.ones(3, dtype=np.float32)).dtype == np.float32
        assert model.sigmoid(np.ones(3, dtype=np.float16)).dtype == np.float64
        assert type(model.sigmoid(0.5)) is float
        assert type(model.sigmoid(np.float32(0.5))) is float


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

    @settings(max_examples=25, deadline=None)
    @given(
        head=st.sampled_from([GAUSSIAN_MIXTURE, BERNOULLI]),
        n_attributes=st.integers(2, 9),
        n_hidden=st.integers(1, 24),
        n_components=st.integers(1, 4),
        n_orderings=st.integers(1, 3),
        n_masks=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_is_bit_identical_for_random_shapes(
        self, head, n_attributes, n_hidden, n_components, n_orderings, n_masks, seed
    ):
        params = tiny_params(head=head, seed=seed, n_attributes=n_attributes, n_hidden=n_hidden,
                             n_components=n_components, n_orderings=n_orderings,
                             n_masks=n_masks, noise=1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.bin")
            save_model(path, params)
            loaded, stats = load_model(path)
        assert_same_model(loaded, params)
        assert stats is None

    @pytest.mark.parametrize(
        "case",
        ["truncated_w_out", "unknown_head", "no_components", "missing_b_out", "missing_n_hidden"],
    )
    def test_rejects_file_that_contradicts_its_header(self, tmp_path, case):
        params = tiny_params(seed=3)
        header = {
            "format_version": model.MODEL_FORMAT_VERSION, "head": params.head,
            "n_components": params.n_components, "n_attributes": 3, "n_hidden": 5,
            "n_orderings": 2, "n_masks_per_ordering": 2, "mask_seed": 3,
            "has_norm_stats": False,
        }
        arrays = dict(params.trainable())
        if case == "truncated_w_out":
            arrays["w_out"] = params.w_out[:, :-1]
            match = r"^model file array w_out has shape \(5, 17\), expected \(5, 18\)$"
        elif case == "unknown_head":
            header["head"] = "poisson"
            match = r"^model file has unknown head 'poisson'$"
        elif case == "no_components":
            header["n_components"] = 0
            match = r"^model file mixture head has 0 components$"
        elif case == "missing_b_out":
            del arrays["b_out"]
            match = "has no array 'b_out'$"
        else:
            del header["n_hidden"]
            match = "has no header key 'n_hidden'$"
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            np.savez(fh, header_json=np.frombuffer(json.dumps(header).encode(), np.uint8),
                     **arrays)
        with pytest.raises(ValueError, match=match) as exc:
            load_model(str(path))
        if case.startswith("missing"):
            assert str(exc.value).startswith(f"model file {path} has no ")

    @pytest.mark.parametrize(
        "name, change, problem",
        [
            ("w_out", lambda a: a.astype(np.complex128), "has dtype complex128"),
            ("b_in", lambda a: a.astype(np.int64), "has dtype int64"),
            ("w_out", lambda a: np.where(a == a.flat[0], np.nan, a), "holds a non-finite value"),
            ("norm_maxs", lambda a: a * np.inf, "holds a non-finite value"),
        ],
        ids=["complex_w_out", "integer_b_in", "nan_w_out", "inf_norm_maxs"],
    )
    def test_rejects_array_that_is_not_real_and_finite(self, tmp_path, name, change, problem):
        from anodens.data import NormStats

        path = tmp_path / "model.bin"
        stats = NormStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        save_model(str(path), tiny_params(seed=4), stats)
        with np.load(path) as payload:
            arrays = dict(payload)
        arrays[name] = change(arrays[name])
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value).startswith(f"model file {path} array {name} {problem}")

    @pytest.mark.parametrize(
        "content", [b"", b"w_in=1\n", b"PK\x03\x04truncated"], ids=["empty", "text", "bad_zip"]
    )
    def test_rejects_file_that_is_not_an_npz_archive(self, tmp_path, content):
        path = tmp_path / "model.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} is not an .npz archive"


class TestSoftplus:
    def test_within_two_ulp_of_logaddexp_and_finite(self):
        a = np.concatenate([
            np.linspace(-50.0, 50.0, 10001),
            [0.0, -0.0, 745.0, -745.0, 1e6, -1e6, 1e300, -1e300, 1e308, -1e308],
            np.random.default_rng(0).normal(scale=30.0, size=1000),
        ])
        with np.errstate(over="raise"):
            got = model._softplus(a)
        ref = np.logaddexp(0.0, a)
        assert np.isfinite(got).all()
        assert (np.abs(got - ref) <= 2 * np.spacing(ref)).all()
