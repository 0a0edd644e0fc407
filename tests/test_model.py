import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anodens
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
from anodens.objective import LabeledBatch, ObjectiveConfig, gradient, objective_and_gradient

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

    def test_masks_are_bool_and_small_at_paper_shape(self):
        masks = build_masks(30, 500, 10, 10, seed=0)
        assert masks.input_masks.dtype == masks.output_masks.dtype == np.bool_
        assert masks.input_masks.nbytes + masks.output_masks.nbytes <= 3.1e6

    def test_build_and_load_peak_memory_at_paper_shape(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_model(path, init_params(build_masks(30, 500, 10, 10, seed=0), seed=1))
        # the masks are 3.0 MB and the loaded weights 1.2 MB; float64 masks were 24 MB
        for call, bound in ((lambda: build_masks(30, 500, 10, 10, seed=0), 4e6),
                            (lambda: load_model(path), 5.5e6)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_recipe_and_masks_are_read_only(self, tmp_path, source):
        masks = build_masks(4, 6, 2, 2, seed=1)
        if source == "loaded":
            path = str(tmp_path / "model.bin")
            save_model(path, init_params(masks, seed=2))
            masks = load_model(path)[0].masks
        for name in ("orderings", "hidden_degrees", "input_masks", "output_masks"):
            arr = getattr(masks, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


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
        # b_out[j, d] must reach attribute d's raw output j and nothing else
        params = tiny_params(head=head, seed=9, n_attributes=4, n_hidden=8, n_components=3)
        x = np.random.default_rng(2).uniform(size=4)
        base = forward_conditionals(params, x, 1)
        k = params.n_components
        for d in range(params.n_attributes):
            for j in range(params.head_width):
                moved = params.copy()
                moved.b_out[j, d] += 0.7
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
        params.b_out[1] = 0.5
        params.b_out[2] = raw_scale
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
        # the paper's D and H, so a tile holds few members; twice the tile of
        # the paper's 100 members plus one, so the members span two tiles or more
        shape = dict(head=head, seed=31, n_attributes=30, n_hidden=500, n_components=3,
                     n_masks=1, noise=0.5)
        paper_ensemble = tiny_params(n_orderings=100, **shape)
        x = np.random.default_rng(n_rows).uniform(size=(n_rows, 30))
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        for for_backprop in (True, False):
            scoring_rows = None if for_backprop else min(n_rows, model.ROW_TILE)
            n_members = 2 * model.members_per_tile(paper_ensemble, np.float64, scoring_rows) + 1
            params = tiny_params(n_orderings=n_members, **shape)
            tile = model.members_per_tile(params, np.float64, scoring_rows)
            assert len(model.tile_slices(n_members, tile)) >= 2
            np.testing.assert_allclose(
                forward_ensemble(params, x, for_backprop).log_density,
                reference_log_density(params, x), rtol=1e-12, atol=1e-12,
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

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_single_row_functions_reject_any_other_row_count(self, n_rows):
        params = tiny_params(seed=0)
        x = np.random.default_rng(0).uniform(size=(3, 3))
        for single in (log_density, anomaly_score):
            message = f"^expected a single instance, got {n_rows} rows$"
            with pytest.raises(ValueError, match=message):
                single(params, x[:n_rows])
            assert single(params, x[:1]) == single(params, x[0])
        assert log_density(params, x[0]) == log_density_batch(params, x)[0]


class TestContractionOrders:
    """A scoring tile of at most P/2 rows masks its activations; any other tile its weights."""

    @staticmethod
    def force(monkeypatch, masks_activations):
        monkeypatch.setattr(model, "_masks_activations", lambda params, n_rows: masks_activations)

    @staticmethod
    def rows(head, n_rows, n_attributes, dtype, seed):
        x = np.random.default_rng(seed).uniform(size=(n_rows, n_attributes))
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        return x.astype(dtype)

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("n_attributes", [3, 8, 30])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_activation_and_weight_paths_agree(self, monkeypatch, head, n_attributes, dtype):
        # 7 members in scoring tiles of 3, 3 and 1, so the tiles differ in size
        params = tiny_params(head=head, seed=50 + n_attributes, n_attributes=n_attributes,
                             n_hidden=48, n_components=3, n_orderings=7, n_masks=1, noise=0.5)
        monkeypatch.setattr(model, "members_per_tile", lambda *args: 3)
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for n_rows in range(1, params.head_width + 2):
            x = self.rows(head, n_rows, n_attributes, dtype, n_rows)
            got = {}
            for masks_activations in (True, False):
                self.force(monkeypatch, masks_activations)
                got[masks_activations] = log_density_batch(params, x)
                assert got[masks_activations].dtype == dtype
            np.testing.assert_allclose(got[True], got[False], rtol=rtol, atol=0, err_msg=n_rows)

    def test_few_rows_never_build_masked_output_weights(self, monkeypatch):
        params = tiny_params(seed=51, n_attributes=8, n_hidden=32, n_components=3, noise=0.5)
        p = params.head_width  # 9

        def refuse(*args):
            raise AssertionError("masked output weights built")

        monkeypatch.setattr(model, "_masked_w_out", refuse)
        for n_rows in range(1, p // 2 + 1):
            x = self.rows(GAUSSIAN_MIXTURE, n_rows, 8, np.float64, n_rows)
            np.testing.assert_allclose(log_density_batch(params, x),
                                       reference_log_density(params, x), rtol=1e-12)
            forward_conditionals(params, x[0], 0)
        with pytest.raises(AssertionError, match="masked output weights built"):
            log_density_batch(params, self.rows(GAUSSIAN_MIXTURE, p // 2 + 1, 8, np.float64, 51))
        # a Bernoulli head (P = 1) masks its weights even for one row
        bernoulli = tiny_params(head=BERNOULLI, seed=51, n_attributes=8, n_hidden=32)
        with pytest.raises(AssertionError, match="masked output weights built"):
            log_density_batch(bernoulli, self.rows(BERNOULLI, 1, 8, np.float64, 51))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pass_for_backprop_never_masks_activations(self, monkeypatch, dtype):
        params = tiny_params(seed=52, n_attributes=8, n_hidden=32, n_components=3,
                             n_orderings=5, n_masks=1, noise=0.5)
        x = self.rows(GAUSSIAN_MIXTURE, 3, 8, dtype, 52)
        batch, cfg = LabeledBatch(x[:1], x[1:]), ObjectiveConfig(lam=10.0)

        def arrays():
            cache = forward_ensemble(params, x[:1])
            value, grads = objective_and_gradient(params, batch, cfg)
            return [cache.head_grad, cache.hidden, cache.log_density, np.float64(value),
                    *grads.values()]

        expected = arrays()
        self.force(monkeypatch, True)
        built = []
        masked_w_out = model._masked_w_out
        monkeypatch.setattr(model, "_masked_w_out",
                            lambda *args: built.append(1) or masked_w_out(*args))
        for want, got in zip(expected, arrays()):
            assert want.dtype == got.dtype and want.tobytes() == got.tobytes()
        # built once per member tile by each of: the single-row forward, and
        # the objective's forward and backward
        n_tiles = len(model.tile_slices(5, model.members_per_tile(params, dtype)))
        assert len(built) == 3 * n_tiles

    @pytest.mark.parametrize("n, fit", [(100, 33), (100, 2), (7, 3), (13, 7), (5, 5), (3, 8)])
    def test_member_tiles_are_as_many_as_fit_gives_and_balanced(self, monkeypatch, n, fit):
        params = tiny_params(seed=55, n_orderings=1, n_masks=n)
        # TILE_BYTES holds `fit` float64 members of a pass for backprop
        h, p, d = params.n_hidden, params.head_width, params.n_attributes
        member_bytes = h * (p * d + model.ROW_TILE) * 8
        monkeypatch.setattr(model, "TILE_BYTES", fit * member_bytes)
        tiles = model.tile_slices(n, model.members_per_tile(params, np.float64))
        count = len(model.tile_slices(n, fit))
        assert len(tiles) == count
        assert max(t.stop - t.start for t in tiles) == -(-n // count) <= fit

    @pytest.mark.parametrize("n, size", [(100, 33), (100, 2)])
    def test_scoring_member_tiles_are_even(self, monkeypatch, n, size):
        params = tiny_params(seed=56, n_orderings=1, n_masks=n)
        h, p, d = params.n_hidden, params.head_width, params.n_attributes
        # one row masks its activations, a full row tile its output weights
        for rows, member_items in ((1, h * (d + 1)),
                                   (model.ROW_TILE, h * (p * d + model.ROW_TILE))):
            assert model._masks_activations(params, rows) == (rows == 1)
            monkeypatch.setattr(model, "TILE_BYTES", size * member_items * 8)
            tiles = model.tile_slices(n, model.members_per_tile(params, np.float64, rows))
            assert len(tiles) == len(model.tile_slices(n, size))
            assert [t.start for t in tiles[1:]] == [t.stop for t in tiles[:-1]]
            assert tiles[0].start == 0 and tiles[-1].stop == n
            sizes = {t.stop - t.start for t in tiles}
            assert max(sizes) <= size and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("masks_activations", [True, False])
    def test_scores_do_not_depend_on_member_tiling(self, monkeypatch, head, masks_activations):
        params = tiny_params(head=head, seed=53, n_attributes=8, n_hidden=32, n_components=3,
                             n_orderings=13, n_masks=1, noise=0.5)
        self.force(monkeypatch, masks_activations)
        for dtype in (np.float64, np.float32):
            for n_rows in (1, 3, 6):
                x = self.rows(head, n_rows, 8, dtype, n_rows)
                scores = []
                for members in (1, 2, 7, 13):
                    monkeypatch.setattr(model, "members_per_tile", lambda *args: members)
                    scores.append(log_density_batch(params, x))
                assert all(s.tobytes() == scores[0].tobytes() for s in scores), (dtype, n_rows)


class TestBoolMasks:
    """Masks are applied straight from bool, with the float masks' arithmetic."""

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("masks_activations", [True, False])
    def test_bool_masks_give_the_float_masks_results(
        self, monkeypatch, head, dtype, masks_activations
    ):
        params = tiny_params(head=head, seed=54, n_attributes=8, n_hidden=32, n_components=3,
                             n_orderings=3, n_masks=2, noise=0.5)
        # masks of 0s and 1s in the pass dtype: the operands of a pass over float masks
        float_params = params.copy()
        float_params.masks = dataclasses.replace(
            params.masks,
            input_masks=params.masks.input_masks.astype(dtype),
            output_masks=params.masks.output_masks.astype(dtype),
        )
        TestContractionOrders.force(monkeypatch, masks_activations)
        x = TestContractionOrders.rows(head, 67, 8, dtype, 54)

        def arrays(p):
            out = [log_density_batch(p, x[:n]) for n in (1, 2, 5, 67)]
            for lam in (0.0, 10.0):
                value, grads = objective_and_gradient(p, LabeledBatch(x[:64], x[64:]),
                                                      ObjectiveConfig(lam=lam))
                out += [np.float64(value), *grads.values()]
            cond = forward_conditionals(p, x[0], p.masks.n_members - 1)
            return out + list(conditional_arrays(cond))

        for want, got in zip(arrays(float_params), arrays(params), strict=True):
            assert want.dtype == got.dtype and want.tobytes() == got.tobytes()

    @pytest.mark.parametrize("p", [1, 9])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_output_weights_keep_the_pass_dtype(self, p, dtype):
        w_out = np.random.default_rng(1).normal(size=(5, p, 3)).astype(dtype)
        masks = np.random.default_rng(2).uniform(size=(2, 5, 3)) < 0.5
        masked = model._masked_w_out(w_out, masks)
        assert masked.dtype == dtype
        assert masked.tobytes() == (w_out * masks.astype(dtype)[:, :, None, :]).tobytes()


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
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pass_for_backprop_keeps_six_arrays(self, head, dtype):
        params = tiny_params(head=head, seed=8, n_attributes=8, n_hidden=64, n_components=3,
                             n_orderings=3, n_masks=2)
        m, b, h, p, d = params.masks.n_members, 67, 64, params.head_width, 8
        x = (np.random.default_rng(8).uniform(size=(b, d)) > 0.5).astype(dtype)
        cache = forward_ensemble(params, x)
        shapes = {name: arr.shape for name, arr in vars(cache).items()}
        assert shapes == dict(x=(b, d), log_density=(b,), hidden=(m, b, h),
                              head_grad=(m, b, p, d), member_logdensity=(m, b),
                              member_weight=(m, b))
        total = sum(arr.nbytes for arr in vars(cache).values())
        assert total == np.dtype(dtype).itemsize * (m * b * (h + p * d + 2) + b * d + b)

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
        # w_out and b_out in the file's column order, d * P + j
        arrays = dict(params.trainable(), w_out=params.w_out.transpose(0, 2, 1).reshape(5, -1),
                      b_out=params.b_out.T.ravel())
        if case == "truncated_w_out":
            arrays["w_out"] = arrays["w_out"][:, :-1]
            problem = "array w_out has shape (5, 17), expected (5, 18)"
        elif case == "unknown_head":
            header["head"] = "poisson"
            problem = "has unknown head 'poisson'"
        elif case == "no_components":
            header["n_components"] = 0
            problem = "mixture head has 0 components"
        elif case == "missing_b_out":
            del arrays["b_out"]
            problem = "has no array 'b_out'"
        else:
            del header["n_hidden"]
            problem = "has no header key 'n_hidden'"
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            np.savez(fh, header_json=np.frombuffer(json.dumps(header).encode(), np.uint8),
                     **arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} {problem}"

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
        "name, value, problem",
        [
            ("norm_mins", np.array([0.0, 3.0, 0.0]),
             "array norm_mins exceeds norm_maxs at attribute 1"),
            ("norm_names", b"[a,", "array norm_names is not a JSON list of 3 strings"),
            ("norm_names", b'["a"]', "array norm_names is not a JSON list of 3 strings"),
            ("norm_names", b"[1, 2, 3]", "array norm_names is not a JSON list of 3 strings"),
        ],
        ids=["min_above_max", "names_not_json", "one_name", "integer_names"],
    )
    def test_rejects_norm_stats_that_do_not_fit(self, tmp_path, name, value, problem):
        from anodens.data import NormStats

        path = tmp_path / "model.bin"
        stats = NormStats(("a", "b", "c"), np.zeros(3), np.ones(3))
        save_model(str(path), tiny_params(seed=4), stats)
        with np.load(path) as payload:
            arrays = dict(payload)
        arrays[name] = np.frombuffer(value, np.uint8) if isinstance(value, bytes) else value
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} {problem}"

    @pytest.mark.parametrize(
        "content", [b"", b"w_in=1\n", b"PK\x03\x04truncated"], ids=["empty", "text", "bad_zip"]
    )
    def test_rejects_file_that_is_not_an_npz_archive(self, tmp_path, content):
        path = tmp_path / "model.bin"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} is not an .npz archive"

    @staticmethod
    def saved_arrays(path, params):
        """(header, other arrays) of `params` as save_model writes them to `path`."""
        save_model(str(path), params)
        with np.load(path) as payload:
            arrays = dict(payload)
        return json.loads(bytes(arrays.pop("header_json")).decode()), arrays

    @staticmethod
    def write(path, header, arrays):
        with open(path, "wb") as fh:
            np.savez(fh, header_json=np.frombuffer(json.dumps(header).encode(), np.uint8),
                     **arrays)

    def test_stores_the_mask_recipe_as_small_integers(self, tmp_path):
        params = tiny_params(seed=5, n_attributes=4, n_hidden=6)
        header, arrays = self.saved_arrays(tmp_path / "model.bin", params)
        assert header["format_version"] == model.MODEL_FORMAT_VERSION == 2
        assert header["mask_seed"] == params.masks.seed
        for name in ("orderings", "hidden_degrees"):
            assert arrays[name].dtype == np.uint8
            np.testing.assert_array_equal(arrays[name], getattr(params.masks, name))

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    def test_output_columns_are_attribute_major_in_the_file(self, tmp_path, head):
        # format 2's column d*P + j is raw output j of attribute d, whatever the in-memory layout
        params = tiny_params(head=head, seed=7, n_attributes=4, n_hidden=6, n_components=3)
        path = tmp_path / "model.bin"
        header, arrays = self.saved_arrays(path, params)
        p = params.head_width
        for d in range(4):
            for j in range(p):
                np.testing.assert_array_equal(arrays["w_out"][:, d * p + j],
                                              params.w_out[:, j, d])
                assert arrays["b_out"][d * p + j] == params.b_out[j, d]
                # a file that moves one b_out column moves only attribute d's output j
                moved = dict(arrays, b_out=arrays["b_out"].copy())
                moved["b_out"][d * p + j] += 0.7
                self.write(path, header, moved)
                loaded = load_model(str(path))[0]
                assert np.argwhere(loaded.b_out != params.b_out).tolist() == [[j, d]]
                assert loaded.w_out.tobytes() == params.w_out.tobytes()

    def test_loads_the_stored_recipe_not_the_seed(self, tmp_path):
        params = tiny_params(seed=5, n_attributes=4, n_hidden=6)
        path = tmp_path / "model.bin"
        header, arrays = self.saved_arrays(path, params)
        # a recipe no seed draws: every degree 1, the orderings reversed
        arrays["hidden_degrees"][:] = 1
        arrays["orderings"] = arrays["orderings"][:, ::-1].copy()
        header["mask_seed"] = 123456
        self.write(path, header, arrays)
        masks = load_model(str(path))[0].masks
        np.testing.assert_array_equal(masks.hidden_degrees, 1)
        np.testing.assert_array_equal(masks.orderings, arrays["orderings"])
        position = np.repeat(masks.orderings, masks.n_masks_per_ordering, axis=0)
        np.testing.assert_array_equal(
            masks.input_masks, np.broadcast_to((position == 1)[:, :, None], (4, 4, 6)))
        np.testing.assert_array_equal(
            masks.output_masks, np.broadcast_to((position > 1)[:, None, :], (4, 6, 4)))
        assert masks.seed == 123456

    @pytest.mark.parametrize(
        "case, problem",
        [
            ("degree_0", "array hidden_degrees holds a degree outside [1, 3]"),
            ("degree_d", "array hidden_degrees holds a degree outside [1, 3]"),
            ("repeated_position",
             "array orderings holds a row that is not a permutation of 1..4"),
            ("float_orderings", "array orderings has dtype float64, expected integers"),
            ("missing_ordering", "array orderings has shape (1, 4), expected (2, 4)"),
            ("missing_degrees", "has no array 'hidden_degrees'"),
        ],
    )
    def test_rejects_a_recipe_that_build_masks_cannot_draw(self, tmp_path, case, problem):
        path = tmp_path / "model.bin"
        header, arrays = self.saved_arrays(path, tiny_params(seed=6, n_attributes=4, n_hidden=6))
        if case == "degree_0":
            arrays["hidden_degrees"][1, 2] = 0
        elif case == "degree_d":
            arrays["hidden_degrees"][0, 0] = 4
        elif case == "repeated_position":
            arrays["orderings"][1] = (1, 2, 2, 4)
        elif case == "float_orderings":
            arrays["orderings"] = arrays["orderings"].astype(np.float64)
        elif case == "missing_ordering":
            arrays["orderings"] = arrays["orderings"][:1]
        else:
            del arrays["hidden_degrees"]
        self.write(path, header, arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} {problem}"

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("n_orderings", "2", "header key 'n_orderings' is '2', expected an integer"),
            ("mask_seed", "x", "header key 'mask_seed' is 'x', expected an integer"),
            ("n_orderings", True, "header key 'n_orderings' is True, expected an integer"),
            ("n_components", 2.0, "header key 'n_components' is 2.0, expected an integer"),
            ("has_norm_stats", 0, "header key 'has_norm_stats' is 0, expected true or false"),
            ("head", None, "header key 'head' is None, expected a string"),
            ("n_hidden", 0, "header key 'n_hidden' is 0, expected at least 1"),
            ("n_attributes", 1, "header key 'n_attributes' is 1, expected at least 2"),
            ("mask_seed", -1, "header key 'mask_seed' is -1, expected at least 0"),
            ("format_version", 1, "has unsupported model format version 1"),
            ("format_version", 3, "has unsupported model format version 3"),
            ("format_version", "2", "has unsupported model format version '2'"),
            ("format_version", True, "has unsupported model format version True"),
        ],
    )
    def test_rejects_a_header_value_of_the_wrong_type_or_range(self, tmp_path, key, value,
                                                               problem):
        path = tmp_path / "model.bin"
        header, arrays = self.saved_arrays(path, tiny_params(seed=7))
        header[key] = value
        self.write(path, header, arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} {problem}"

    @pytest.mark.parametrize("header", [b"[1, 2]", b"{", b"\xff"], ids=["list", "cut", "utf8"])
    def test_rejects_a_header_that_is_not_a_json_object(self, tmp_path, header):
        path = tmp_path / "model.bin"
        _, arrays = self.saved_arrays(path, tiny_params(seed=8))
        with open(path, "wb") as fh:
            np.savez(fh, header_json=np.frombuffer(header, np.uint8), **arrays)
        with pytest.raises(ValueError) as exc:
            load_model(str(path))
        assert str(exc.value) == f"model file {path} has a header that is not a JSON object"

    def test_every_truncation_fails_with_one_line_naming_the_file(self, tmp_path):
        params = tiny_params(seed=44, n_attributes=4, n_hidden=6, n_components=2,
                             n_orderings=2, n_masks=2)
        whole = tmp_path / "model.bin"
        save_model(str(whole), params)
        data = whole.read_bytes()
        path = tmp_path / "cut.bin"
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError) as exc:
                load_model(str(path))
            message = str(exc.value)
            assert str(path) in message and "\n" not in message, (size, message)


class TestTileWorkers:
    """A pass runs its member tiles on a pool; every result is bitwise the one-worker result."""

    @staticmethod
    def force_workers(monkeypatch, workers):
        forced = model.TileWorkers(workers, workers, 1, "OPENBLAS_NUM_THREADS")
        monkeypatch.setattr(model, "tile_workers", lambda: forced)

    @staticmethod
    def small_tiles(monkeypatch, params, members):
        """Tiles of `members` float64 (2 * members float32) members and 4-row scoring tiles."""
        monkeypatch.setattr(model, "ROW_TILE", 4)
        member_bytes = params.n_hidden * (params.head_width * params.n_attributes + 4) * 8
        monkeypatch.setattr(model, "TILE_BYTES", members * member_bytes)

    def test_worker_count_is_usable_cores_over_blas_threads(self, monkeypatch):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        cores = model.tile_workers().usable_cores
        assert model.tile_workers() == (1, cores, cores, None)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert model.tile_workers() == (cores, cores, 1, "OMP_NUM_THREADS")
        # OpenBLAS's own variable wins; a value that is not a positive integer is skipped
        monkeypatch.setenv("GOTO_NUM_THREADS", "0")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores))
        assert model.tile_workers() == (1, cores, cores, "OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")
        assert model.tile_workers() == (cores, cores, 1, "OMP_NUM_THREADS")

    @pytest.mark.parametrize("head", [GAUSSIAN_MIXTURE, BERNOULLI])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_more_workers_match_one_bit_for_bit(self, monkeypatch, head, dtype):
        # 7 members: float64 tiles of 2, 2, 2, 1 and float32 tiles of 4, 3
        params = tiny_params(head=head, seed=41, n_attributes=6, n_hidden=32, n_components=3,
                             n_orderings=7, n_masks=1, noise=0.5)
        self.small_tiles(monkeypatch, params, 2)
        x = np.random.default_rng(41).uniform(size=(9, 6))
        if head == BERNOULLI:
            x = (x > 0.5).astype(float)
        x = x.astype(dtype)
        batch, cfg = LabeledBatch(x[:6], x[6:]), ObjectiveConfig(lam=10.0)
        tile_threads = set()
        members_forward = model._members_forward

        def recorded(*args):
            tile_threads.add(threading.current_thread().name)
            return members_forward(*args)

        monkeypatch.setattr(model, "_members_forward", recorded)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so interleavings vary
        try:
            # two workers, and more workers than cores
            for workers in (1, 2, (os.cpu_count() or 1) + 2):
                self.force_workers(monkeypatch, workers)
                tile_threads.clear()
                value, grads = objective_and_gradient(params, batch, cfg)
                # the cache's arrays, which the tiles fill in place: hidden, raw,
                # member log-densities and weights, and the head terms
                kept = [arr for arr in vars(forward_ensemble(params, x)).values()
                        if arr is not None]
                results[workers] = [log_density_batch(params, x), np.float64(value),
                                    *grads.values(), *gradient(params, batch, cfg).values(),
                                    *kept]
                if workers > 1:
                    assert any(name.startswith("anodens-tile") for name in tile_threads)
        finally:
            sys.setswitchinterval(interval)
        for workers, arrays in results.items():
            for one, many in zip(results[1], arrays):
                assert one.dtype == many.dtype and one.tobytes() == many.tobytes(), workers

    def test_worker_exception_reaches_the_caller_once_no_tile_runs(self, monkeypatch):
        self.force_workers(monkeypatch, 3)
        params = tiny_params(seed=42, n_orderings=6, n_masks=1)
        self.small_tiles(monkeypatch, params, 1)
        running, lock, tile_1_started = [0], threading.Lock(), threading.Event()
        members_forward = model._members_forward

        def tile(params, x, members, *out):
            with lock:
                running[0] += 1
            try:
                # the pool gets tiles 0 and 1 first; tile 0 fails while tile 1 runs on
                if members.start == 0:
                    tile_1_started.wait(10)
                    raise RuntimeError(f"tile 0 failed in {threading.current_thread().name}")
                if members.start == 1:
                    tile_1_started.set()
                time.sleep(0.2 if members.start == 1 else 0.01)
                return members_forward(params, x, members, *out)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(model, "_members_forward", tile)
        with pytest.raises(RuntimeError, match=r"^tile 0 failed in anodens-tile"):
            log_density_batch(params, np.full((3, 3), 0.5))
        assert running[0] == 0

    def test_tiles_run_in_groups_of_workers_with_the_last_in_the_caller(self, monkeypatch):
        self.force_workers(monkeypatch, 3)
        running, most, threads, lock = [0], [0], {}, threading.Lock()

        def task(tile):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            threads[tile] = threading.current_thread()
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return tile * 10

        assert list(model._map_tiles(task, list(range(7)))) == [0, 10, 20, 30, 40, 50, 60]
        assert most[0] <= 3
        # groups (0, 1, 2), (3, 4, 5) and (6,): the caller runs each group's last tile
        caller = threading.current_thread()
        assert [tile for tile, thread in sorted(threads.items()) if thread is caller] == [2, 5, 6]
        tiles = model._map_tiles(task, list(range(7)))
        assert next(tiles) == 0
        tiles.close()
        assert running[0] == 0

    def test_importing_anodens_starts_no_thread(self):
        code = ("import threading, anodens; "
                "print(threading.active_count(), anodens.model._tile_pool.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anodens.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.split() == ["1", "0"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_forked_child_can_still_score(self, monkeypatch):
        self.force_workers(monkeypatch, 2)
        params = tiny_params(seed=43, n_orderings=4, n_masks=1)
        self.small_tiles(monkeypatch, params, 1)
        x = np.random.default_rng(43).uniform(size=(5, 3))
        expected = log_density_batch(params, x)  # the pool now has a thread the child lacks
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if log_density_batch(params, x).tobytes() == expected.tobytes() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish scoring within 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


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
