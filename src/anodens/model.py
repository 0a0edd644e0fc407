"""Masked autoregressive density model with mixture / Bernoulli heads.

A single hidden layer is shared by an ensemble of binary connectivity masks.
Each ensemble member pairs an attribute ordering with a random assignment of
hidden-unit degrees; the masks guarantee that the conditional for attribute d
never sees attributes at-or-after d in that member's ordering.  The model
density is the uniform mixture of the per-member densities.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

GAUSSIAN_MIXTURE = "gaussian_mixture"
BERNOULLI = "bernoulli"

# Floor added to the softplus-linked scale so variances stay >= SIGMA_MIN**2.
SIGMA_MIN = 1e-3

LOG_2PI = float(np.log(2.0 * np.pi))

# Format 2 stores the mask recipe, so loading draws no masks from numpy's random streams.
MODEL_FORMAT_VERSION = 2

# Forward and backward run the ensemble a tile of members at a time, so a
# tile's masked operands are built, used and dropped while in cache.  A pass
# spreads its members over as few tiles as hold what fits TILE_BYTES (see
# `members_per_tile`): two float64 members at D=30, H=500 with the mixture
# head, four in a float32 pass, and a whole small ensemble at once, which
# spares it the per-tile call overhead.  Timed at D=30, H=500 and 100
# members on a 2-core x86-64 host, 2 float64 members per tile was within a
# few percent of the fastest of 1, 2 and 4 on training steps, single rows
# and 512-row requests.  A scoring-only pass also runs ROW_TILE rows at a
# time, so its memory is bounded by the tile; every row tile rebuilds the
# masked weights, so 64-row tiles took 40% longer than 256.  A scoring tile
# counts activations over its own rows, not ROW_TILE, so a request of few
# rows runs few, large tiles.
TILE_BYTES = 2 * 500 * (9 * 30 + 256) * 8
ROW_TILE = 256

# The variables OpenBLAS reads its thread count from, in its order of precedence.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _head_width(head: str, n_components: int) -> int:
    """Raw outputs per attribute: K weights + K means + K scales, or one logit."""
    return 3 * n_components if head == GAUSSIAN_MIXTURE else 1


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis))
    return out + np.squeeze(amax, axis=axis)


def _softplus(a: np.ndarray) -> np.ndarray:
    """log(1 + exp(a)); exp only ever sees -|a|, so it cannot overflow."""
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def as_compute_array(a) -> np.ndarray:
    """`a` as an array in its compute dtype: float32 stays float32, anything else is float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def sigmoid(s):
    """1 / (1 + exp(-s)), overflow-safe for arbitrarily large |s|; float32 stays float32."""
    arr = as_compute_array(s)
    # exp(-|s|) is exp(-s) for s >= 0 and exp(s) otherwise
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class MaskSet:
    """Connectivity masks for all (ordering, degree-assignment) ensemble members.

    orderings[r, j] is the 1-based position of attribute j under ordering r;
    ordering 0 is always the identity.  hidden_degrees[m, h] is drawn
    uniformly from {1, ..., D-1}.  Connectivity: input j feeds hidden unit h
    iff position(j) <= degree(h); hidden h feeds the output group of
    attribute d iff degree(h) < position(d).  The orderings and degrees are
    the whole recipe; the masks are kept beside them as bool, one byte per
    connection, and a pass applies them from bool, casting at most a member
    tile's output mask to its dtype.  All four arrays are read-only, so no
    caller can rewire an ensemble that several models share.
    """

    n_attributes: int
    n_hidden: int
    n_orderings: int
    n_masks_per_ordering: int
    seed: int
    orderings: np.ndarray  # (n_orderings, D) int64, read-only
    hidden_degrees: np.ndarray  # (n_members, H) int64, read-only
    input_masks: np.ndarray  # (n_members, D, H) bool, read-only
    output_masks: np.ndarray  # (n_members, H, D) bool, read-only

    @property
    def n_members(self) -> int:
        return self.n_orderings * self.n_masks_per_ordering

    def ordering_of_member(self, member: int) -> np.ndarray:
        return self.orderings[member // self.n_masks_per_ordering]


def _mask_set(orderings, hidden_degrees, n_masks_per_ordering: int, seed: int) -> MaskSet:
    """The read-only MaskSet of these orderings and degrees.

    The one home of the connectivity rule, for built and for loaded ensembles.
    """
    orderings = np.asarray(orderings, dtype=np.int64)
    degrees = np.asarray(hidden_degrees, dtype=np.int64)
    position = np.repeat(orderings, n_masks_per_ordering, axis=0)  # (n_members, D)
    arrays = dict(
        orderings=orderings,
        hidden_degrees=degrees,
        input_masks=position[:, :, None] <= degrees[:, None, :],
        output_masks=degrees[:, :, None] < position[:, None, :],
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return MaskSet(
        n_attributes=orderings.shape[1],
        n_hidden=degrees.shape[1],
        n_orderings=orderings.shape[0],
        n_masks_per_ordering=n_masks_per_ordering,
        seed=seed,
        **arrays,
    )


def build_masks(
    n_attributes: int,
    n_hidden: int,
    n_orderings: int = 10,
    n_masks_per_ordering: int = 10,
    seed: int = 0,
) -> MaskSet:
    """Construct the mask ensemble for a given width; deterministic in the seed."""
    if n_attributes < 2:
        raise ValueError("need at least 2 attributes to have conditioning structure")
    if n_hidden < 1:
        raise ValueError("need at least one hidden unit")
    if n_orderings < 1 or n_masks_per_ordering < 1:
        raise ValueError("ensemble sizes must be positive")
    rng = np.random.default_rng(seed)
    d, h = n_attributes, n_hidden
    orderings = np.empty((n_orderings, d), dtype=np.int64)
    orderings[0] = np.arange(1, d + 1)
    for r in range(1, n_orderings):
        orderings[r] = rng.permutation(d) + 1
    n_members = n_orderings * n_masks_per_ordering
    degrees = rng.integers(1, d, size=(n_members, h), endpoint=False, dtype=np.int64)
    return _mask_set(orderings, degrees, n_masks_per_ordering, seed)


@dataclass
class ConditionalParams:
    """Per-attribute conditional distribution parameters for one ensemble member."""

    head: str
    mixture_weights: np.ndarray | None = None  # (D, K), rows on the simplex
    means: np.ndarray | None = None  # (D, K)
    variances: np.ndarray | None = None  # (D, K), >= SIGMA_MIN**2
    bernoulli_probs: np.ndarray | None = None  # (D,), in (0, 1)


@dataclass
class MadeParams:
    """All trainable weights plus the mask ensemble and head configuration.

    The output layer is head-major, attribute innermost: w_out[h, j, d] and
    b_out[j, d] feed raw output j of attribute d.  Only `init_params`,
    `save_model` and `load_model` know the file's column order, d * P + j.
    """

    w_in: np.ndarray  # (D, H)
    b_in: np.ndarray  # (H,)
    w_out: np.ndarray  # (H, head_width, D) C-contiguous
    b_out: np.ndarray  # (head_width, D) C-contiguous
    head: str
    n_components: int
    masks: MaskSet

    @property
    def n_attributes(self) -> int:
        return self.masks.n_attributes

    @property
    def n_hidden(self) -> int:
        return self.masks.n_hidden

    @property
    def head_width(self) -> int:
        return _head_width(self.head, self.n_components)

    def trainable(self) -> dict[str, np.ndarray]:
        return {"w_in": self.w_in, "b_in": self.b_in, "w_out": self.w_out, "b_out": self.b_out}

    def copy(self) -> "MadeParams":
        return replace(self, **{name: arr.copy() for name, arr in self.trainable().items()})

    def astype(self, dtype) -> "MadeParams":
        """These params with every weight in `dtype`; an array already in it is not copied."""
        return replace(
            self, **{name: arr.astype(dtype, copy=False) for name, arr in self.trainable().items()}
        )


def _head_major(columns: np.ndarray, n_attributes: int) -> np.ndarray:
    """A C-contiguous (..., P, D) copy of file-order (..., D * P) output weights or biases."""
    *lead, width = columns.shape
    by_attribute = columns.reshape(*lead, n_attributes, width // n_attributes)
    return np.ascontiguousarray(np.swapaxes(by_attribute, -1, -2))


def _file_order(head_major: np.ndarray) -> np.ndarray:
    """Inverse of `_head_major`: column d * P + j of the result is element [..., j, d]."""
    *lead, p, d = head_major.shape
    return np.swapaxes(head_major, -1, -2).reshape(*lead, d * p)


def init_params(
    masks: MaskSet, head: str = GAUSSIAN_MIXTURE, n_components: int = 3, seed: int = 0
) -> MadeParams:
    """Glorot-uniform weights (before masking), zero biases."""
    if head not in (GAUSSIAN_MIXTURE, BERNOULLI):
        raise ValueError(f"unknown head {head!r}")
    if head == GAUSSIAN_MIXTURE and n_components < 1:
        raise ValueError("mixture needs at least one component")
    d, h = masks.n_attributes, masks.n_hidden
    width = _head_width(head, n_components)
    rng = np.random.default_rng(seed)
    lim_in = np.sqrt(6.0 / (d + h))
    lim_out = np.sqrt(6.0 / (h + d * width))
    return MadeParams(
        w_in=rng.uniform(-lim_in, lim_in, size=(d, h)),
        b_in=np.zeros(h),
        # drawn in the file's column order, so a seed gives the same weights in any layout
        w_out=_head_major(rng.uniform(-lim_out, lim_out, size=(h, d * width)), d),
        b_out=np.zeros((width, d)),
        head=head,
        n_components=n_components,
        masks=masks,
    )


def choose_head(attribute_kinds) -> str:
    """Bernoulli head only when every attribute is binary, otherwise mixtures."""
    return BERNOULLI if all(k == "binary" for k in attribute_kinds) else GAUSSIAN_MIXTURE


@dataclass
class ForwardCache:
    """Intermediates of a full-ensemble forward pass, kept for backprop.

    Every array has the dtype of x, the pass's compute dtype.  head_grad is
    head-major, (M, B, P, D): attribute is the innermost, contiguous axis.
    It is the head's local gradient, so backprop starts from it and never
    reads the raw outputs, which a pass drops tile by tile.  Member tiles
    fill every per-member array but member_weight in place.  A pass without
    backprop keeps x and log_density alone and leaves every per-member
    field None.
    """

    x: np.ndarray  # (B, D)
    log_density: np.ndarray  # (B,)
    hidden: np.ndarray | None = None  # (M, B, H) ReLU activations
    # d(sum_d log_cond[m, b, d]) / d raw[m, b, j, d], per member and row
    head_grad: np.ndarray | None = None  # (M, B, P, D)
    member_logdensity: np.ndarray | None = None  # (M, B)
    member_weight: np.ndarray | None = None  # (M, B) softmax of member log-densities


def _validate_input(x: np.ndarray, n_attributes: int) -> np.ndarray:
    x = as_compute_array(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_attributes:
        raise ValueError(f"expected vectors of length {n_attributes}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    return x


def tile_slices(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most `size` covering range(n), each within it."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


class TileWorkers(NamedTuple):
    """How many member tiles of a pass run at once, and what that was derived from."""

    workers: int  # usable_cores // blas_threads, at least 1
    usable_cores: int  # cores this process may run on
    blas_threads: int  # threads each BLAS call may use
    blas_threads_from: str | None  # variable that set blas_threads; None: unset, so every core


def tile_workers() -> TileWorkers:
    """Tiles a pass runs at once: the usable cores divided by the BLAS threads.

    BLAS takes its thread count from the first positive integer among
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, as OpenBLAS
    does.  With none of them set it already runs every call on every usable
    core, so tiles run one at a time.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    for name in _BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return TileWorkers(max(1, cores // threads), cores, threads, name)
    return TileWorkers(1, cores, cores, None)


# One pool per process, made on first use, never at import, and dropped in a
# forked child, which has none of the parent's threads; a pool replaced by one
# of another size is dropped too, and its idle threads exit once collected.
@lru_cache(maxsize=1)
def _tile_pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="anodens-tile")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_tile_pool.cache_clear)


def _map_tiles(task, tiles: list):
    """task(tile) for each tile, yielded in tile order, in groups of `tile_workers()` tiles.

    The pool of workers - 1 threads runs every tile of a group but the last,
    which the calling thread runs; once every tile of the group has stopped,
    their results are yielded.  So at most `workers` tiles run at once, none
    runs while a result is yielded (a consumer that stops early leaves none
    running), and a tile's exception reaches the caller only once no tile
    is running.  With one worker this is map(task, tiles).
    """
    workers = tile_workers().workers
    for group in tile_slices(len(tiles), workers):
        *pooled, last = tiles[group]
        futures = [_tile_pool(workers - 1).submit(task, tile) for tile in pooled]
        try:
            result = task(last)
        finally:
            # exception() waits for a tile, and result() below raises its error; a
            # comprehension, as a loop variable would keep a result into the next group
            [future.exception() for future in futures]
        while futures:  # popped, so no result outlives its yield
            yield futures.pop(0).result()
        yield result


def _masks_activations(params: MadeParams, n_rows: int) -> bool:
    """Whether a scoring tile of `n_rows` rows masks its activations, not its output weights.

    Masked activations cost D*H per row and member, masked output weights
    H*P*D per member whatever the rows, so activations win on requests of
    few rows.  Median ms per request of 1..9 rows at D=30, H=500, 100
    members with the mixture head (P = 9), BLAS on one thread and 2 tile
    workers on a shared 2-core x86-64 host: activations
    9/17/21/27/32/32/38/41/49, weights 22/24/26/27/28/29/31/30/32, so they
    meet at 4 rows.  The Bernoulli head (P = 1) always masks its weights.
    """
    return 2 * n_rows <= params.head_width


def members_per_tile(params: MadeParams, dtype, scoring_rows: int | None = None) -> int:
    """Members per tile: ceil(M / n) for the n tiles of at most `fit` members that cover M.

    `fit` members' tile arrays fit TILE_BYTES together, at least one; a
    member's share is its masked operand plus its hidden activations, H per
    row.  A pass for backprop (`scoring_rows` None) masks the output weights,
    H*P*D, over ROW_TILE rows; a scoring row tile counts its own rows and
    masks the output weights or, where `_masks_activations` holds, the
    activations under every attribute's output mask, D*H per row.
    """
    h, p, d = params.n_hidden, params.head_width, params.n_attributes
    if scoring_rows is None:
        member_items = h * (p * d + ROW_TILE)
    elif _masks_activations(params, scoring_rows):
        member_items = h * (d + 1) * scoring_rows
    else:
        member_items = h * (p * d + scoring_rows)
    fit = max(1, TILE_BYTES // (member_items * np.dtype(dtype).itemsize))
    n_members = params.masks.n_members
    return -(-n_members // -(-n_members // fit))


def _masked_w_out(w_out: np.ndarray, output_masks: np.ndarray) -> np.ndarray:
    """Head-major output weights (M', H, P, D) of a member tile, each under its mask.

    A bool mask that broadcasts over P > 1 head outputs is cast to the
    weights' dtype first: one cast of the (M', H, D) tile costs less than
    the multiply converting it once per output.  With P = 1 the multiply
    reads it straight from bool.
    """
    if w_out.shape[1] > 1:
        output_masks = output_masks.astype(w_out.dtype, copy=False)
    return w_out * output_masks[:, :, None, :]


def _attribute_major_w_out(params: MadeParams, n_rows: int) -> np.ndarray | None:
    """w_out as C-contiguous (D, H, P) for a row tile that masks its activations, else None."""
    if not _masks_activations(params, n_rows):
        return None
    return np.ascontiguousarray(params.w_out.transpose(2, 0, 1))


def _members_forward(
    params: MadeParams, x: np.ndarray, members: slice, out=None, w_out_by_attribute=None
) -> np.ndarray:
    """raw (M', B, P, D) outputs of the members in `members`, in the dtype of `params`.

    With `out`, a C-contiguous (M', B, H) array, the ReLU activations are
    computed in it and kept: a pass for backprop, which masks the output
    weights.  With `w_out_by_attribute` (see `_attribute_major_w_out`) a
    tile of few rows masks its activations instead.  Biases and the ReLU
    apply in place.
    """
    input_masks = params.masks.input_masks[members]
    output_masks = params.masks.output_masks[members]
    n_members, b = members.stop - members.start, x.shape[0]
    h, d, p = params.n_hidden, params.n_attributes, params.head_width
    hidden = np.matmul(x, params.w_in * input_masks, out=out)
    hidden += params.b_in
    np.maximum(hidden, 0.0, out=hidden)
    if w_out_by_attribute is not None:
        # each attribute's copy of the activations under its output mask,
        # (M', D, B, H), times that attribute's (H, P) weights: each BLAS call
        # covers one member and attribute, so no result depends on the tiling
        masked_hidden = hidden[:, None] * output_masks.transpose(0, 2, 1)[:, :, None, :]
        raw = np.matmul(masked_hidden, w_out_by_attribute)
        return np.add(raw.transpose(0, 2, 3, 1), params.b_out, order="C")
    masked_w_out = _masked_w_out(params.w_out, output_masks)
    raw = np.matmul(hidden, masked_w_out.reshape(n_members, h, p * d))
    raw += params.b_out.reshape(p * d)
    return raw.reshape(n_members, b, p, d)


def _mixture_link(raw: np.ndarray, k: int):
    """(log mixture weights, means, floored scales), each (..., K, D), from raw (..., 3K, D)."""
    logits = raw[..., :k, :]
    log_mix = logits - _logsumexp(logits, axis=-2)[..., None, :]
    sigmas = _softplus(raw[..., 2 * k :, :]) + SIGMA_MIN
    return log_mix, raw[..., k : 2 * k, :], sigmas


def _head(params: MadeParams, x: np.ndarray, raw: np.ndarray, grad=None) -> np.ndarray:
    """log_cond (M', B, D) of raw outputs (M', B, P, D).

    With `grad`, an (M', B, P, D) array, the head's local gradient
    d(sum_d log_cond) / d raw is written into it: backprop multiplies it by
    each member's upstream gradient.
    """
    if params.head == GAUSSIAN_MIXTURE:
        k = params.n_components
        log_mix, means, sigmas = _mixture_link(raw, k)
        z = (x[None, :, None, :] - means) / sigmas
        log_norm = -0.5 * LOG_2PI - np.log(sigmas) - 0.5 * z * z
        scored = log_mix + log_norm  # (M', B, K, D)
        log_cond = _logsumexp(scored, axis=-2)
        if grad is not None:
            diff = x[None, :, None, :] - means
            resp = np.exp(scored - log_cond[..., None, :])
            inv_sigma = 1.0 / sigmas
            np.subtract(resp, np.exp(log_mix), out=grad[..., :k, :])
            np.multiply(resp * diff * inv_sigma, inv_sigma, out=grad[..., k : 2 * k, :])
            g_sigma = resp * (diff * diff * inv_sigma * inv_sigma - 1.0) * inv_sigma
            # scale raw feeds sigma through a softplus link
            np.multiply(g_sigma, sigmoid(raw[..., 2 * k :, :]), out=grad[..., 2 * k :, :])
        return log_cond
    logit = raw[..., 0, :]  # (M', B, D)
    if grad is not None:
        np.subtract(x, sigmoid(logit), out=grad[..., 0, :])
    # stable log-masses: log(phi) = -softplus(-t), log(1-phi) = -softplus(t)
    return -(x * _softplus(-logit) + (1.0 - x) * _softplus(logit))


def forward_ensemble(params: MadeParams, x: np.ndarray, for_backprop: bool = True) -> ForwardCache:
    """Run every ensemble member on a batch and assemble the mixture log-density.

    The pass computes in the dtype of x: float32 rows give a float32 pass,
    any other rows a float64 one.  Members run in tiles of
    `members_per_tile`, up to `tile_workers()` tiles at once, so each tile's
    masked weights are built, used and dropped while in cache; each tile
    writes its members' share of arrays allocated before it.  With
    `for_backprop` the hidden activations and the head's local gradient are
    kept at full (M, B, ...) size.  Without it rows run in tiles of ROW_TILE
    and only x and log_density are kept, so memory does not grow with B
    beyond the input and the output; a row tile of at most P/2 rows masks
    its activations instead of its output weights (see `_masks_activations`).
    """
    x = _validate_input(x, params.n_attributes)
    params = params.astype(x.dtype)
    n_members, b = params.masks.n_members, x.shape[0]
    h, p, d = params.n_hidden, params.head_width, params.n_attributes
    # a Python float, so it cannot promote a float32 pass to float64
    log_n_members = float(np.log(n_members))
    hidden = np.empty((n_members, b, h), dtype=x.dtype) if for_backprop else None
    head_grad = np.empty((n_members, b, p, d), dtype=x.dtype) if for_backprop else None

    def tile(x_rows, member_logdensity, w_out_by_attribute, members: slice) -> None:
        out, grad = (hidden[members], head_grad[members]) if for_backprop else (None, None)
        raw = _members_forward(params, x_rows, members, out, w_out_by_attribute)
        _head(params, x_rows, raw, grad).sum(axis=-1, out=member_logdensity[members])

    # a scoring row tile's member tiles are sized for its rows; no log-density depends on them
    log_density = np.empty(b, dtype=x.dtype)
    for rows in [slice(0, b)] if for_backprop else tile_slices(b, ROW_TILE):
        n_rows = rows.stop - rows.start
        scoring_rows = None if for_backprop else n_rows
        member_tiles = tile_slices(n_members, members_per_tile(params, x.dtype, scoring_rows))
        w_out_by_attribute = None if for_backprop else _attribute_major_w_out(params, n_rows)
        member_logdensity = np.empty((n_members, n_rows), dtype=x.dtype)
        task = partial(tile, x[rows], member_logdensity, w_out_by_attribute)
        for _ in _map_tiles(task, member_tiles):
            pass
        total = _logsumexp(member_logdensity, axis=0)  # (rows,)
        log_density[rows] = total - log_n_members
    if not for_backprop:
        return ForwardCache(x=x, log_density=log_density)
    member_weight = np.exp(member_logdensity - total[None, :])
    return ForwardCache(x, log_density, hidden, head_grad, member_logdensity, member_weight)


def backprop_log_density(
    params: MadeParams, cache: ForwardCache, coeff: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradient of sum_i coeff[i] * log_density(x_i) w.r.t. every weight and bias.

    Runs in the dtype of cache.x over the member tiles of the forward pass,
    up to `tile_workers()` at once, rebuilding each tile's masked output
    weights, and returns float64 arrays.  Each tile's raw-output gradient is
    its members' upstream gradient times the head's local gradient the
    forward pass kept, whatever the head.  Masks are constants; masked-out
    weights receive exactly zero gradient.
    """
    x, b = cache.x, cache.x.shape[0]
    h, d, p = params.n_hidden, params.n_attributes, params.head_width
    params = params.astype(x.dtype)
    # d(obj)/d(member_ld), (M, B)
    upstream = cache.member_weight * np.asarray(coeff, dtype=x.dtype)[None, :]

    def tile_grads(members: slice) -> list[np.ndarray]:
        """This tile's gradient partials, one per trainable array and of its shape."""
        # allocated before the tile's temporaries, as forward_ensemble's arrays are
        parts = [np.empty_like(arr) for arr in params.trainable().values()]
        hidden = cache.hidden[members]
        input_masks = params.masks.input_masks[members]
        # cast once: the einsum and the masked output weights both read it
        output_masks = params.masks.output_masks[members].astype(x.dtype)
        raw_grad = upstream[members, :, None, None] * cache.head_grad[members]  # (M', B, P, D)
        raw_grad.sum(axis=(0, 1), out=parts[3])
        n_members = hidden.shape[0]
        raw_grad = raw_grad.reshape(n_members, b, p * d)
        member_w_out_grad = np.matmul(hidden.transpose(0, 2, 1), raw_grad)
        member_w_out_grad = member_w_out_grad.reshape(n_members, h, p, d)
        np.einsum("mhpd,mhd->hpd", member_w_out_grad, output_masks, out=parts[2])
        masked_w_out = _masked_w_out(params.w_out, output_masks).reshape(n_members, h, p * d)
        # the hidden gradient, masked in place by hidden > 0 (the ReLU's pre > 0
        # mask, NaN and -0.0 included), becomes the pre-activation gradient
        pre_grad = np.matmul(raw_grad, masked_w_out.transpose(0, 2, 1))
        pre_grad *= hidden > 0.0
        member_w_in_grad = np.matmul(x.T[None, :, :], pre_grad)
        member_w_in_grad *= input_masks
        member_w_in_grad.sum(axis=0, out=parts[0])
        pre_grad.sum(axis=(0, 1), out=parts[1])
        return parts

    grads = {name: np.zeros_like(arr) for name, arr in params.trainable().items()}
    # summed here in tile order, so the sum is the same whatever the worker count
    tiles = tile_slices(params.masks.n_members, members_per_tile(params, x.dtype))
    for parts in _map_tiles(tile_grads, tiles):
        for grad, part in zip(grads.values(), parts):
            grad += part
    return {name: grad.astype(np.float64, copy=False) for name, grad in grads.items()}


def forward_conditionals(params: MadeParams, x: np.ndarray, mask_index: int) -> ConditionalParams:
    """Per-attribute conditional parameters under one ensemble member."""
    x = _validate_input(x, params.n_attributes)
    if x.shape[0] != 1:
        raise ValueError("forward_conditionals expects a single instance")
    masks = params.masks
    if not 0 <= mask_index < masks.n_members:
        raise ValueError(f"mask index {mask_index} out of range [0, {masks.n_members})")
    params = params.astype(x.dtype)
    member = slice(mask_index, mask_index + 1)
    raw = _members_forward(params, x, member, None, _attribute_major_w_out(params, 1))[0, 0]
    if params.head == GAUSSIAN_MIXTURE:
        log_mix, means, sigmas = _mixture_link(raw, params.n_components)
        return ConditionalParams(
            head=GAUSSIAN_MIXTURE,
            mixture_weights=np.exp(log_mix.T),
            means=means.T.copy(),
            variances=(sigmas * sigmas).T,
        )
    probs = sigmoid(raw[0])
    # keep the open-interval contract even when the logit saturates in float64
    probs = np.clip(probs, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return ConditionalParams(head=BERNOULLI, bernoulli_probs=probs)


def log_density_batch(params: MadeParams, x: np.ndarray) -> np.ndarray:
    """Exact log-density of each row under the uniform ensemble mixture."""
    # the flag goes positionally: the benchmark's row counter takes (params, x, *rest)
    return forward_ensemble(params, x, False).log_density


def log_density(params: MadeParams, x: np.ndarray) -> float:
    x = _validate_input(x, params.n_attributes)
    if x.shape[0] != 1:
        raise ValueError(f"expected a single instance, got {x.shape[0]} rows")
    return float(log_density_batch(params, x)[0])


def anomaly_score_batch(params: MadeParams, x: np.ndarray) -> np.ndarray:
    """Negative log-density; higher means more anomalous."""
    return -log_density_batch(params, x)


def anomaly_score(params: MadeParams, x: np.ndarray) -> float:
    return -log_density(params, x)


# Every header key besides format_version: the type its value must have and,
# for an integer, its least value.  A mixture head also needs n_components >= 1.
_HEADER_KEYS = {
    "head": (str, None),
    "n_components": (int, None),
    "n_attributes": (int, 2),
    "n_hidden": (int, 1),
    "n_orderings": (int, 1),
    "n_masks_per_ordering": (int, 1),
    "mask_seed": (int, 0),
    "has_norm_stats": (bool, None),
}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false"}


def save_model(path: str, params: MadeParams, norm_stats=None) -> None:
    """Persist weights, the mask recipe (orderings and hidden degrees) and optional stats.

    The output layer goes in the file's column order (see `_file_order`).
    The orderings and degrees go in the smallest unsigned integer type that
    holds D; the mask seed stays in the header as provenance.
    """
    masks = params.masks
    recipe_dtype = np.min_scalar_type(masks.n_attributes)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "head": params.head,
        "n_components": params.n_components,
        "n_attributes": masks.n_attributes,
        "n_hidden": masks.n_hidden,
        "n_orderings": masks.n_orderings,
        "n_masks_per_ordering": masks.n_masks_per_ordering,
        "mask_seed": masks.seed,
        "has_norm_stats": norm_stats is not None,
    }
    arrays = {
        "header_json": np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
        "w_in": params.w_in.astype(np.float64),
        "b_in": params.b_in.astype(np.float64),
        "w_out": _file_order(params.w_out).astype(np.float64),
        "b_out": _file_order(params.b_out).astype(np.float64),
        "orderings": masks.orderings.astype(recipe_dtype),
        "hidden_degrees": masks.hidden_degrees.astype(recipe_dtype),
    }
    if norm_stats is not None:
        arrays["norm_mins"] = norm_stats.mins
        arrays["norm_maxs"] = norm_stats.maxs
        arrays["norm_names"] = np.frombuffer(
            json.dumps(list(norm_stats.attribute_names)).encode(), dtype=np.uint8
        )
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with open(path, "wb") as fh:
        fh.write(buffer.getvalue())


def load_model(path: str):
    """Inverse of save_model; returns (MadeParams, NormStats or None).

    Builds the masks from the file's stored orderings and degrees.  Every
    check fails with a one-line ValueError naming the file: a file that is
    not an .npz archive, a format other than MODEL_FORMAT_VERSION, a missing
    array or header key, a header value of the wrong type or below its least
    value, an array of the wrong shape, a weight or stat that is not real
    floating point or not finite, an ordering that is not a permutation of
    1..D, a hidden degree outside [1, D-1], attribute names that are not a
    JSON list of D strings, and a min above its max.
    """
    from .data import NormStats

    try:
        payload = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        payload = None
    if not isinstance(payload, np.lib.npyio.NpzFile):
        raise ValueError(f"model file {path} is not an .npz archive")

    def fail(problem: str) -> ValueError:
        return ValueError(f"model file {path} {problem}")

    def need(table, key, kind):
        if key not in table:
            raise fail(f"has no {kind} {key!r}")
        return table[key]

    with payload:
        header_bytes = bytes(need(payload, "header_json", "array"))
        try:
            header = json.loads(header_bytes.decode())
        except ValueError:  # not UTF-8, or not JSON
            header = None
        if not isinstance(header, dict):
            raise fail("has a header that is not a JSON object")
        version = need(header, "format_version", "header key")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise fail(f"has unsupported model format version {version!r}")
        for key, (kind, least) in _HEADER_KEYS.items():
            value = need(header, key, "header key")
            if type(value) is not kind:
                raise fail(f"header key {key!r} is {value!r}, expected {_TYPE_NAMES[kind]}")
            if least is not None and value < least:
                raise fail(f"header key {key!r} is {value}, expected at least {least}")
        head, k = header["head"], header["n_components"]
        if head not in (GAUSSIAN_MIXTURE, BERNOULLI):
            raise fail(f"has unknown head {head!r}")
        if head == GAUSSIAN_MIXTURE and k < 1:
            raise fail(f"mixture head has {k} components")
        d, h = header["n_attributes"], header["n_hidden"]
        n_orderings, n_masks = header["n_orderings"], header["n_masks_per_ordering"]
        width = d * _head_width(head, k)
        # w_out and b_out in the file's column order, d * P + j
        expected = {"w_in": (d, h), "b_in": (h,), "w_out": (h, width), "b_out": (width,),
                    "orderings": (n_orderings, d), "hidden_degrees": (n_orderings * n_masks, h)}
        if header["has_norm_stats"]:
            expected.update(norm_mins=(d,), norm_maxs=(d,))
        arrays = {}
        for name, shape in expected.items():
            arr = arrays[name] = need(payload, name, "array")
            if arr.shape != shape:
                raise fail(f"array {name} has shape {arr.shape}, expected {shape}")
            if name in ("orderings", "hidden_degrees"):
                if arr.dtype.kind not in "iu":
                    raise fail(f"array {name} has dtype {arr.dtype}, expected integers")
            elif not np.issubdtype(arr.dtype, np.floating):
                raise fail(f"array {name} has dtype {arr.dtype}, expected real floating point")
            elif not np.isfinite(arr).all():
                raise fail(f"array {name} holds a non-finite value")
        orderings, degrees = arrays["orderings"], arrays["hidden_degrees"]
        if not (np.sort(orderings, axis=1) == np.arange(1, d + 1)).all():
            raise fail(f"array orderings holds a row that is not a permutation of 1..{d}")
        if not ((degrees >= 1) & (degrees <= d - 1)).all():
            raise fail(f"array hidden_degrees holds a degree outside [1, {d - 1}]")
        # made head-major before the masks, so the file's copies are freed first
        w_out = _head_major(arrays.pop("w_out"), d)
        b_out = _head_major(arrays.pop("b_out"), d)
        masks = _mask_set(orderings, degrees, n_masks, header["mask_seed"])
        params = MadeParams(
            w_in=arrays["w_in"],
            b_in=arrays["b_in"],
            w_out=w_out,
            b_out=b_out,
            head=head,
            n_components=k,
            masks=masks,
        )
        stats = None
        if header["has_norm_stats"]:
            names_bytes = bytes(need(payload, "norm_names", "array"))
            try:
                names = json.loads(names_bytes.decode())
            except ValueError:  # not UTF-8, or not JSON
                names = None
            if not (isinstance(names, list) and len(names) == d
                    and all(isinstance(name, str) for name in names)):
                raise fail(f"array norm_names is not a JSON list of {d} strings")
            above = np.flatnonzero(arrays["norm_mins"] > arrays["norm_maxs"])
            if above.size:
                raise fail(f"array norm_mins exceeds norm_maxs at attribute {above[0]}")
            stats = NormStats(tuple(names), arrays["norm_mins"], arrays["norm_maxs"])
    return params, stats
