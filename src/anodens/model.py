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
from dataclasses import dataclass

import numpy as np

GAUSSIAN_MIXTURE = "gaussian_mixture"
BERNOULLI = "bernoulli"

# Floor added to the softplus-linked scale so variances stay >= SIGMA_MIN**2.
SIGMA_MIN = 1e-3

LOG_2PI = float(np.log(2.0 * np.pi))

MODEL_FORMAT_VERSION = 1


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis))
    return out + np.squeeze(amax, axis=axis)


def _softplus(a: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, a)


def sigmoid(s):
    """1 / (1 + exp(-s)), overflow-safe for arbitrarily large |s|."""
    arr = np.asarray(s, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    es = np.exp(arr[~pos])
    out[~pos] = es / (1.0 + es)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class MaskSet:
    """Connectivity masks for all (ordering, degree-assignment) ensemble members.

    orderings[r, j] is the 1-based position of attribute j under ordering r;
    ordering 0 is always the identity.  hidden_degrees[m, h] is drawn
    uniformly from {1, ..., D-1}.  Connectivity: input j feeds hidden unit h
    iff position(j) <= degree(h); hidden h feeds the output group of
    attribute d iff degree(h) < position(d).
    """

    n_attributes: int
    n_hidden: int
    n_orderings: int
    n_masks_per_ordering: int
    seed: int
    orderings: np.ndarray  # (n_orderings, D) int64
    hidden_degrees: np.ndarray  # (n_members, H) int64
    input_masks: np.ndarray  # (n_members, D, H) float64 in {0, 1}
    output_masks: np.ndarray  # (n_members, H, D) float64 in {0, 1}

    @property
    def n_members(self) -> int:
        return self.n_orderings * self.n_masks_per_ordering

    def ordering_of_member(self, member: int) -> np.ndarray:
        return self.orderings[member // self.n_masks_per_ordering]


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
    position = np.repeat(orderings, n_masks_per_ordering, axis=0)  # (n_members, D)
    input_masks = (position[:, :, None] <= degrees[:, None, :]).astype(np.float64)
    output_masks = (degrees[:, :, None] < position[:, None, :]).astype(np.float64)
    return MaskSet(
        n_attributes=d,
        n_hidden=h,
        n_orderings=n_orderings,
        n_masks_per_ordering=n_masks_per_ordering,
        seed=seed,
        orderings=orderings,
        hidden_degrees=degrees,
        input_masks=input_masks,
        output_masks=output_masks,
    )


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
    """All trainable weights plus the mask ensemble and head configuration."""

    w_in: np.ndarray  # (D, H)
    b_in: np.ndarray  # (H,)
    w_out: np.ndarray  # (H, D * head_width)
    b_out: np.ndarray  # (D * head_width,)
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
        # raw outputs per attribute: K weights + K means + K scales, or one logit
        return 3 * self.n_components if self.head == GAUSSIAN_MIXTURE else 1

    def trainable(self) -> dict[str, np.ndarray]:
        return {"w_in": self.w_in, "b_in": self.b_in, "w_out": self.w_out, "b_out": self.b_out}

    def copy(self) -> "MadeParams":
        return MadeParams(
            self.w_in.copy(),
            self.b_in.copy(),
            self.w_out.copy(),
            self.b_out.copy(),
            self.head,
            self.n_components,
            self.masks,
        )


def init_params(
    masks: MaskSet, head: str = GAUSSIAN_MIXTURE, n_components: int = 3, seed: int = 0
) -> MadeParams:
    """Glorot-uniform weights (before masking), zero biases."""
    if head not in (GAUSSIAN_MIXTURE, BERNOULLI):
        raise ValueError(f"unknown head {head!r}")
    if head == GAUSSIAN_MIXTURE and n_components < 1:
        raise ValueError("mixture needs at least one component")
    d, h = masks.n_attributes, masks.n_hidden
    width = 3 * n_components if head == GAUSSIAN_MIXTURE else 1
    rng = np.random.default_rng(seed)
    lim_in = np.sqrt(6.0 / (d + h))
    lim_out = np.sqrt(6.0 / (h + d * width))
    return MadeParams(
        w_in=rng.uniform(-lim_in, lim_in, size=(d, h)),
        b_in=np.zeros(h),
        w_out=rng.uniform(-lim_out, lim_out, size=(h, d * width)),
        b_out=np.zeros(d * width),
        head=head,
        n_components=n_components,
        masks=masks,
    )


def choose_head(attribute_kinds) -> str:
    """Bernoulli head only when every attribute is binary, otherwise mixtures."""
    return BERNOULLI if all(k == "binary" for k in attribute_kinds) else GAUSSIAN_MIXTURE


@dataclass
class ForwardCache:
    """Intermediates of a full-ensemble forward pass, kept for backprop."""

    x: np.ndarray  # (B, D)
    masked_w_out: np.ndarray  # (M, H, D * P) output weights under each member's mask
    pre: np.ndarray  # (M, B, H) hidden pre-activations
    hidden: np.ndarray  # (M, B, H)
    raw: np.ndarray  # (M, B, D, P)
    member_logdensity: np.ndarray  # (M, B)
    member_weight: np.ndarray  # (M, B) softmax of member log-densities
    log_density: np.ndarray  # (B,)
    # gaussian head intermediates (None for bernoulli)
    mix_weights: np.ndarray | None = None  # (M, B, D, K)
    means: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    responsibilities: np.ndarray | None = None  # softmax over components
    # bernoulli head intermediate
    probs: np.ndarray | None = None  # (M, B, D)


def _validate_input(x: np.ndarray, n_attributes: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_attributes:
        raise ValueError(f"expected vectors of length {n_attributes}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    return x


def _members_forward(params: MadeParams, x: np.ndarray, members: slice = slice(None)):
    """Run the selected ensemble members on a validated batch.

    Returns (masked_w_out (M', H, D*P), pre (M', B, H), hidden (M', B, H),
    raw (M', B, D, P)) for the M' members in `members`.
    """
    masks = params.masks
    h, d, p = params.n_hidden, params.n_attributes, params.head_width
    out_masks = masks.output_masks[members]  # (M', H, D)
    n_members = out_masks.shape[0]
    pre = np.matmul(x, params.w_in * masks.input_masks[members]) + params.b_in
    hidden = np.maximum(pre, 0.0)
    # one mask entry per (hidden unit, attribute) gates all P outputs of that attribute
    masked_w_out = (params.w_out.reshape(h, d, p) * out_masks[..., None]).reshape(
        n_members, h, d * p
    )
    raw = (np.matmul(hidden, masked_w_out) + params.b_out).reshape(n_members, x.shape[0], d, p)
    return masked_w_out, pre, hidden, raw


def _mixture_link(raw: np.ndarray, k: int):
    """(log mixture weights, means, floored scales) from raw (..., 3K) head outputs."""
    logits = raw[..., :k]
    log_mix = logits - _logsumexp(logits, axis=-1)[..., None]
    sigmas = _softplus(raw[..., 2 * k :]) + SIGMA_MIN
    return log_mix, raw[..., k : 2 * k], sigmas


def forward_ensemble(params: MadeParams, x: np.ndarray) -> ForwardCache:
    """Run every ensemble member on a batch and assemble the mixture log-density."""
    x = _validate_input(x, params.n_attributes)
    masked_w_out, pre, hidden, raw = _members_forward(params, x)

    if params.head == GAUSSIAN_MIXTURE:
        log_mix, means, sigmas = _mixture_link(raw, params.n_components)
        z = (x[None, :, :, None] - means) / sigmas
        log_norm = -0.5 * LOG_2PI - np.log(sigmas) - 0.5 * z * z
        scored = log_mix + log_norm  # (M, B, D, K)
        log_cond = _logsumexp(scored, axis=-1)  # (M, B, D)
        responsibilities = np.exp(scored - log_cond[..., None])
        member_ld = log_cond.sum(axis=-1)  # (M, B)
        head_cache = dict(
            mix_weights=np.exp(log_mix),
            means=means,
            sigmas=sigmas,
            responsibilities=responsibilities,
        )
    else:
        logit = raw[..., 0]  # (M, B, D)
        # stable log-masses: log(phi) = -softplus(-t), log(1-phi) = -softplus(t)
        log_cond = -(x[None, :, :] * _softplus(-logit) + (1.0 - x[None, :, :]) * _softplus(logit))
        member_ld = log_cond.sum(axis=-1)
        head_cache = dict(probs=sigmoid(logit))

    total = _logsumexp(member_ld, axis=0)  # (B,)
    member_weight = np.exp(member_ld - total[None, :])
    log_density = total - np.log(params.masks.n_members)
    return ForwardCache(
        x=x,
        masked_w_out=masked_w_out,
        pre=pre,
        hidden=hidden,
        raw=raw,
        member_logdensity=member_ld,
        member_weight=member_weight,
        log_density=log_density,
        **head_cache,
    )


def backprop_log_density(
    params: MadeParams, cache: ForwardCache, coeff: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradient of sum_i coeff[i] * log_density(x_i) w.r.t. every weight and bias.

    Masks are constants; masked-out weights receive exactly zero gradient.
    """
    masks = params.masks
    m, b = masks.n_members, cache.x.shape[0]
    h, d, p, k = params.n_hidden, params.n_attributes, params.head_width, params.n_components
    upstream = cache.member_weight * coeff[None, :]  # (M, B): d(obj)/d(member_ld)

    if params.head == GAUSSIAN_MIXTURE:
        u = upstream[:, :, None, None]
        resp = cache.responsibilities
        weighted = u * resp  # (M, B, D, K)
        diff = cache.x[None, :, :, None] - cache.means
        inv_sigma = 1.0 / cache.sigmas
        g_logits = u * (resp - cache.mix_weights)
        g_means = weighted * diff * inv_sigma * inv_sigma
        g_sigma = weighted * (diff * diff * inv_sigma * inv_sigma - 1.0) * inv_sigma
        # scale raw feeds sigma through a softplus link
        g_scale_raw = g_sigma * sigmoid(cache.raw[..., 2 * k :])
        raw_grad = np.concatenate([g_logits, g_means, g_scale_raw], axis=-1)
    else:
        g_logit = upstream[:, :, None] * (cache.x[None, :, :] - cache.probs)
        raw_grad = g_logit[..., None]

    raw_grad = raw_grad.reshape(m, b, d * p)
    member_w_out_grad = np.matmul(cache.hidden.transpose(0, 2, 1), raw_grad).reshape(m, h, d, p)
    w_out_grad = (member_w_out_grad * masks.output_masks[..., None]).sum(axis=0).reshape(h, d * p)
    b_out_grad = raw_grad.sum(axis=(0, 1))
    hidden_grad = np.matmul(raw_grad, cache.masked_w_out.transpose(0, 2, 1))
    pre_grad = hidden_grad * (cache.pre > 0.0)
    w_in_grad = (np.matmul(cache.x.T[None, :, :], pre_grad) * masks.input_masks).sum(axis=0)
    b_in_grad = pre_grad.sum(axis=(0, 1))
    return {"w_in": w_in_grad, "b_in": b_in_grad, "w_out": w_out_grad, "b_out": b_out_grad}


def forward_conditionals(params: MadeParams, x: np.ndarray, mask_index: int) -> ConditionalParams:
    """Per-attribute conditional parameters under one ensemble member."""
    x = _validate_input(x, params.n_attributes)
    if x.shape[0] != 1:
        raise ValueError("forward_conditionals expects a single instance")
    masks = params.masks
    if not 0 <= mask_index < masks.n_members:
        raise ValueError(f"mask index {mask_index} out of range [0, {masks.n_members})")
    raw = _members_forward(params, x, slice(mask_index, mask_index + 1))[3][0, 0]  # (D, P)
    if params.head == GAUSSIAN_MIXTURE:
        log_mix, means, sigmas = _mixture_link(raw, params.n_components)
        return ConditionalParams(
            head=GAUSSIAN_MIXTURE,
            mixture_weights=np.exp(log_mix),
            means=means.copy(),
            variances=sigmas * sigmas,
        )
    probs = sigmoid(raw[:, 0])
    # keep the open-interval contract even when the logit saturates in float64
    probs = np.clip(probs, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return ConditionalParams(head=BERNOULLI, bernoulli_probs=probs)


def log_density_batch(params: MadeParams, x: np.ndarray) -> np.ndarray:
    """Exact log-density of each row under the uniform ensemble mixture."""
    return forward_ensemble(params, x).log_density


def log_density(params: MadeParams, x: np.ndarray) -> float:
    return float(log_density_batch(params, x)[0])


def anomaly_score_batch(params: MadeParams, x: np.ndarray) -> np.ndarray:
    """Negative log-density; higher means more anomalous."""
    return -log_density_batch(params, x)


def anomaly_score(params: MadeParams, x: np.ndarray) -> float:
    return float(anomaly_score_batch(params, x)[0])


def save_model(path: str, params: MadeParams, norm_stats=None) -> None:
    """Persist weights plus everything needed to rebuild masks (a seeded recipe)."""
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "head": params.head,
        "n_components": params.n_components,
        "n_attributes": params.masks.n_attributes,
        "n_hidden": params.masks.n_hidden,
        "n_orderings": params.masks.n_orderings,
        "n_masks_per_ordering": params.masks.n_masks_per_ordering,
        "mask_seed": params.masks.seed,
        "has_norm_stats": norm_stats is not None,
    }
    arrays = {
        "header_json": np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
        "w_in": params.w_in.astype(np.float64),
        "b_in": params.b_in.astype(np.float64),
        "w_out": params.w_out.astype(np.float64),
        "b_out": params.b_out.astype(np.float64),
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
    """Inverse of save_model; returns (MadeParams, NormStats or None)."""
    from .data import NormStats

    with np.load(path, allow_pickle=False) as payload:
        header = json.loads(bytes(payload["header_json"]).decode())
        if header["format_version"] != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {header['format_version']}")
        masks = build_masks(
            header["n_attributes"],
            header["n_hidden"],
            header["n_orderings"],
            header["n_masks_per_ordering"],
            header["mask_seed"],
        )
        params = MadeParams(
            w_in=payload["w_in"],
            b_in=payload["b_in"],
            w_out=payload["w_out"],
            b_out=payload["b_out"],
            head=header["head"],
            n_components=int(header["n_components"]),
            masks=masks,
        )
        stats = None
        if header["has_norm_stats"]:
            names = tuple(json.loads(bytes(payload["norm_names"]).decode()))
            stats = NormStats(names, payload["norm_mins"], payload["norm_maxs"])
    return params, stats
