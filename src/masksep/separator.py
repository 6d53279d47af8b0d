"""Trainable mask-proposal network with exact, hand-derived gradients.

Per time-frequency bin the input is the flattened context x context patch
of the log-compressed mixture magnitude (zero-padded at the edges), the
bin's normalized frequency coordinate, and the query embedding. Two
affine layers with a softplus rectifier in between and a sigmoid output
map this to a proposal in (0,1). The architecture is deliberately tiny so
every gradient can be checked against finite differences.

The frequency coordinate is what lets a per-bin model express
query-conditional band gates; a local magnitude patch alone carries no
absolute-frequency information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .optim import AdamWState, adamw_step

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class SeparatorModel:
    """Weights plus architecture hyperparameters.

    ``version`` counts parameter mutations (used to invalidate stale
    forward caches).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    context: int
    hidden_width: int
    query_dim: int
    k_sources: int = 1
    version: int = 0

    @property
    def input_dim(self) -> int:
        # patch + frequency coordinate + query
        return self.context * self.context + 1 + self.query_dim

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def bump_version(self) -> None:
        self.version += 1


@dataclass
class ForwardCache:
    """Intermediates a matching backward pass needs."""

    features: np.ndarray
    pre1: np.ndarray
    hidden: np.ndarray
    proposal_flat: np.ndarray
    grid_shape: tuple
    model_ref: object
    model_version: int

    def matches(self, model) -> bool:
        return self.model_ref is model and self.model_version == model.version


@dataclass
class ParamGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_model(
    rng: np.random.Generator,
    context: int = 5,
    hidden_width: int = 32,
    query_dim: int = 16,
    k_sources: int = 1,
    dtype=np.float64,
) -> SeparatorModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Forward/backward run in the parameter dtype; float32 halves training
    cost while gradient-checked paths stay on the float64 default.
    """
    if context < 1 or context % 2 == 0:
        raise ValueError("context must be a positive odd integer")
    in_dim = context * context + 1 + query_dim
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden_width)
    return SeparatorModel(
        w1=rng.uniform(-s1, s1, size=(in_dim, hidden_width)).astype(dtype),
        b1=rng.uniform(-s1, s1, size=hidden_width).astype(dtype),
        w2=rng.uniform(-s2, s2, size=(hidden_width, k_sources)).astype(dtype),
        b2=rng.uniform(-s2, s2, size=k_sources).astype(dtype),
        context=context,
        hidden_width=hidden_width,
        query_dim=query_dim,
        k_sources=k_sources,
    )


def _softplus(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)): stable for any magnitude
    out = np.abs(x)
    np.negative(out, out)
    np.exp(out, out)
    np.log1p(out, out)
    out += np.maximum(x, 0.0)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow for very negative inputs; the result saturates to
    # exactly 0 there, which is the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def patch_features(log_mag: np.ndarray, context: int) -> np.ndarray:
    """The context x context patch around every bin of the zero-padded
    grid, as an F x T x context x context view (no copy)."""
    half = context // 2
    f, t = log_mag.shape
    padded = np.zeros((f + 2 * half, t + 2 * half), dtype=log_mag.dtype)
    padded[half : half + f, half : half + t] = log_mag
    return np.lib.stride_tricks.sliding_window_view(padded, (context, context))


def forward(model: SeparatorModel, log_mag: np.ndarray, query: np.ndarray):
    """Proposal tensor (F, T, K) plus the cache backward() consumes.

    Computation runs in the model's parameter dtype.
    """
    dtype = model.w1.dtype
    log_mag = np.asarray(log_mag, dtype=dtype)
    query = np.asarray(query, dtype=dtype)
    if log_mag.ndim != 2:
        raise ValueError(f"log_mag must be F x T, got shape {log_mag.shape}")
    if query.shape != (model.query_dim,):
        raise ValueError(
            f"query dimension {query.shape} does not match model "
            f"query_dim {model.query_dim}"
        )
    f, t = log_mag.shape
    c = model.context
    n_patch = c * c
    # row (i, j): the flattened patch around bin (i, j), i / (F - 1), query
    features = np.empty((f * t, model.input_dim), dtype=dtype)
    grid = features.reshape(f, t, model.input_dim)
    np.copyto(grid[:, :, :n_patch].reshape(f, t, c, c),
              patch_features(log_mag, c))
    grid[:, :, n_patch] = (np.arange(f, dtype=dtype) / max(f - 1, 1))[:, None]
    features[:, n_patch + 1 :] = query

    # pre1 and the output sigmoid keep their temporaries: formed in place,
    # they made separating a 513 x 257 mixture page-fault about 14 times as
    # often (glibc gave the heap top back after every call), which cost
    # more than the temporaries do
    pre1 = features @ model.w1 + model.b1
    hidden = _softplus(pre1)
    pre2 = hidden @ model.w2
    pre2 += model.b2
    proposal_flat = _sigmoid(pre2)
    cache = ForwardCache(
        features=features,
        pre1=pre1,
        hidden=hidden,
        proposal_flat=proposal_flat,
        grid_shape=(f, t, model.k_sources),
        model_ref=model,
        model_version=model.version,
    )
    return proposal_flat.reshape(f, t, model.k_sources), cache


def backward(
    model: SeparatorModel, cache: ForwardCache, upstream: np.ndarray
) -> ParamGrads:
    """Exact reverse-mode gradients of sum(upstream * proposal)."""
    if not cache.matches(model):
        raise ValueError("stale cache: model parameters changed since forward()")
    upstream = np.asarray(upstream, dtype=model.w1.dtype)
    if upstream.shape != cache.grid_shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != proposal shape {cache.grid_shape}"
        )
    n = cache.features.shape[0]
    up_flat = upstream.reshape(n, model.k_sources)

    p = cache.proposal_flat
    d_pre2 = up_flat * p * (1.0 - p)
    d_w2 = cache.hidden.T @ d_pre2
    d_b2 = d_pre2.sum(axis=0)
    # d_hidden = d_pre2 @ w2.T, summed over the K sources without a GEMM:
    # for K = 1 it is the rank-1 outer product, the same single product
    # per entry a K = 1 GEMM computes, at a fraction of its overhead
    d_hidden = np.einsum("nk,hk->nh", d_pre2, model.w2)
    # d_pre1 = d_hidden * sigmoid(pre1), the sigmoid formed in one buffer
    sig = np.negative(cache.pre1)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    d_hidden *= sig
    d_pre1 = d_hidden
    d_w1 = cache.features.T @ d_pre1
    d_b1 = d_pre1.sum(axis=0)
    return ParamGrads(w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2)


def apply_adamw_step(
    model: SeparatorModel,
    grads: ParamGrads,
    state: AdamWState,
    lr: float = 2e-4,
    weight_decay: float = 0.01,
    clip_norm: float = 1.0,
) -> float:
    """Clip by global norm, then AdamW in place. Returns the pre-clip norm."""
    norm = adamw_step(
        model.params(),
        grads.as_dict(),
        state,
        lr=lr,
        weight_decay=weight_decay,
        clip_norm=clip_norm,
    )
    model.bump_version()
    return norm


def save_model(path, model: SeparatorModel) -> None:
    checkpoint.save_checkpoint(
        path,
        kind="separator",
        hparams={
            "context": model.context,
            "hidden_width": model.hidden_width,
            "query_dim": model.query_dim,
            "k_sources": model.k_sources,
        },
        arrays=model.params(),
    )


def load_model(path) -> SeparatorModel:
    """Load a separator checkpoint; ValueError naming the path and the
    hparam or array when one is missing or an array's shape disagrees with
    the hparams."""
    kind, hparams, arrays = checkpoint.load_checkpoint(path)
    if kind != "separator":
        raise ValueError(f"{path} holds a {kind!r} checkpoint, not a separator")
    try:
        dims = {key: int(hparams[key])
                for key in ("context", "hidden_width", "query_dim", "k_sources")}
    except KeyError as exc:
        raise ValueError(
            f"{path}: separator checkpoint has no hparam {exc.args[0]}"
        ) from None
    model = SeparatorModel(**{name: arrays.get(name) for name in PARAM_NAMES},
                           **dims)
    hidden, k = model.hidden_width, model.k_sources
    expected = {"w1": (model.input_dim, hidden), "b1": (hidden,),
                "w2": (hidden, k), "b2": (k,)}
    for name, shape in expected.items():
        arr = getattr(model, name)
        if arr is None:
            raise ValueError(f"{path}: separator checkpoint has no array {name}")
        if arr.shape != shape:
            raise ValueError(
                f"{path}: array {name} has shape {arr.shape}, but the hparams "
                f"give {shape}"
            )
    return model


def warm_start_supervised(
    model: SeparatorModel,
    batches,
    state: AdamWState,
    lr: float = 1e-2,
    weight_decay: float = 0.0,
    clip_norm: float = 1.0,
) -> list[float]:
    """Supervised pretraining: weighted binary cross-entropy toward ideal
    ratio masks, the same objective family the supervised baseline uses.

    ``batches`` yields lists of (log_mag, query, target_mask, weight)
    tuples; weight is a per-bin array summing to 1 (commonly normalized
    mixture magnitude, so near-silent bins with noise-valued mask targets
    do not drown the loss). Returns the per-batch losses.
    """
    losses = []
    for batch in batches:
        total_grads = None
        loss = 0.0
        for log_mag, query, target, weight in batch:
            proposal, cache = forward(model, log_mag, query)
            p = np.clip(proposal, 1e-7, 1.0 - 1e-7)
            loss += -float(
                np.sum(weight * (target * np.log(p)
                                 + (1.0 - target) * np.log1p(-p)))
            ) / len(batch)
            # dWBCE/dP = w (P - y) / (P (1-P)); the sigmoid factor inside
            # backward cancels the denominator, keeping this conditioned
            upstream = weight * (p - target) / (p * (1.0 - p)) / len(batch)
            grads = backward(model, cache, upstream)
            if total_grads is None:
                total_grads = grads
            else:
                for name in PARAM_NAMES:
                    setattr(total_grads, name,
                            getattr(total_grads, name) + getattr(grads, name))
        apply_adamw_step(
            model, total_grads, state, lr=lr, weight_decay=weight_decay,
            clip_norm=clip_norm,
        )
        losses.append(loss)
    return losses
