"""Trainable mask-proposal network with exact, hand-derived gradients.

Per time-frequency bin the input is the flattened context x context patch
of the log-compressed mixture magnitude (zero-padded at the edges), the
bin's normalized frequency coordinate, and the query embedding. Two
affine layers with a softplus rectifier in between and a sigmoid output
map this to a proposal in (0,1). The architecture is deliberately tiny so
every gradient can be checked against finite differences.

The query is the same in every bin, so its share of the first layer is
one row, ``query @ w1[query rows] + b1``, that a constant-1 input picks
up: the first-layer products run over the patch, the frequency and that
1, and the query rows of the first-layer gradient are an outer product.

The frequency coordinate is what lets a per-bin model express
query-conditional band gates; a local magnitude patch alone carries no
absolute-frequency information.

A checkpoint records the sample rate the model separates at; every model
runs at the one STFT of ``pipeline.STFT``, which is not recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .optim import AdamWState, adamw_step

PARAM_NAMES = ("w1", "b1", "w2", "b2")
# what a checkpoint records besides the weights
HPARAMS = ("context", "hidden_width", "query_dim", "k_sources", "sample_rate")

# bins per slab of a cache-free forward: on a 513 x 256 float32 grid, 16
# rows a slab peak at 2.1 MB of numpy arrays, the cached forward at 32 MB;
# an odd frame count (513 x 257) takes 64-row slabs and peaks at 5.0 MB
SLAB_BINS = 4096


@dataclass
class SeparatorModel:
    """Weights, architecture hyperparameters and the sample rate.

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
    sample_rate: int
    version: int = 0
    # one output column: a query names one target. Checkpoints still record
    # the count as an hparam, and the benchmark's FLOP counters read it.
    k_sources = 1

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
    """Intermediates a matching backward pass needs, in the parameter
    dtype. ``padded`` is the zero-padded (F + c - 1) x (T + c - 1) input
    grid; backward rebuilds the features from it rather than keep them,
    since they take c^2 + 2 values a bin and the grid about one."""

    padded: np.ndarray
    hidden: np.ndarray
    proposal_flat: np.ndarray
    query: np.ndarray
    grid_shape: tuple
    model_ref: object
    model_version: int

    def matches(self, model) -> bool:
        return self.model_ref is model and self.model_version == model.version

    @property
    def features(self) -> np.ndarray:
        """Bins x [patch, frequency, 1], rebuilt from the grid: the
        transpose of the input-major matrix forward() multiplies."""
        return _rebuild_features(self.padded, self.grid_shape).T


@dataclass
class ParamGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def __add__(self, other: ParamGrads) -> ParamGrads:
        return ParamGrads(*(getattr(self, name) + getattr(other, name)
                            for name in PARAM_NAMES))


def init_model(
    rng: np.random.Generator,
    context: int = 5,
    hidden_width: int = 32,
    query_dim: int = 16,
    dtype=np.float64,
    sample_rate: int = 16000,
) -> SeparatorModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Forward/backward run in the parameter dtype, float32 or float64;
    float32 halves training cost while gradient-checked paths stay on the
    float64 default.
    """
    if context < 1 or context % 2 == 0:
        raise ValueError("context must be a positive odd integer")
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError(f"dtype {np.dtype(dtype)} is not float32 or float64")
    in_dim = context * context + 1 + query_dim
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden_width)
    return SeparatorModel(
        w1=rng.uniform(-s1, s1, size=(in_dim, hidden_width)).astype(dtype),
        b1=rng.uniform(-s1, s1, size=hidden_width).astype(dtype),
        w2=rng.uniform(-s2, s2, size=(hidden_width, 1)).astype(dtype),
        b2=rng.uniform(-s2, s2, size=1).astype(dtype),
        context=context,
        hidden_width=hidden_width,
        query_dim=query_dim,
        sample_rate=sample_rate,
    )


def _softplus(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # log1p(exp(x)), then x itself wherever x > L = ln(largest value) - 1:
    # there exp may overflow to inf, and softplus(x) rounds to x. Below L
    # this is bitwise max(log1p(exp(min(x, L))), x), since the log1p term
    # exceeds x by more than rounding. One reduction, before the exp,
    # decides whether any bin needs the fix-up, and only then is x copied,
    # so ``out`` may be x itself; NaN takes that branch and stays NaN,
    # and -inf gives 0.
    cap = x.dtype.type(np.log(np.finfo(x.dtype).max) - 1.0)
    over = not x.max() <= cap
    if over:
        x = x.copy()
    with np.errstate(over="ignore"):
        np.exp(x, out)
    np.log1p(out, out)
    if over:
        np.copyto(out, x, where=x > cap)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in place, with no temporaries; exp may overflow for
    # very negative inputs, and the result saturates to exactly 0 there,
    # which is the right limit
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _slab_rows(f: int, t: int) -> int:
    """Frequency rows per slab of a cache-free forward: whole rows, at
    least SLAB_BINS bins, and a bin count divisible by 64."""
    step = 64 // math.gcd(t, 64)
    return min(f, step * -(-SLAB_BINS // (step * t)))


def _frequency(f: int, dtype) -> np.ndarray:
    """Each frequency row's normalized coordinate, i / (F - 1)."""
    return np.arange(f, dtype=dtype) / max(f - 1, 1)


def _copy_patches(grid: np.ndarray, padded: np.ndarray, r0: int) -> None:
    """Write the patch rows of the (inputs, rows, T) ``grid`` view of
    input-major features, for the frequency rows from r0 on: row
    di * c + dj is the zero-padded grid shifted by the patch offset
    (di, dj). A strided copy pays per row, so the grid is copied once per
    column shift dj, and each row shift di of that copy is one contiguous
    run."""
    c = math.isqrt(grid.shape[0] - 2)
    _, rows, t = grid.shape
    shifted = np.empty((rows + c - 1, t), dtype=padded.dtype)
    for dj in range(c):
        shifted[...] = padded[r0 : r0 + rows + c - 1, dj : dj + t]
        for di in range(c):
            grid[di * c + dj] = shifted[di : di + rows]


def _rebuild_features(padded: np.ndarray, grid_shape: tuple) -> np.ndarray:
    """The whole grid's input-major [patch, frequency, 1] features, as
    forward() fills them, from its zero-padded grid."""
    f, t = grid_shape
    n_patch = (padded.shape[0] - f + 1) ** 2
    features = np.empty((n_patch + 2, f * t), dtype=padded.dtype)
    grid = features.reshape(n_patch + 2, f, t)
    _copy_patches(grid, padded, 0)
    grid[n_patch] = _frequency(f, padded.dtype)[:, None]
    grid[n_patch + 1] = 1.0
    return features


def forward(model: SeparatorModel, log_mag: np.ndarray, query: np.ndarray,
            keep_cache: bool = True):
    """Proposal grid (F, T) plus the cache backward() consumes.

    Computation runs in the model's parameter dtype. With ``keep_cache``
    false the cache is None, and the grid runs through the network in
    slabs of whole frequency rows that share one set of buffers; the
    proposal is bitwise the same either way.
    """
    dtype = model.w1.dtype
    log_mag = np.asarray(log_mag)
    query = np.array(query, dtype=dtype)
    if log_mag.ndim != 2 or 0 in log_mag.shape:
        raise ValueError(f"log_mag must be a non-empty F x T grid, got shape "
                         f"{log_mag.shape}")
    if query.shape != (model.query_dim,):
        raise ValueError(
            f"query dimension {query.shape} does not match model "
            f"query_dim {model.query_dim}"
        )
    f, t = log_mag.shape
    c = model.context
    n_patch = c * c
    # BLAS rounds a row of a product by where the row sits in its call: a
    # matrix-vector product rounds the last (rows mod 4) rows and a lone
    # row its own way, and a product with a few columns also by the size
    # of the call. So every slab but the last is a multiple of 64 bins,
    # the last one, ending where the grid ends, takes the remainder, and
    # the output layer is one matrix-vector product. The first layer's
    # query rows and bias are summed into one row of w_eff before any bin
    # sees them, so its bits differ in the last place from a product over
    # every input plus a bias pass.
    slab = f if keep_cache else _slab_rows(f, t)
    bounds = list(range(0, f - slab + 1, slab)) + [f]
    cap = (f - bounds[-2]) * t
    w_eff = np.concatenate([model.w1[: n_patch + 1],
                            (query @ model.w1[n_patch + 1 :] + model.b1)[None]])
    # input-major features, one row per input and one column per bin of a
    # slab: the patch rows (see _copy_patches), then i / (F - 1), then a
    # constant 1 that picks up w_eff's last row. BLAS packs a transposed
    # operand as it packs a row-major one, so the first layer rounds as
    # the bin-major product does.
    features = np.empty((n_patch + 2, cap), dtype=dtype)
    features[n_patch + 1] = 1.0
    hidden = np.empty((cap, model.hidden_width), dtype=dtype)
    pre2 = np.empty(f * t, dtype=dtype)
    half = c // 2
    padded = np.zeros((f + 2 * half, t + 2 * half), dtype=dtype)
    padded[half : half + f, half : half + t] = log_mag
    freq = _frequency(f, dtype)
    for r0, r1 in zip(bounds, bounds[1:]):
        n = (r1 - r0) * t
        grid = features[:, :n].reshape(n_patch + 2, r1 - r0, t)
        _copy_patches(grid, padded, r0)
        grid[n_patch] = freq[r0:r1, None]
        # the first-layer product lands in the activation buffer, and the
        # softplus runs in place there
        h = hidden[:n]
        np.matmul(features[:, :n].T, w_eff, out=h)
        _softplus(h, out=h)
        out = pre2[r0 * t : r1 * t]
        np.matmul(hidden[:n], model.w2[:, 0], out=out)
        out += model.b2
    proposal_flat = _sigmoid(pre2)
    proposal = proposal_flat.reshape(f, t)
    if not keep_cache:
        return proposal, None
    cache = ForwardCache(
        padded=padded,
        hidden=hidden,
        proposal_flat=proposal_flat,
        query=query,
        grid_shape=(f, t),
        model_ref=model,
        model_version=model.version,
    )
    return proposal, cache


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
    p = cache.proposal_flat
    d_pre2 = upstream.reshape(-1) * p * (1.0 - p)
    d_w2 = (cache.hidden.T @ d_pre2)[:, None]
    d_b2 = d_pre2.sum(keepdims=True)
    # d_pre1 = (d_pre2 @ w2.T) * sigmoid(pre1), with sigmoid(x) =
    # 1 - exp(-softplus(x)) = -expm1(-hidden) read from the cached
    # activation. Its rank-1 factor moves onto the product's operands:
    # d_pre2 scales the [patch, frequency, 1] rows, -w2 the columns of
    # the result. One product gives the patch and frequency rows of d_w1
    # and, from the constant 1, d_b1; the query rows of d_w1 are the
    # query times d_b1. The scaled rows are written in place over features
    # rebuilt from the cached grid, the bits of features.T * d_pre2
    sig = np.negative(cache.hidden)
    np.expm1(sig, out=sig)
    n_fixed = model.context * model.context + 1
    scaled = _rebuild_features(cache.padded, cache.grid_shape)
    scaled *= d_pre2
    d_fixed = scaled @ sig
    d_fixed *= -model.w2[:, 0]
    d_b1 = d_fixed[n_fixed]
    d_w1 = np.concatenate([d_fixed[:n_fixed], np.outer(cache.query, d_b1)])
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
    hparams = {name: getattr(model, name) for name in HPARAMS}
    checkpoint.save_checkpoint(path, "separator", hparams, model.params())


def _shapes(context, hidden_width, query_dim, k_sources, sample_rate) -> dict:
    """The array shapes a separator checkpoint's hparams give; ValueError
    for more than one output column or an even context (see init_model)."""
    if k_sources != 1:
        raise ValueError(f"hparam k_sources is {k_sources}, not 1")
    if context % 2 == 0:
        raise ValueError(f"hparam context is {context}, not odd")
    return {"w1": (context * context + 1 + query_dim, hidden_width),
            "b1": (hidden_width,), "w2": (hidden_width, 1), "b2": (1,)}


def load_model(path) -> SeparatorModel:
    """Load a separator checkpoint through checkpoint.load_checked."""
    dims, arrays = checkpoint.load_checked(
        path, "separator", dict.fromkeys(HPARAMS, int), _shapes)
    del dims["k_sources"]
    return SeparatorModel(**arrays, **dims)

