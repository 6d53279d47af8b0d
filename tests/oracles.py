"""Reference implementations the tests use as oracles.

- Single-estimate scorers on the metrics module's own kernels: SI-SDR of
  one estimate, and the SDR/SIR/SAR decomposition of one estimate against
  a reference set. The package scores through ``metrics.si_sdri``, which
  runs the same kernels on signals it has already cropped and zero-meaned.
- The policy step's rollout one mask at a time: one generator call, one
  reconstruction and one embedding per mask. The package batches these
  stages over every mask of a step and must match this bit for bit.
- The supervised warm start with every step's items drawn before the
  first step and every item's bin weights built before that. The package
  draws and weights as it goes and must match this bit for bit.
"""

from dataclasses import replace

import numpy as np

from masksep.embed import _feature_layout, unit_normalize
from masksep.metrics import _bss_prepped, _prep, _si_sdr_prepped
from masksep.optim import AdamWState
from masksep.policy import log_prob, params_from_proposal
from masksep.reward import cosine_sim
from masksep.rl import Rollout
from masksep.separator import apply_adamw_step, backward, forward
from masksep.spectral import Spectrogram, Waveform, reconstruct, stft


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR in dB. No temporal delay search."""
    e, r = _prep(est, ref)
    if float(np.dot(r, r)) == 0.0:
        raise ValueError("reference has zero energy; guard upstream")
    return _si_sdr_prepped(e, r)


def bss_decompose(est, refs, target_index: int):
    """(SDR, SIR, SAR) of an estimate against a reference set.

    The target part is the scalar projection onto the chosen reference;
    interference is the rest of the projection onto span{refs}; artifacts
    are whatever lies outside that span.
    """
    if not 0 <= target_index < len(refs):
        raise ValueError(f"target index {target_index} out of range")
    prepped = _prep(est, *refs)
    return _bss_prepped(prepped[0], prepped[1:], target_index)


def sample_mask(params, rng, clamp_eps):
    """(mask, log-density) of one draw from a Beta policy."""
    draw = rng.beta(params.alpha, params.beta)
    mask = np.clip(draw, clamp_eps, 1.0 - clamp_eps)
    return mask, log_prob(params, mask)


def inverse_stft(s, target_len=None):
    """The first ``target_len`` samples (by default s.num_samples) of the
    weighted overlap-add inverse of a spectrogram: its reconstruction under
    a ones mask, which multiplies every bin exactly."""
    if target_len is not None:
        s = replace(s, num_samples=target_len)
    return reconstruct([s], [np.ones(s.bins.shape)])[0]


def reconstruct_one(mix, m):
    """One F x T mask under its mixture's phase, resynthesized."""
    masked = Spectrogram(
        bins=np.multiply(m, mix.bins, order="F"),
        config=mix.config,
        sample_rate=mix.sample_rate,
        num_samples=mix.num_samples,
    )
    return Waveform(inverse_stft(masked), mix.sample_rate)


def audio_features(embedder, w):
    """The audio embedder's features of one waveform, from its own STFT."""
    if len(w) < embedder.fft_size:
        raise ValueError(
            f"waveform too short for the embedder: {len(w)} < {embedder.fft_size}"
        )
    cfg, freqs, band_idx = _feature_layout(
        embedder.sample_rate, embedder.n_bands, embedder.fft_size,
        embedder.hop, embedder.fmin
    )
    spec = stft(w, cfg)
    mag = np.abs(spec.bins)
    power = mag**2
    total = power.sum()
    if total <= 0.0:
        raise ValueError("cannot embed a zero-energy waveform")

    per_freq = power.sum(axis=1)
    bands = np.bincount(band_idx, weights=per_freq, minlength=embedder.n_bands)
    band_frac = bands / total

    frame_norm = np.linalg.norm(mag, axis=0)
    diff = np.linalg.norm(np.diff(mag, axis=1), axis=0)
    denom = frame_norm[1:] + frame_norm[:-1]
    flux = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0.0)
    centroid = float((freqs * per_freq).sum() / total) / (embedder.sample_rate / 2.0)

    return np.concatenate(
        [band_frac, [float(flux.mean()), float(flux.std()), centroid]]
    )


def audio_embedding(embedder, w):
    return unit_normalize(embedder.projection @ audio_features(embedder, w))


def mask_reward(embedder, item, waveform) -> float:
    """The reward of one reconstruction; silence scores -1.0."""
    if float(np.max(np.abs(waveform.samples))) == 0.0:
        return -1.0
    return cosine_sim(audio_embedding(embedder, waveform), item.reward_target)


def rollout_per_mask(model, items, cfg, rng, embedder, kappa,
                     carry_forward=True):
    """rl.rollout item by item and mask by mask: one generator call, one
    reconstruction and one embedding per mask. Without ``carry_forward``
    the items keep no forward cache, so the update takes the live-forward
    path."""
    policies, stacks, rewards, caches = [], [], [], []
    for item in items:
        proposal, cache = forward(model, item.log_mag, item.query)
        params = params_from_proposal(proposal, kappa)
        masks = []
        for _ in range(cfg.mc_samples):
            mask, _ = sample_mask(params, rng, cfg.sample_clamp)
            wav = reconstruct_one(item.mix_spec, mask)
            masks.append(mask)
            rewards.append(mask_reward(embedder, item, wav))
        policies.append(params)
        stacks.append(np.stack(masks))
        caches.append(cache if carry_forward else None)
    return Rollout(list(items), kappa, policies, stacks,
                   np.array(rewards).reshape(len(items), -1), caches)


def mean_reward_per_item(model, items, embedder) -> float:
    """rl.evaluate_mean_reward, one item at a time."""
    total = 0.0
    for item in items:
        proposal, _ = forward(model, item.log_mag, item.query, keep_cache=False)
        wav = reconstruct_one(item.mix_spec, proposal)
        total += mask_reward(embedder, item, wav)
    return total / len(items)


def warm_start_upfront(model, train_items, cfg, rng):
    """rl.warm_start from batches drawn up front: each item's mixture
    magnitudes normalized to sum to 1 as bin weights, then every step's
    items, then one weighted-BCE AdamW step per batch."""
    weights = []
    for it in train_items:
        magnitude = np.abs(it.mix_spec.bins)
        weights.append(magnitude / max(magnitude.sum(), 1e-12))
    size = min(8, len(train_items))
    batches = [rng.choice(len(train_items), size=size, replace=False)
               for _ in range(cfg.warm_start_steps)]
    state = AdamWState()
    for batch in batches:
        total = None
        for i in batch:
            it = train_items[i]
            proposal, cache = forward(model, it.log_mag, it.query)
            p = np.clip(proposal, 1e-7, 1.0 - 1e-7)
            upstream = (weights[i] * (p - it.ideal_mask) / (p * (1.0 - p))
                        / len(batch))
            grads = backward(model, cache, upstream)
            total = grads if total is None else total + grads
        apply_adamw_step(model, total, state, lr=cfg.warm_start_lr,
                         weight_decay=0.0, clip_norm=1.0)
