"""Reference implementations the tests use as oracles.

- Single-estimate scorers on the metrics module's own kernels: SI-SDR of
  one estimate, and the SDR/SIR/SAR decomposition of one estimate against
  a reference set. The package scores through ``metrics.si_sdri``, which
  runs the same kernels on signals it has already cropped and zero-meaned.
- The policy step's rollout one mask at a time: one generator call, one
  reconstruction and one embedding per mask. The package batches these
  stages over every mask of a step and must match this bit for bit.
"""

import numpy as np

from masksep.embed import _feature_layout, unit_normalize
from masksep.metrics import _bss_prepped, _prep, _si_sdr_prepped
from masksep.policy import kl_divergence, log_prob, params_from_proposal
from masksep.reward import cosine_sim
from masksep.rl import (
    SampledItem,
    TrainStepReport,
    normalize_advantages,
    objective_and_grads,
)
from masksep.separator import apply_adamw_step, forward
from masksep.spectral import Mask, Spectrogram, istft, stft


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


def reconstruct_one(mix, m: Mask):
    """One mask under its mixture's phase, resynthesized."""
    masked = Spectrogram(
        bins=np.multiply(m.values, mix.bins, order="F"),
        config=mix.config,
        sample_rate=mix.sample_rate,
        num_samples=mix.num_samples,
    )
    return istft(masked)


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


def train_step_per_item(model, opt_state, items, cfg, rng, embedder,
                        step_index=0, carry_forward=True):
    """rl.train_step with its rollout run item by item and mask by mask.
    Without ``carry_forward`` the items keep no forward cache, so the
    objective forwards the live model again and scores every mask under
    the old and the new policy."""
    kappa = cfg.kappa_at(step_index)

    sampled_batch = []
    rewards_flat = []
    for item in items:
        # one forward serves sampling now and the gradient pass later
        proposal_old, cache = forward(model, item.log_mag, item.query)
        params_old = params_from_proposal(proposal_old, kappa)
        masks = []
        for _ in range(cfg.mc_samples):
            mask, _ = sample_mask(params_old, rng, cfg.sample_clamp)
            wav = reconstruct_one(item.mix_spec, Mask(mask))
            masks.append(mask)
            rewards_flat.append(mask_reward(embedder, item, wav))
        sampled_batch.append(
            SampledItem(
                item=item,
                params_old=params_old,
                masks=masks,
                cache=cache if carry_forward else None,
            )
        )

    mean_reward = float(np.mean(rewards_flat))
    norm_adv = normalize_advantages(rewards_flat, cfg.grpo_eps)
    pos = 0
    for sampled in sampled_batch:
        k = len(sampled.masks)
        sampled.advantages = [float(a) for a in norm_adv[pos : pos + k]]
        pos += k

    result = objective_and_grads(model, sampled_batch, cfg, kappa)
    grad_norm = apply_adamw_step(
        model,
        result.grads,
        opt_state,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        clip_norm=cfg.clip_norm,
    )

    lead = sampled_batch[0]
    proposal_post, _ = forward(model, lead.item.log_mag, lead.item.query,
                               keep_cache=False)
    kl_post = kl_divergence(params_from_proposal(proposal_post, kappa),
                            lead.params_old)

    return TrainStepReport(
        step=step_index,
        mean_reward=mean_reward,
        objective=result.objective,
        surrogate=result.surrogate,
        entropy=result.entropy,
        ratio_mean=result.ratio_mean,
        frac_clipped=result.frac_clipped,
        grad_norm=grad_norm,
        kl_post=kl_post,
    )


def mean_reward_per_item(model, items, embedder) -> float:
    """rl.evaluate_mean_reward, one item at a time."""
    total = 0.0
    for item in items:
        proposal, _ = forward(model, item.log_mag, item.query, keep_cache=False)
        wav = reconstruct_one(item.mix_spec, Mask(proposal))
        total += mask_reward(embedder, item, wav)
    return total / len(items)
