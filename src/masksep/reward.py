"""Scalar rewards in a shared embedding space, mask -> waveform -> embedding
-> cosine, for the policy step, validation and item preparation. A mask is
a plain F x T array. The target is one modality's embedding, the average of
all three ("mixup"), or their elementwise product ("pooled");
``modality_vector`` makes that choice for the reward target and for the
separator's query alike.
"""

from __future__ import annotations

import numpy as np

from .spectral import reconstruct

# legal values of RlConfig.query_modality and RlConfig.reward_mode
QUERY_MODALITIES = ("audio", "text", "video", "mixup")
REWARD_MODES = QUERY_MODALITIES + ("pooled",)
REWARD_BATCH_BINS = 1 << 20  # masked bins reconstructed and embedded at once


def _as_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def cosine_sim(u, v) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding."""
    u = _as_vector(u, "u")
    v = _as_vector(v, "v")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def modality_vector(modality: str, audio, text, video) -> np.ndarray:
    """The vector a query modality or reward mode names: one modality's
    embedding, the equal-weight average of all three ("mixup"), or their
    elementwise product ("pooled")."""
    if modality not in REWARD_MODES:
        raise ValueError(
            f"mode must be one of {REWARD_MODES}, got {modality!r}")
    vectors = {"audio": audio, "text": text, "video": video}
    if modality in vectors:
        return _as_vector(vectors[modality], modality)
    audio = _as_vector(audio, "audio")
    text = _as_vector(text, "text")
    video = _as_vector(video, "video")
    if modality == "mixup":
        return (audio + video + text) / 3.0
    return audio * text * video


def embed_reconstructions(embedder, mixes, masks) -> list:
    """The embedding of mask i resynthesized under mixture i's phase, or
    None where that reconstruction is silent. Mixtures of one shape and
    length are reconstructed and embedded together, up to
    REWARD_BATCH_BINS masked bins a batch; each row's bits do not depend
    on the batch it is in."""
    out = [None] * len(masks)
    groups = {}
    for i, mix in enumerate(mixes):
        groups.setdefault((mix.bins.shape, mix.num_samples), []).append(i)
    for ((f, t), _), group in groups.items():
        size = max(1, REWARD_BATCH_BINS // (f * t))
        for idx in np.split(np.array(group), range(size, len(group), size)):
            waves = reconstruct([mixes[i] for i in idx], [masks[i] for i in idx])
            live = np.max(np.abs(waves), axis=1) != 0.0
            for i, e in zip(idx[live], embedder.embed_rows(waves[live])):
                out[i] = e
    return out


def mask_rewards(embedder, items, masks) -> np.ndarray:
    """The reward of every mask, item after item: ``masks[i]`` stacks item
    i's masks (G, F, T), each resynthesized under ``items[i].mix_spec``
    and scored against ``items[i].reward_target``. A silent
    reconstruction scores -1.0, the worst case."""
    owners = [item for item, stack in zip(items, masks, strict=True)
              for _ in stack]
    embeds = embed_reconstructions(embedder, [item.mix_spec for item in owners],
                                   [m for stack in masks for m in stack])
    return np.array([-1.0 if e is None else cosine_sim(e, item.reward_target)
                     for item, e in zip(owners, embeds)])
