"""Scalar rewards in a shared embedding space.

Cosine similarity of the separated audio's embedding against a target:
one modality's embedding, the average of all three ("mixup"), or their
elementwise product ("pooled"). ``modality_vector`` makes that choice for
the reward target and for the separator's query alike.
"""

from __future__ import annotations

import numpy as np

# legal values of RlConfig.query_modality and RlConfig.reward_mode
QUERY_MODALITIES = ("audio", "text", "video", "mixup")
REWARD_MODES = QUERY_MODALITIES + ("pooled",)


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
