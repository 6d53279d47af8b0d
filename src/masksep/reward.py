"""Scalar rewards in a shared embedding space.

Cosine similarity of the separated audio's embedding against a target:
one modality's embedding, the average of all three ("mixup"), or their
elementwise product ("pooled").
"""

from __future__ import annotations

from dataclasses import dataclass

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


def query_mixup(q_a, q_v, q_t) -> np.ndarray:
    """Equal-weight average of per-modality query embeddings."""
    q_a = _as_vector(q_a, "q_a")
    q_v = _as_vector(q_v, "q_v")
    q_t = _as_vector(q_t, "q_t")
    return (q_a + q_v + q_t) / 3.0


@dataclass(frozen=True)
class RewardTargets:
    """Target-side embeddings a separated estimate is scored against."""

    audio: np.ndarray | None = None
    text: np.ndarray | None = None
    video: np.ndarray | None = None

    def require(self, *names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"reward mode needs target embeddings: {missing}")


def composite_reward(mode: str, e_sep, targets: RewardTargets) -> float:
    """Scalar reward for a separated-audio embedding under the given mode."""
    if mode not in REWARD_MODES:
        raise ValueError(f"mode must be one of {REWARD_MODES}, got {mode!r}")
    if mode == "audio":
        targets.require("audio")
        return cosine_sim(e_sep, targets.audio)
    if mode == "text":
        targets.require("text")
        return cosine_sim(e_sep, targets.text)
    if mode == "video":
        targets.require("video")
        return cosine_sim(e_sep, targets.video)
    if mode == "mixup":
        targets.require("audio", "video", "text")
        return cosine_sim(e_sep, query_mixup(targets.audio, targets.video,
                                             targets.text))
    targets.require("audio", "text", "video")
    return cosine_sim(e_sep, _as_vector(targets.audio, "audio")
                      * _as_vector(targets.text, "text")
                      * _as_vector(targets.video, "video"))
