"""Three-stage progressive contrastive alignment.

Stage 1 grounds audio against label text (symmetric InfoNCE, audio + text
heads trainable). Stage 2 sharpens audio-audio discrimination (InfoNCE +
cosine-distance triplet + consistency; audio head only). Stage 3 adds
visual grounding (audio + vision heads) while replaying fractions of the
earlier objectives to avoid forgetting. Every stage starts from the best
checkpoint of the previous one, and the shared temperature is trained
throughout.

All losses return exact gradients; encoders themselves are frozen
providers, so only projection heads and the temperature ever move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .embed import (
    EmbeddingStore,
    ProjectionHead,
    Temperature,
    project,
    project_backward,
)
from .errors import ConfigError, DivergenceError, check_field_types
from .optim import AdamWState, adamw_step

STAGE_TRAINABLE_HEADS = {1: ("audio", "text"), 2: ("audio",), 3: ("audio", "vision")}
# store modality -> the HeadSet head that projects it
HEAD_OF_MODALITY = {"audio": "audio", "text": "text", "video": "vision"}


@dataclass
class StageConfig:
    stage: int
    epochs: int = 20
    steps_per_epoch: int = 25
    batch_size: int = 16
    lr: float = 1e-3
    margin: float = 0.2
    replay_fraction: float = 0.25
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.1
    mu1: float = 1.0
    mu2: float = 1.0
    mu3: float = 0.25
    mu4: float = 0.25
    weight_decay: float = 0.0
    clip_norm: float = 1.0

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ConfigError("stage must be 1, 2 or 3")
        coeffs = (self.lambda1, self.lambda2, self.lambda3,
                  self.mu1, self.mu2, self.mu3, self.mu4)
        if any(c < 0 for c in coeffs):
            raise ConfigError("loss coefficients must be >= 0")
        if self.margin < 0:
            raise ConfigError("margin must be >= 0")
        if not 0.0 <= self.replay_fraction <= 1.0:
            raise ConfigError("replay_fraction must lie in [0, 1]")

    @classmethod
    def from_dict(cls, stage: int, d: dict) -> "StageConfig":
        """Stage ``stage`` with the config-file overrides ``d``."""
        unknown = set(d) - (set(cls.__dataclass_fields__) - {"stage"})
        if unknown:
            raise ConfigError(f"stage {stage}: unknown config keys: {sorted(unknown)}")
        check_field_types(cls, d, where=f"stage {stage}: ")
        return cls(stage=stage, **d)


@dataclass
class InfoNceResult:
    loss: float
    d_a: np.ndarray
    d_b: np.ndarray
    d_log_tau: float


def info_nce_symmetric(za, zt, temperature: Temperature) -> InfoNceResult:
    """Symmetric contrastive loss over index-aligned unit-norm batches.

    loss = -1/(2N) sum_i [log softmax_row_i(S/tau)_ii
                          + log softmax_col_i(S/tau)_ii]
    """
    za = np.asarray(za, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if za.shape != zt.shape or za.ndim != 2:
        raise ValueError(f"batches must share an N x D shape, got {za.shape} "
                         f"vs {zt.shape}")
    n = za.shape[0]
    if n < 2:
        raise ValueError("contrastive batches need at least 2 pairs")
    tau = temperature.tau
    scores = za @ zt.T
    logits = scores / tau

    def _log_softmax(m):
        shifted = m - m.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    lsm_a = _log_softmax(logits)
    lsm_t = _log_softmax(logits.T)
    loss = -float(np.trace(lsm_a) + np.trace(lsm_t)) / (2 * n)

    p = np.exp(lsm_a)
    q = np.exp(lsm_t)
    g = (p + q.T - 2.0 * np.eye(n)) / (2 * n)
    d_za = g @ zt / tau
    d_zt = g.T @ za / tau
    d_log_tau = -float((g * scores).sum()) / tau
    return InfoNceResult(loss=loss, d_a=d_za, d_b=d_zt, d_log_tau=d_log_tau)


def _cosine_rows(u: np.ndarray, v: np.ndarray):
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    dots = np.einsum("ij,ij->i", u, v)
    return dots / (nu * nv), nu, nv


def _cosine_grad_rows(u, v, cos, nu, nv):
    """d cos(u_i, v_i) / d u_i, rowwise."""
    return (v / nv[:, None] - cos[:, None] * u / nu[:, None]) / nu[:, None]


@dataclass
class TripletResult:
    loss: float
    d_anchor: np.ndarray
    d_pos: np.ndarray
    d_neg: np.ndarray


def triplet_cosine(anchor, pos, neg, margin: float) -> TripletResult:
    """mean_i max(0, [1 - cos(a,p)] - [1 - cos(a,n)] + margin)."""
    anchor = np.asarray(anchor, dtype=np.float64)
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    n = anchor.shape[0]
    cos_p, na, np_ = _cosine_rows(anchor, pos)
    cos_n, _, nn = _cosine_rows(anchor, neg)
    hinge = cos_n - cos_p + margin
    active = hinge > 0.0
    loss = float(np.where(active, hinge, 0.0).mean())

    d_anchor = np.zeros_like(anchor)
    d_pos = np.zeros_like(pos)
    d_neg = np.zeros_like(neg)
    if active.any():
        w = active.astype(np.float64)[:, None] / n
        d_anchor += w * (
            _cosine_grad_rows(anchor, neg, cos_n, na, nn)
            - _cosine_grad_rows(anchor, pos, cos_p, na, np_)
        )
        d_pos -= w * _cosine_grad_rows(pos, anchor, cos_p, np_, na)
        d_neg += w * _cosine_grad_rows(neg, anchor, cos_n, nn, na)
    return TripletResult(loss=loss, d_anchor=d_anchor, d_pos=d_pos, d_neg=d_neg)


@dataclass
class StageLossResult:
    loss: float
    d_inputs: dict
    d_log_tau: float


def stage2_loss(z1, z2, zn, temperature: Temperature,
                cfg: StageConfig) -> StageLossResult:
    """InfoNCE on same-class audio pairs, a cosine-distance triplet with an
    explicit negative, and a consistency penalty."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    zn = np.asarray(zn, dtype=np.float64)
    n = z1.shape[0]

    nce = info_nce_symmetric(z1, z2, temperature)
    trip = triplet_cosine(z1, z2, zn, cfg.margin)
    diff = z1 - z2
    consistency = float(np.einsum("ij,ij->i", diff, diff).mean())

    loss = cfg.lambda1 * nce.loss + cfg.lambda2 * trip.loss + cfg.lambda3 * consistency
    d1 = (cfg.lambda1 * nce.d_a + cfg.lambda2 * trip.d_anchor
          + cfg.lambda3 * 2.0 * diff / n)
    d2 = (cfg.lambda1 * nce.d_b + cfg.lambda2 * trip.d_pos
          - cfg.lambda3 * 2.0 * diff / n)
    dn = cfg.lambda2 * trip.d_neg
    return StageLossResult(
        loss=loss,
        d_inputs={"z1": d1, "z2": d2, "zn": dn},
        d_log_tau=cfg.lambda1 * nce.d_log_tau,
    )


def stage3_loss(
    za,
    zv_pos,
    zv_neg,
    temperature: Temperature,
    cfg: StageConfig,
    replay_s1=None,
    replay_s2=None,
) -> StageLossResult:
    """Audio-video InfoNCE and triplet, plus replayed stage-1/stage-2
    objectives weighted by mu3/mu4.

    ``replay_s1`` is an (audio, text) batch pair; ``replay_s2`` is an
    (anchor, positive, negative) audio triple. Either may be omitted only
    when its coefficient is zero.
    """
    if cfg.mu3 > 0.0 and replay_s1 is None:
        raise ValueError("mu3 > 0 requires stage-1 replay data")
    if cfg.mu4 > 0.0 and replay_s2 is None:
        raise ValueError("mu4 > 0 requires stage-2 replay data")
    za = np.asarray(za, dtype=np.float64)
    zv_pos = np.asarray(zv_pos, dtype=np.float64)
    zv_neg = np.asarray(zv_neg, dtype=np.float64)

    nce = info_nce_symmetric(za, zv_pos, temperature)
    trip = triplet_cosine(za, zv_pos, zv_neg, cfg.margin)
    loss = cfg.mu1 * nce.loss + cfg.mu2 * trip.loss
    d_log_tau = cfg.mu1 * nce.d_log_tau
    d_inputs = {
        "za": cfg.mu1 * nce.d_a + cfg.mu2 * trip.d_anchor,
        "zv_pos": cfg.mu1 * nce.d_b + cfg.mu2 * trip.d_pos,
        "zv_neg": cfg.mu2 * trip.d_neg,
    }

    if cfg.mu3 > 0.0:
        ra, rt = replay_s1
        r1 = info_nce_symmetric(np.asarray(ra, dtype=np.float64),
                                np.asarray(rt, dtype=np.float64), temperature)
        loss += cfg.mu3 * r1.loss
        d_log_tau += cfg.mu3 * r1.d_log_tau
        d_inputs["replay_audio"] = cfg.mu3 * r1.d_a
        d_inputs["replay_text"] = cfg.mu3 * r1.d_b
    if cfg.mu4 > 0.0:
        r1, r2, rn = replay_s2
        r2res = stage2_loss(r1, r2, rn, temperature, cfg)
        loss += cfg.mu4 * r2res.loss
        d_log_tau += cfg.mu4 * r2res.d_log_tau
        d_inputs["replay_z1"] = cfg.mu4 * r2res.d_inputs["z1"]
        d_inputs["replay_z2"] = cfg.mu4 * r2res.d_inputs["z2"]
        d_inputs["replay_zn"] = cfg.mu4 * r2res.d_inputs["zn"]
    return StageLossResult(loss=loss, d_inputs=d_inputs, d_log_tau=d_log_tau)


@dataclass
class PairBatch:
    """Contrastive pairs as (modality, item id) references into a store."""

    stage: int
    anchors: list
    positives: list
    negatives: list | None
    classes: list


def build_pairs(
    store: EmbeddingStore,
    stage: int,
    rng: np.random.Generator,
    n_pairs: int = 16,
    ids=None,
) -> PairBatch:
    """Stage 1: (audio, its label text). Stage 2: (audio, same-class audio,
    other-class audio). Stage 3: (audio, own video, other item's video)."""
    if stage not in (1, 2, 3):
        raise ValueError("stage must be 1, 2 or 3")
    all_ids = sorted(store.ids("audio")) if ids is None else sorted(ids)
    if not all_ids:
        raise ValueError("store has no audio items")
    labels = {i: store.label("audio", i) for i in all_ids}
    by_class: dict[str, list] = {}
    for i in all_ids:
        by_class.setdefault(labels[i], []).append(i)
    if stage in (2, 3) and len(by_class) < 2:
        raise ValueError("need at least two classes to build negatives")

    anchors, positives, negatives, classes = [], [], [], []
    if stage == 2:
        eligible = [i for i in all_ids if len(by_class[labels[i]]) >= 2]
        if not eligible:
            raise ValueError("no class has two instances; cannot build positives")
    else:
        eligible = all_ids

    for _ in range(n_pairs):
        anchor = eligible[int(rng.integers(len(eligible)))]
        cls = labels[anchor]
        anchors.append(("audio", anchor))
        classes.append(cls)
        if stage == 1:
            positives.append(("text", anchor))
        elif stage == 2:
            same = [i for i in by_class[cls] if i != anchor]
            positives.append(("audio", same[int(rng.integers(len(same)))]))
            other = [i for i in all_ids if labels[i] != cls]
            negatives.append(("audio", other[int(rng.integers(len(other)))]))
        else:
            positives.append(("video", anchor))
            other = [i for i in all_ids if i != anchor]
            if not other:
                raise ValueError("stage 3 needs at least two items")
            negatives.append(("video", other[int(rng.integers(len(other)))]))

    return PairBatch(
        stage=stage,
        anchors=anchors,
        positives=positives,
        negatives=negatives if stage in (2, 3) else None,
        classes=classes,
    )


@dataclass
class HeadSet:
    """The trainable alignment state: one head per modality plus the
    shared temperature."""

    audio: ProjectionHead
    text: ProjectionHead
    vision: ProjectionHead
    temperature: Temperature

    @classmethod
    def identity(cls, dim: int, tau_init: float = 0.5) -> "HeadSet":
        return cls(
            audio=ProjectionHead.identity(dim),
            text=ProjectionHead.identity(dim),
            vision=ProjectionHead.identity(dim),
            temperature=Temperature(log_tau=float(np.log(tau_init))),
        )

    def copy(self) -> "HeadSet":
        return HeadSet(
            audio=self.audio.copy(),
            text=self.text.copy(),
            vision=self.vision.copy(),
            temperature=self.temperature.copy(),
        )


@dataclass
class StageReport:
    stage: int
    epochs_run: int
    best_val_loss: float
    final_val_loss: float


@dataclass
class CurriculumState:
    heads: HeadSet
    stage_reports: list
    stage_initial: dict
    stage_best: dict


def _stage_batch_loss(store, heads, batch: PairBatch, cfg: StageConfig,
                      rng, replay_ids=None, backward=False):
    """(loss, d loss / d log_tau, head gradients) for one batch.

    Each ref list holds one modality and is projected as one block, named
    after the loss input it feeds. With ``backward``, the head gradients
    map each head name to its (weight, bias) gradients summed over every
    block it projected; without it they are None."""
    blocks = {}

    def proj(name, refs):
        (modality,) = {m for m, _ in refs}
        raw = np.array([store.get(modality, item_id) for _, item_id in refs])
        head_name = HEAD_OF_MODALITY[modality]
        blocks[name] = (head_name, raw)
        return project(getattr(heads, head_name), raw)

    if batch.stage == 1:
        res = info_nce_symmetric(proj("za", batch.anchors),
                                 proj("zt", batch.positives), heads.temperature)
        d_inputs = {"za": res.d_a, "zt": res.d_b}
    elif batch.stage == 2:
        res = stage2_loss(proj("z1", batch.anchors), proj("z2", batch.positives),
                          proj("zn", batch.negatives), heads.temperature, cfg)
        d_inputs = res.d_inputs
    else:
        za = proj("za", batch.anchors)
        zv_pos = proj("zv_pos", batch.positives)
        zv_neg = proj("zv_neg", batch.negatives)
        replay_n = max(2, int(round(cfg.replay_fraction * cfg.batch_size)))
        replay_s1 = replay_s2 = None
        if cfg.mu3 > 0.0:
            b1 = build_pairs(store, 1, rng, replay_n, ids=replay_ids)
            replay_s1 = (proj("replay_audio", b1.anchors),
                         proj("replay_text", b1.positives))
        if cfg.mu4 > 0.0:
            b2 = build_pairs(store, 2, rng, replay_n, ids=replay_ids)
            replay_s2 = (proj("replay_z1", b2.anchors),
                         proj("replay_z2", b2.positives),
                         proj("replay_zn", b2.negatives))
        res = stage3_loss(za, zv_pos, zv_neg, heads.temperature, cfg,
                          replay_s1=replay_s1, replay_s2=replay_s2)
        d_inputs = res.d_inputs

    head_grads = None
    if backward:
        head_grads = {}
        for name, (head_name, raw) in blocks.items():
            dw, db = project_backward(getattr(heads, head_name), raw,
                                      d_inputs[name])
            prev = head_grads.get(head_name)
            head_grads[head_name] = (dw, db) if prev is None else (
                prev[0] + dw, prev[1] + db)
    return res.loss, res.d_log_tau, head_grads


def run_curriculum(
    store: EmbeddingStore,
    stage_configs,
    rng: np.random.Generator,
    tau_init: float = 0.5,
) -> CurriculumState:
    """Train the heads through the three stages, carrying each stage's best
    checkpoint forward. Stage-2 training substitutes a stage-1 batch with
    probability replay_fraction; stage 3 replays through its mu3/mu4 terms."""
    configs = {cfg.stage: cfg for cfg in stage_configs}
    if set(configs) != {1, 2, 3}:
        raise ConfigError("need exactly one config per stage 1, 2, 3")

    heads = HeadSet.identity(store.dimension, tau_init=tau_init)
    state = CurriculumState(heads=heads, stage_reports=[], stage_initial={},
                            stage_best={})

    all_ids = sorted(store.ids("audio"))
    n_val = max(1, int(round(0.1 * len(all_ids)))) if len(all_ids) > 4 else 0
    shuffled = list(all_ids)
    rng.shuffle(shuffled)
    val_ids = sorted(shuffled[:n_val]) if n_val else None
    train_ids = sorted(shuffled[n_val:]) if n_val else None

    for stage in (1, 2, 3):
        cfg = configs[stage]
        state.stage_initial[stage] = heads.copy()
        best = heads.copy()
        best_val = _validation_loss(store, heads, cfg, stage, val_ids, train_ids)
        opt_state = AdamWState()
        epochs_run = 0

        for _ in range(cfg.epochs):
            for _ in range(cfg.steps_per_epoch):
                eff_stage = stage
                if stage == 2 and cfg.replay_fraction > 0.0 and (
                    rng.random() < cfg.replay_fraction
                ):
                    eff_stage = 1
                batch = build_pairs(store, eff_stage, rng, cfg.batch_size,
                                    ids=train_ids)
                loss, d_log_tau, head_grads = _stage_batch_loss(
                    store, heads, batch, cfg, rng, replay_ids=train_ids,
                    backward=True,
                )
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite alignment loss in stage {stage}"
                    )
                params, grads = {}, {}
                for head_name in STAGE_TRAINABLE_HEADS[stage]:
                    if head_name in head_grads:
                        head = getattr(heads, head_name)
                        params[f"{head_name}_weight"] = head.weight
                        params[f"{head_name}_bias"] = head.bias
                        (grads[f"{head_name}_weight"],
                         grads[f"{head_name}_bias"]) = head_grads[head_name]
                log_tau_arr = np.array([heads.temperature.log_tau])
                params["log_tau"] = log_tau_arr
                grads["log_tau"] = np.array([d_log_tau])
                adamw_step(params, grads, opt_state, lr=cfg.lr,
                           weight_decay=cfg.weight_decay,
                           clip_norm=cfg.clip_norm)
                heads.temperature.log_tau = float(log_tau_arr[0])
                heads.temperature.clamp()
            epochs_run += 1
            val = _validation_loss(store, heads, cfg, stage, val_ids, train_ids)
            if val < best_val:
                best_val = val
                best = heads.copy()

        final_val = _validation_loss(store, heads, cfg, stage, val_ids, train_ids)
        state.stage_reports.append(
            StageReport(stage=stage, epochs_run=epochs_run,
                        best_val_loss=best_val, final_val_loss=final_val)
        )
        state.stage_best[stage] = best.copy()
        heads = best.copy()

    state.heads = heads
    return state


def _validation_loss(store, heads, cfg, stage, val_ids, train_ids) -> float:
    """Stage loss on a fixed, seeded validation pair set."""
    ids = val_ids if val_ids else None
    val_rng = np.random.default_rng((0x5EED, stage))
    try:
        batch = build_pairs(store, stage, val_rng,
                            n_pairs=max(4, cfg.batch_size), ids=ids)
    except ValueError:
        # validation split too small for this stage's pair constraints
        batch = build_pairs(store, stage, val_rng,
                            n_pairs=max(4, cfg.batch_size), ids=None)
    loss, _, _ = _stage_batch_loss(store, heads, batch, cfg,
                                   np.random.default_rng((0xF00D, stage)),
                                   replay_ids=train_ids)
    return loss


def save_heads(path, heads: HeadSet) -> None:
    checkpoint.save_checkpoint(
        path,
        kind="alignment_heads",
        hparams={"dim": int(heads.audio.bias.shape[0])},
        arrays={
            "audio_weight": heads.audio.weight,
            "audio_bias": heads.audio.bias,
            "text_weight": heads.text.weight,
            "text_bias": heads.text.bias,
            "vision_weight": heads.vision.weight,
            "vision_bias": heads.vision.bias,
            "log_tau": np.array([heads.temperature.log_tau]),
        },
    )


def load_heads(path) -> HeadSet:
    kind, _, arrays = checkpoint.load_checkpoint(path)
    if kind != "alignment_heads":
        raise ValueError(f"{path} holds a {kind!r} checkpoint, not alignment heads")
    return HeadSet(
        audio=ProjectionHead(arrays["audio_weight"], arrays["audio_bias"]),
        text=ProjectionHead(arrays["text_weight"], arrays["text_bias"]),
        vision=ProjectionHead(arrays["vision_weight"], arrays["vision_bias"]),
        temperature=Temperature(log_tau=float(arrays["log_tau"][0])),
    )


@dataclass
class GapEntry:
    """One evaluation item: its raw query-text vector plus clean-target and
    mixture waveforms."""

    text_vector: np.ndarray
    target: object
    mixture: object


@dataclass
class GapResult:
    mean: float
    std: float
    per_item: list


def discrimination_gap(entries, audio_embedder, heads: HeadSet) -> GapResult:
    """Mean of sim(text, target) - sim(text, mixture) over evaluation items."""
    if not entries:
        raise ValueError("need at least one evaluation item")
    zt = project(heads.text, [e.text_vector for e in entries])
    z_target = project(heads.audio, [audio_embedder.embed(e.target) for e in entries])
    z_mix = project(heads.audio, [audio_embedder.embed(e.mixture) for e in entries])
    gaps = np.einsum("ij,ij->i", zt, z_target) - np.einsum("ij,ij->i", zt, z_mix)
    return GapResult(mean=float(gaps.mean()), std=float(gaps.std()),
                     per_item=gaps.tolist())
