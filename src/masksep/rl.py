"""Clipped trust-region policy optimization over the Beta mask policy.

Each step samples masks from the live separator's Beta policy, scores
the reconstructions with embedding rewards, normalizes the rewards within
the batch (the batch mean is the baseline, as in GRPO) into advantages,
then takes one gradient step on the clipped surrogate with an entropy
bonus. As in PPO's clip variant, the clip is the trust region; there is
no KL penalty.

The rollout batches all B x G masks of a step: one generator call samples
them, one inverse FFT reconstructs them and one STFT feeds the embedder.
Forward, backward and the Beta tables stay per item: BLAS rounds a row by
its position in the call, and stacked table calls were slower.

The frozen old policy is the (P, kappa) policy the masks were drawn from.
Updates are single-pass, so at the gradient step the live policy still
equals the old one: the ratio is exactly 1, no mask is scored, and the
clip cannot bind. The post-update ``kl_post`` probe is what shows the
trust region's effect.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import POSITIVE, ConfigError, DivergenceError, check_value
from .optim import AdamWState
from .policy import (
    BetaPolicyParams,
    entropy,
    entropy_grad,
    kappa_schedule,
    kl_divergence,
    log_prob,
    log_prob_grad,
    params_from_proposal,
    sample,
)
from .reward import QUERY_MODALITIES, REWARD_MODES, cosine_sim
from .separator import (
    ParamGrads,
    SeparatorModel,
    apply_adamw_step,
    backward,
    forward,
    save_model,
    warm_start_supervised,
)
from .spectral import Mask, Spectrogram, reconstruct

RATIO_LOG_CLAMP = 20.0
REWARD_BATCH_BINS = 1 << 20  # masked bins reconstructed and embedded at once


# the least value (POSITIVE: above 0) or the legal names of RlConfig keys
_BOUNDS = {
    "entropy_coef": 0, "grpo_eps": POSITIVE, "mc_samples": 1, "steps": 0,
    "batch_size": 1, "seed": 0, "lr": POSITIVE, "weight_decay": 0,
    "clip_norm": 0, "kappa_ramp_frac": 0, "reward_mode": REWARD_MODES,
    "query_modality": QUERY_MODALITIES, "val_interval": 1, "patience": 1,
    "warm_start_steps": 0, "warm_start_lr": POSITIVE,
}


@dataclass
class RlConfig:
    """Training hyperparameters; config-file keys match field names. Each
    value is checked by errors.check_value against its default's kind and
    its bound; clip_norm 0 turns clipping off."""

    clip_epsilon: float = 0.2
    entropy_coef: float = 0.003
    grpo_eps: float = 1e-6
    mc_samples: int = 1
    steps: int = 2000
    batch_size: int = 16
    seed: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    kappa_start: float = 4.0
    kappa_end: float = 9.0
    kappa_ramp_frac: float = 0.2
    sample_clamp: float = 1e-5
    reward_mode: str = "pooled"
    query_modality: str = "text"
    segment_samples: int = 2048
    val_interval: int = 100
    patience: int = 10
    warm_start_steps: int = 300
    warm_start_lr: float = 1e-2

    def __post_init__(self):
        for f in fields(self):
            check_value(f.name, getattr(self, f.name), f.default,
                        _BOUNDS.get(f.name))
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigError("clip_epsilon must lie in (0, 1)")
        if not 0.0 < self.sample_clamp < 0.5:
            raise ConfigError("sample_clamp must lie in (0, 0.5)")
        if not (self.kappa_start > 0.0 and self.kappa_end > 0.0):
            raise ConfigError("kappa_start and kappa_end must be positive")

    def kappa_at(self, step: int) -> float:
        return kappa_schedule(
            step, self.steps, self.kappa_start, self.kappa_end, self.kappa_ramp_frac
        )


@dataclass
class TrainItem:
    """One prepared training example: a mixture crop plus its query and
    the reward mode's target vector.

    ``ideal_mask``/``bce_weight`` back the supervised warm start: the
    crop's ideal ratio mask and its magnitudes normalized to sum to 1,
    both F x T."""

    item_id: str
    category: str
    mix_spec: Spectrogram
    log_mag: np.ndarray
    query: np.ndarray
    reward_target: np.ndarray
    ideal_mask: np.ndarray
    bce_weight: np.ndarray


def embed_reconstructions(embedder, mixes: list[Spectrogram], masks: list[Mask],
                          batch_rows) -> list:
    """The embedding of mask i resynthesized under mixture i's phase, or
    None where that reconstruction is silent. Mixtures of one shape and
    length are reconstructed and embedded together, ``batch_rows(F, T)``
    of them at a time."""
    out = [None] * len(masks)
    groups = {}
    for i, mix in enumerate(mixes):
        groups.setdefault((mix.bins.shape, mix.num_samples), []).append(i)
    for ((f, t), _), group in groups.items():
        size = batch_rows(f, t)
        for idx in np.split(np.array(group), range(size, len(group), size)):
            waves = reconstruct([mixes[i] for i in idx], [masks[i] for i in idx])
            live = np.max(np.abs(waves), axis=1) != 0.0
            for i, e in zip(idx[live], embedder.embed_rows(waves[live])):
                out[i] = e
    return out


@dataclass
class RewardContext:
    """Everything needed to turn reconstructions into scalar rewards."""

    embedder: object  # AudioFeatureEmbedder

    def rewards(self, items: list[TrainItem], masks) -> np.ndarray:
        """The reward of every mask, item after item: ``masks[i]`` stacks
        item i's masks (G, F, T). Masks of equal-length crops are
        reconstructed and embedded together, up to REWARD_BATCH_BINS bins a
        batch. A silent reconstruction scores -1.0, the worst case."""
        pairs = [(item, Mask(m)) for item, stack in zip(items, masks, strict=True)
                 for m in stack]
        embeds = embed_reconstructions(
            self.embedder, [item.mix_spec for item, _ in pairs],
            [m for _, m in pairs],
            lambda f, t: max(1, REWARD_BATCH_BINS // (f * t)))
        return np.array([-1.0 if e is None else cosine_sim(e, item.reward_target)
                         for (item, _), e in zip(pairs, embeds)])


def normalize_advantages(a, eps: float) -> np.ndarray:
    """Group-relative normalization: (a - mean) / (population std + eps)."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("advantage vector must be nonempty")
    if np.ptp(a) == 0.0:
        return np.zeros_like(a)
    return (a - a.mean()) / (a.std() + eps)


def clipped_surrogate(log_diff: float, adv: float, clip_epsilon: float):
    """PPO's clipped surrogate of one sample, min(r A, clip(r) A), where
    r = exp(log_diff) and log_diff = logp_new - logp_old is clamped to +/-20.

    Returns (value, d value / d logp_new, whether the clip bound, r). Ties
    count as unclipped. The gradient is 0 where the clip binds or the
    clamp binds; otherwise it is r A, since dr/dlogp_new = r."""
    ratio = float(np.exp(np.clip(log_diff, -RATIO_LOG_CLAMP, RATIO_LOG_CLAMP)))
    unclipped = ratio * adv
    clipped = float(np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)) * adv
    if clipped < unclipped:
        return clipped, 0.0, True, ratio
    grad = 0.0 if abs(log_diff) > RATIO_LOG_CLAMP else unclipped
    return unclipped, grad, False, ratio


@dataclass
class SampledItem:
    """One item's sampled masks (a (G, F, T) stack, or any sequence of
    F x T masks) with their (normalized) advantages.

    ``params_old`` (with the tables sampling built on it) is the frozen old
    policy; the masks' old log-densities are computed from it only where a
    ratio needs them. ``cache`` is the live-model forward pass that produced
    ``params_old``, when the sampler carries it; the gradient step then
    reuses it instead of forwarding the model again, and backward() rejects
    it if the model has changed since."""

    item: TrainItem
    params_old: BetaPolicyParams
    masks: list
    advantages: list = field(default_factory=list)
    cache: object | None = None


@dataclass
class ObjectiveResult:
    objective: float
    grads: ParamGrads
    surrogate: float
    entropy: float
    ratio_mean: float
    frac_clipped: float


def objective_and_grads(
    model: SeparatorModel,
    batch: list[SampledItem],
    cfg: RlConfig,
    kappa: float,
) -> ObjectiveResult:
    """Objective J for a sampled batch and the gradients of -J w.r.t. the
    live model's parameters, backpropagated from dJ/dP at the proposal.

    An item carrying the sampler's forward cache has the live policy equal
    to its old one, ``params_old``: each log-ratio is 0 by construction, and
    no mask is scored. Other items forward the live model here and score
    each mask under the old and the new policy."""
    n_items = len(batch)
    n_samples = sum(len(s.masks) for s in batch)
    total = None
    ratios_all, values_all, entropies = [], [], []
    n_clipped = 0

    for sampled in batch:
        item = sampled.item
        reused = sampled.cache is not None
        if reused:
            cache, new = sampled.cache, sampled.params_old
        else:
            proposal, cache = forward(model, item.log_mag, item.query)
            new = params_from_proposal(proposal, kappa)

        d_p = np.zeros(new.shape)
        for mask, adv in zip(sampled.masks, sampled.advantages):
            log_diff = 0.0 if reused else (log_prob(new, mask)
                                           - log_prob(sampled.params_old, mask))
            value, coeff, clipped, ratio = clipped_surrogate(
                log_diff, adv, cfg.clip_epsilon
            )
            n_clipped += clipped
            ratios_all.append(ratio)
            values_all.append(value)
            if coeff != 0.0:
                d_p += (coeff / n_samples) * log_prob_grad(new, mask)

        entropies.append(entropy(new))
        if cfg.entropy_coef != 0.0:
            d_p += (cfg.entropy_coef / n_items) * entropy_grad(new)

        grads = backward(model, cache, -d_p)  # the loss is -J
        total = grads if total is None else total + grads

    j = float(np.mean(values_all)) + cfg.entropy_coef * float(np.mean(entropies))
    return ObjectiveResult(
        objective=j,
        grads=total,
        surrogate=float(np.mean(values_all)),
        entropy=float(np.mean(entropies)),
        ratio_mean=float(np.mean(ratios_all)),
        frac_clipped=n_clipped / max(1, n_samples),
    )


@dataclass
class TrainStepReport:
    step: int
    mean_reward: float
    objective: float
    surrogate: float
    entropy: float
    ratio_mean: float
    frac_clipped: float
    grad_norm: float
    kl_post: float

    def to_dict(self) -> dict:
        return asdict(self)

    def validate_finite(self) -> None:
        for key, value in self.to_dict().items():
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite {key} at step {self.step}: {value}"
                )


def train_step(
    model: SeparatorModel,
    opt_state: AdamWState,
    items: list[TrainItem],
    cfg: RlConfig,
    rng: np.random.Generator,
    reward_ctx: RewardContext,
    step_index: int = 0,
) -> TrainStepReport:
    """One full update: sample from the live policy, score
    reconstructions, normalize advantages, step the live model."""
    kappa = cfg.kappa_at(step_index)

    # one forward per item serves sampling now and the gradient pass later
    proposals, caches = zip(*(forward(model, it.log_mag, it.query) for it in items))
    policies = [params_from_proposal(p, kappa) for p in proposals]
    samples = sample(policies, rng, cfg.mc_samples, clamp_eps=cfg.sample_clamp)
    rewards = reward_ctx.rewards(items, [s.masks for s in samples])

    mean_reward = float(np.mean(rewards))
    adv = normalize_advantages(rewards, cfg.grpo_eps).reshape(len(items), -1)
    sampled_batch = [
        SampledItem(item=item, params_old=s.policy, masks=s.masks,
                    advantages=[float(a) for a in row], cache=cache)
        for item, s, cache, row in zip(items, samples, caches, adv)
    ]

    result = objective_and_grads(model, sampled_batch, cfg, kappa)
    if not np.isfinite(result.objective):
        raise DivergenceError(
            f"non-finite objective at step {step_index}: "
            f"surrogate={result.surrogate} entropy={result.entropy}"
        )
    grad_norm = apply_adamw_step(
        model,
        result.grads,
        opt_state,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        clip_norm=cfg.clip_norm,
    )

    # trust-region telemetry after the update, measured on the leading
    # batch item (a full-batch measurement would double the forward cost)
    lead = sampled_batch[0]
    proposal_post, _ = forward(model, lead.item.log_mag, lead.item.query,
                               keep_cache=False)
    kl_post = kl_divergence(params_from_proposal(proposal_post, kappa),
                            lead.params_old)

    report = TrainStepReport(
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
    report.validate_finite()
    return report


def evaluate_mean_reward(
    model: SeparatorModel, items: list[TrainItem], reward_ctx: RewardContext
) -> float:
    """Mean reward of the reconstructions under the proposal (the mode)."""
    masks = [forward(model, it.log_mag, it.query, keep_cache=False)[0][None]
             for it in items]
    total = 0.0
    for r in reward_ctx.rewards(items, masks):
        total += float(r)
    return total / len(items)


@dataclass
class TrainLoopResult:
    steps_run: int
    best_step: int
    best_val_reward: float
    initial_val_reward: float
    final_val_reward: float
    stopped_early: bool


def warm_start(
    model: SeparatorModel,
    train_items: list[TrainItem],
    cfg: RlConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Supervised pretraining phase: weighted BCE toward the items' ideal
    ratio masks, mirroring how the supervised baseline initializes the
    separator before policy optimization."""
    size = min(8, len(train_items))
    batches = []
    for _ in range(cfg.warm_start_steps):
        idx = rng.choice(len(train_items), size=size, replace=False)
        batches.append([(it.log_mag, it.query, it.ideal_mask, it.bce_weight)
                        for it in (train_items[i] for i in idx)])
    return warm_start_supervised(model, batches, AdamWState(),
                                 lr=cfg.warm_start_lr)


def train_loop(
    model: SeparatorModel,
    train_items: list[TrainItem],
    val_items: list[TrainItem],
    cfg: RlConfig,
    reward_ctx: RewardContext,
    log_path,
    checkpoint_dir,
) -> TrainLoopResult:
    """Run cfg.steps updates with minibatch sampling, periodic validation,
    best-checkpoint retention and early stopping. Fully seeded.

    When cfg.warm_start_steps > 0, the untrained initial checkpoint is written
    first, then the separator is pretrained on ideal-ratio-mask targets
    before any policy step (the paper-style supervised-then-fine-tune
    pipeline); validation step 0 refers to the warm-started model.
    """
    if not train_items or not val_items:
        raise ValueError("the training and validation sets must be nonempty")
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    save_model(checkpoint_dir / "init.json", model)

    rng = np.random.default_rng(cfg.seed)
    if cfg.warm_start_steps > 0:
        warm_start(model, train_items, cfg, rng)
    opt_state = AdamWState()

    initial_val = evaluate_mean_reward(model, val_items, reward_ctx)
    best_val = initial_val
    best_step = 0
    if cfg.steps > 0:
        save_model(checkpoint_dir / "best.json", model)
    evals_since_best = 0
    stopped_early = False
    steps_run = 0

    with open(log_path, "w") as log:
        def write(record: dict) -> None:
            log.write(json.dumps(record, sort_keys=True) + "\n")

        write({"event": "validation", "step": 0, "val_reward": initial_val})
        for step in range(cfg.steps):
            size = min(cfg.batch_size, len(train_items))
            idx = rng.choice(len(train_items), size=size, replace=False)
            batch = [train_items[i] for i in idx]
            report = train_step(model, opt_state, batch, cfg, rng, reward_ctx,
                                step_index=step)
            write(report.to_dict())
            steps_run = step + 1

            if (step + 1) % cfg.val_interval == 0:
                val_reward = evaluate_mean_reward(model, val_items, reward_ctx)
                write({"event": "validation", "step": step + 1,
                       "val_reward": val_reward})
                if val_reward > best_val:
                    best_val = val_reward
                    best_step = step + 1
                    evals_since_best = 0
                    save_model(checkpoint_dir / "best.json", model)
                else:
                    evals_since_best += 1
                    if evals_since_best >= cfg.patience:
                        stopped_early = True
                        break

    if cfg.steps > 0:
        save_model(checkpoint_dir / "last.json", model)
    final_val = evaluate_mean_reward(model, val_items, reward_ctx)
    return TrainLoopResult(
        steps_run=steps_run,
        best_step=best_step,
        best_val_reward=best_val,
        initial_val_reward=initial_val,
        final_val_reward=final_val,
        stopped_early=stopped_early,
    )
