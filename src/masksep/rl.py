"""Clipped trust-region policy optimization over the Beta mask policy.

Each step is a rollout, then an update. ``rollout`` samples masks from
the live separator's Beta policy, the frozen old policy, and scores their
reconstructions with the audio embedder through ``reward.mask_rewards``;
it returns what it measured as a ``Rollout``. ``update`` normalizes the
rewards within the batch (the batch mean is the baseline, as in GRPO) into
advantages, then takes one gradient step on the clipped surrogate with an
entropy bonus. As in PPO's clip variant, the clip is the trust region;
there is no KL penalty.

The rollout batches all B x G masks of a step: one generator call samples
them, one inverse FFT reconstructs them and one STFT feeds the embedder.
Forward, backward and the Beta tables stay per item: BLAS rounds a row by
its position in the call, and stacked table calls were slower.

Before the first policy step, ``warm_start`` pretrains the separator
with supervision: weighted binary cross-entropy toward the train items'
ideal ratio masks.

The frozen old policy is the (P, kappa) policy the masks were drawn from.
Updates are single-pass, so at the gradient step the live policy still
equals the old one: the ratio is exactly 1, no mask is scored, and the
clip cannot bind. The post-update ``kl_post`` probe is what shows the
trust region's effect.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import POSITIVE, DivergenceError, check_fields
from .optim import AdamWState
from .policy import (
    SAMPLE_CLAMP,
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
from .reward import QUERY_MODALITIES, REWARD_MODES, mask_rewards
from .separator import (
    ParamGrads,
    SeparatorModel,
    apply_adamw_step,
    backward,
    forward,
    save_model,
)
from .spectral import Spectrogram

RATIO_LOG_CLAMP = 20.0


@dataclass
class RlConfig:
    """Training hyperparameters; config-file keys match field names. Each
    value is checked by errors.check_fields against its declared type and
    its entry in BOUNDS; clip_norm 0 turns clipping off."""

    BOUNDS = {
        "clip_epsilon": "(0, 1)", "entropy_coef": 0, "grpo_eps": POSITIVE,
        "mc_samples": 1, "steps": 0, "batch_size": 1, "seed": 0, "lr": POSITIVE,
        "weight_decay": 0, "clip_norm": 0, "kappa_start": POSITIVE,
        "kappa_end": POSITIVE, "kappa_ramp_frac": 0, "sample_clamp": "(0, 0.5)",
        "reward_mode": REWARD_MODES, "query_modality": QUERY_MODALITIES,
        "segment_samples": 1, "val_interval": 1, "patience": 1,
        "warm_start_steps": 0, "warm_start_lr": POSITIVE,
    }

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
    sample_clamp: float = SAMPLE_CLAMP
    reward_mode: str = "pooled"
    query_modality: str = "text"
    segment_samples: int = 2048
    val_interval: int = 100
    patience: int = 10
    warm_start_steps: int = 300
    warm_start_lr: float = 1e-2

    def __post_init__(self):
        check_fields(self, self.BOUNDS)

    def kappa_at(self, step: int) -> float:
        return kappa_schedule(
            step, self.steps, self.kappa_start, self.kappa_end, self.kappa_ramp_frac
        )


@dataclass
class TrainItem:
    """One prepared training example: a mixture crop plus its query and
    the reward mode's target vector.

    ``ideal_mask``, the crop's F x T ideal ratio mask, is warm_start's
    target."""

    item_id: str
    category: str
    mix_spec: Spectrogram
    log_mag: np.ndarray
    query: np.ndarray
    reward_target: np.ndarray
    ideal_mask: np.ndarray


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
class Rollout:
    """What one rollout measured, item by item: the items and the kappa the
    masks were drawn at, each item's frozen old policy, (G, F, T) mask
    stack and forward cache, and the (B, G) rewards. The update reuses a
    cache instead of forwarding the model again, and drops it once its
    backward has run; an item whose cache is None takes the live-forward
    path."""

    items: list[TrainItem]
    kappa: float
    old_policies: list[BetaPolicyParams]
    masks: list[np.ndarray]
    rewards: np.ndarray
    caches: list


@dataclass
class ObjectiveResult:
    objective: float
    grads: ParamGrads
    surrogate: float
    entropy: float
    ratio_mean: float
    frac_clipped: float


def objective_and_grads(model: SeparatorModel, ro: Rollout,
                        advantages: np.ndarray, cfg: RlConfig) -> ObjectiveResult:
    """Objective J for a rollout whose masks carry the (B, G)
    ``advantages``, and the gradients of -J w.r.t. the live model's
    parameters, backpropagated from dJ/dP at the proposal.

    An item carrying the rollout's forward cache has the live policy equal
    to its old one: each log-ratio is 0 by construction, and no mask is
    scored. The cache is dropped from ``ro`` once its backward has run, so
    the working set shrinks item by item. Other items, and every item of
    a later pass over the same rollout, forward the live model here and
    score each mask under the old and the new policy."""
    n_items = len(ro.items)
    n_samples = sum(len(masks) for masks in ro.masks)
    total = None
    ratios_all, values_all, entropies = [], [], []
    n_clipped = 0

    for i, (item, old, masks, cache, adv_row) in enumerate(zip(
            ro.items, ro.old_policies, ro.masks, ro.caches, advantages,
            strict=True)):
        reused = cache is not None
        if reused:
            new = old
        else:
            proposal, cache = forward(model, item.log_mag, item.query)
            new = params_from_proposal(proposal, ro.kappa)

        d_p = np.zeros(new.shape)
        for mask, adv in zip(masks, adv_row, strict=True):
            log_diff = 0.0 if reused else (log_prob(new, mask)
                                           - log_prob(old, mask))
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
        ro.caches[i] = None
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


def rollout(model: SeparatorModel, items: list[TrainItem], cfg: RlConfig,
            rng: np.random.Generator, embedder, kappa: float) -> Rollout:
    """Sample cfg.mc_samples masks per item from the live policy at
    ``kappa`` and score their reconstructions with the audio ``embedder``.
    The model is not changed, and ``rng`` is advanced by one ``rng.beta``
    call."""
    # one forward per item serves sampling now and the update later
    proposals, caches = zip(*(forward(model, it.log_mag, it.query) for it in items))
    policies = [params_from_proposal(p, kappa) for p in proposals]
    masks = sample(policies, rng, cfg.mc_samples, clamp_eps=cfg.sample_clamp)
    rewards = mask_rewards(embedder, items, masks).reshape(len(items), -1)
    return Rollout(list(items), kappa, policies, masks, rewards, list(caches))


def update(model: SeparatorModel, opt_state: AdamWState, ro: Rollout,
           cfg: RlConfig, step_index: int) -> TrainStepReport:
    """Normalize the rollout's rewards into advantages over the whole
    batch, step the live model on the clipped surrogate, then probe
    ``kl_post`` on the lead item against its old policy. The update uses
    up the rollout's forward caches: each entry of ``ro.caches`` is None
    afterwards, and a later pass over ``ro`` forwards the live model."""
    rewards = ro.rewards.ravel()
    mean_reward = float(np.mean(rewards))
    adv = normalize_advantages(rewards, cfg.grpo_eps).reshape(ro.rewards.shape)

    result = objective_and_grads(model, ro, adv, cfg)
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
    lead = ro.items[0]
    proposal_post, _ = forward(model, lead.log_mag, lead.query, keep_cache=False)
    kl_post = kl_divergence(params_from_proposal(proposal_post, ro.kappa),
                            ro.old_policies[0])

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


def train_step(model: SeparatorModel, opt_state: AdamWState,
               items: list[TrainItem], cfg: RlConfig, rng: np.random.Generator,
               embedder, step_index: int = 0) -> TrainStepReport:
    """One policy step: a rollout from the live policy, then an update of
    the live model from it."""
    ro = rollout(model, items, cfg, rng, embedder, cfg.kappa_at(step_index))
    return update(model, opt_state, ro, cfg, step_index)


def evaluate_mean_reward(model: SeparatorModel, items: list[TrainItem],
                         embedder) -> float:
    """Mean reward of the reconstructions under the proposal (the mode)."""
    masks = [forward(model, it.log_mag, it.query, keep_cache=False)[0][None]
             for it in items]
    total = 0.0
    for r in mask_rewards(embedder, items, masks):
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
) -> None:
    """Supervised pretraining, as the supervised baseline initializes the
    separator before policy optimization: cfg.warm_start_steps AdamW steps
    (lr cfg.warm_start_lr, no weight decay) on binary cross-entropy toward
    the items' ideal ratio masks, 8 items a step, each bin weighted by its
    share of the crop's mixture magnitude, so near-silent bins with
    noise-valued targets do not drown the loss."""
    size = min(8, len(train_items))
    state = AdamWState()
    for _ in range(cfg.warm_start_steps):
        idx = rng.choice(len(train_items), size=size, replace=False)
        total = None
        for it in (train_items[i] for i in idx):
            magnitude = np.abs(it.mix_spec.bins)
            weight = magnitude / max(magnitude.sum(), 1e-12)
            proposal, cache = forward(model, it.log_mag, it.query)
            p = np.clip(proposal, 1e-7, 1.0 - 1e-7)
            # dBCE/dP = w (P - y) / (P (1-P)); the sigmoid factor inside
            # backward cancels the denominator, keeping this conditioned
            upstream = weight * (p - it.ideal_mask) / (p * (1.0 - p)) / size
            grads = backward(model, cache, upstream)
            total = grads if total is None else total + grads
        apply_adamw_step(model, total, state, lr=cfg.warm_start_lr,
                         weight_decay=0.0)


def train_loop(
    model: SeparatorModel,
    train_items: list[TrainItem],
    val_items: list[TrainItem],
    cfg: RlConfig,
    embedder,
    log_path,
    checkpoint_dir,
) -> TrainLoopResult:
    """Run cfg.steps updates with minibatch sampling, periodic validation,
    best-checkpoint retention and early stopping. Fully seeded.

    The untrained initial checkpoint is written first, then warm_start
    pretrains the separator on ideal-ratio-mask targets before any policy
    step (the paper-style supervised-then-fine-tune pipeline); validation
    step 0 refers to the warm-started model.
    """
    if not train_items or not val_items:
        raise ValueError("the training and validation sets must be nonempty")
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    save_model(checkpoint_dir / "init.json", model)

    rng = np.random.default_rng(cfg.seed)
    warm_start(model, train_items, cfg, rng)
    opt_state = AdamWState()

    initial_val = evaluate_mean_reward(model, val_items, embedder)
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
            report = train_step(model, opt_state, batch, cfg, rng, embedder,
                                step_index=step)
            write(report.to_dict())
            steps_run = step + 1

            if (step + 1) % cfg.val_interval == 0:
                val_reward = evaluate_mean_reward(model, val_items, embedder)
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
    final_val = evaluate_mean_reward(model, val_items, embedder)
    return TrainLoopResult(
        steps_run=steps_run,
        best_step=best_step,
        best_val_reward=best_val,
        initial_val_reward=initial_val,
        final_val_reward=final_val,
        stopped_early=stopped_early,
    )
