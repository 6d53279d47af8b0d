"""Factorized Beta distribution over masks.

A proposal P in [0,1] per bin is turned into Beta shape parameters

    alpha = 1 + kappa * P,    beta = 1 + kappa * (1 - P)

so the per-bin mode sits exactly at P while kappa sets the concentration.
Log-density, entropy, KL divergence and their shape-parameter gradients are
closed-form; all reductions run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import digamma, log_gamma, trigamma

SAMPLE_CLAMP = 1e-5


@dataclass(frozen=True)
class BetaPolicyParams:
    """Per-bin (alpha, beta) shape tensors."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if alpha.shape != beta.shape:
            raise ValueError(
                f"alpha shape {alpha.shape} != beta shape {beta.shape}"
            )
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("shape parameters must be finite")
        if alpha.min() < 1.0 - 1e-12 or beta.min() < 1.0 - 1e-12:
            raise ValueError("shape parameters must be >= 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def shape(self):
        return self.alpha.shape


@dataclass(frozen=True)
class PolicySample:
    """A sampled mask with its total log-density and policy entropy
    (None when the caller skipped entropy evaluation)."""

    mask: np.ndarray
    log_prob: float
    entropy: float | None


class PolicyMath:
    """Lazily cached digamma/trigamma/log-normalizer tables for one
    parameter set, shared across log-density, entropy, KL and gradient
    evaluations of the same policy (they all consume the same tables).

    Each family is evaluated in one vectorized call over the stacked
    (alpha, beta, alpha+beta) arguments; results are bitwise identical to
    separate evaluations since the functions are elementwise."""

    def __init__(self, params: BetaPolicyParams):
        self.params = params
        self._cache: dict = {}

    def _triple(self, key, fn):
        if key not in self._cache:
            a, b = self.params.alpha, self.params.beta
            stacked = np.concatenate([a.ravel(), b.ravel(), (a + b).ravel()])
            values = fn(stacked)
            n = a.size
            self._cache[key] = (
                values[:n].reshape(a.shape),
                values[n : 2 * n].reshape(a.shape),
                values[2 * n :].reshape(a.shape),
            )
        return self._cache[key]

    @property
    def psi_a(self):
        return self._triple("psi", digamma)[0]

    @property
    def psi_b(self):
        return self._triple("psi", digamma)[1]

    @property
    def psi_ab(self):
        return self._triple("psi", digamma)[2]

    @property
    def tri_a(self):
        return self._triple("tri", trigamma)[0]

    @property
    def tri_b(self):
        return self._triple("tri", trigamma)[1]

    @property
    def tri_ab(self):
        return self._triple("tri", trigamma)[2]

    @property
    def log_norm(self):
        if "log_norm" not in self._cache:
            lg_a, lg_b, lg_ab = self._triple("lgamma", log_gamma)
            self._cache["log_norm"] = lg_a + lg_b - lg_ab
        return self._cache["log_norm"]


def params_from_proposal(p: np.ndarray, kappa: float) -> BetaPolicyParams:
    """Map a proposal tensor in [0,1] to Beta shape parameters."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("proposal must be finite")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("proposal entries must lie in [0, 1]")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    return BetaPolicyParams(
        alpha=1.0 + kappa * p, beta=1.0 + kappa * (1.0 - p)
    )


def sample(
    params: BetaPolicyParams,
    rng: np.random.Generator,
    clamp_eps: float = SAMPLE_CLAMP,
    with_entropy: bool = True,
    math: PolicyMath | None = None,
) -> PolicySample:
    """Draw one mask, clamp it into (0,1), and score it under the policy.

    The log-density is recomputed on the clamped values so that downstream
    importance ratios refer to the mask actually used. Entropy evaluation
    can be skipped (entropy=None) when the caller computes it elsewhere.
    """
    if not 0.0 < clamp_eps < 0.5:
        raise ValueError("clamp_eps must lie in (0, 0.5)")
    if math is None:
        math = PolicyMath(params)
    draw = rng.beta(params.alpha, params.beta)
    mask = np.clip(draw, clamp_eps, 1.0 - clamp_eps)
    return PolicySample(
        mask=mask,
        log_prob=log_prob_math(math, mask),
        entropy=entropy_math(math) if with_entropy else None,
    )


def _check_mask_open_interval(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all(np.isfinite(mask)):
        raise ValueError("mask must be finite")
    if mask.min() <= 0.0 or mask.max() >= 1.0:
        raise ValueError("mask entries must lie strictly inside (0, 1); clamp upstream")
    return mask


def log_prob_math(math: PolicyMath, mask: np.ndarray) -> float:
    """log_prob using a shared table set."""
    mask = _check_mask_open_interval(mask)
    params = math.params
    if mask.shape != params.shape:
        raise ValueError(f"mask shape {mask.shape} != params shape {params.shape}")
    a, b = params.alpha, params.beta
    terms = (a - 1.0) * np.log(mask) + (b - 1.0) * np.log1p(-mask) - math.log_norm
    return float(np.sum(terms))


def log_prob(params: BetaPolicyParams, mask: np.ndarray) -> float:
    """Total log-density of a mask: sum over bins of the Beta log-pdf."""
    return log_prob_math(PolicyMath(params), mask)


def entropy_math(math: PolicyMath) -> float:
    """entropy using a shared table set."""
    a, b = math.params.alpha, math.params.beta
    terms = (
        math.log_norm
        - (a - 1.0) * math.psi_a
        - (b - 1.0) * math.psi_b
        + (a + b - 2.0) * math.psi_ab
    )
    return float(np.sum(terms))


def entropy(params: BetaPolicyParams) -> float:
    """Total differential entropy of the factorized policy."""
    return entropy_math(PolicyMath(params))


def _check_same_shape(p: BetaPolicyParams, q: BetaPolicyParams) -> None:
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")


def kl_divergence_math(p: PolicyMath, q: PolicyMath) -> float:
    """kl_divergence using shared table sets (p's digamma and both
    log-normalizers); exactly 0 when p and q are the same tables."""
    _check_same_shape(p.params, q.params)
    ap, bp = p.params.alpha, p.params.beta
    aq, bq = q.params.alpha, q.params.beta
    terms = (
        q.log_norm
        - p.log_norm
        + (ap - aq) * p.psi_a
        + (bp - bq) * p.psi_b
        + (aq - ap + bq - bp) * p.psi_ab
    )
    return float(np.sum(terms))


def kl_divergence(p: BetaPolicyParams, q: BetaPolicyParams) -> float:
    """KL(p || q), summed over bins. Always >= 0."""
    return kl_divergence_math(PolicyMath(p), PolicyMath(q))


def log_prob_grad_math(math: PolicyMath, mask: np.ndarray):
    """log_prob_grad using a shared table set."""
    mask = _check_mask_open_interval(mask)
    params = math.params
    if mask.shape != params.shape:
        raise ValueError(f"mask shape {mask.shape} != params shape {params.shape}")
    d_alpha = np.log(mask) - math.psi_a + math.psi_ab
    d_beta = np.log1p(-mask) - math.psi_b + math.psi_ab
    return d_alpha, d_beta


def log_prob_grad(params: BetaPolicyParams, mask: np.ndarray):
    """Per-bin gradients of log_prob w.r.t. (alpha, beta)."""
    return log_prob_grad_math(PolicyMath(params), mask)


def entropy_grad_math(math: PolicyMath):
    """entropy_grad using a shared table set."""
    a, b = math.params.alpha, math.params.beta
    spread = a + b - 2.0
    d_alpha = -(a - 1.0) * math.tri_a + spread * math.tri_ab
    d_beta = -(b - 1.0) * math.tri_b + spread * math.tri_ab
    return d_alpha, d_beta


def entropy_grad(params: BetaPolicyParams):
    """Per-bin gradients of entropy w.r.t. (alpha, beta)."""
    return entropy_grad_math(PolicyMath(params))


def kl_divergence_grad_math(p: PolicyMath, q: PolicyMath):
    """kl_divergence_grad using p's shared trigamma tables."""
    _check_same_shape(p.params, q.params)
    ap, bp = p.params.alpha, p.params.beta
    aq, bq = q.params.alpha, q.params.beta
    cross = (aq - ap + bq - bp) * p.tri_ab
    d_alpha = (ap - aq) * p.tri_a + cross
    d_beta = (bp - bq) * p.tri_b + cross
    return d_alpha, d_beta


def kl_divergence_grad(p: BetaPolicyParams, q: BetaPolicyParams):
    """Per-bin gradients of KL(p || q) w.r.t. p's (alpha, beta)."""
    return kl_divergence_grad_math(PolicyMath(p), PolicyMath(q))


def beta_log_pdf(alpha, beta, m):
    """Elementwise Beta log-density (no reduction); test/oracle helper."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return (
        (alpha - 1.0) * np.log(m)
        + (beta - 1.0) * np.log1p(-m)
        - (log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta))
    )


def kappa_schedule(
    step: int,
    total_steps: int,
    start: float = 4.0,
    end: float = 9.0,
    ramp_frac: float = 0.2,
) -> float:
    """Linear ramp from start to end over the first ramp_frac of training,
    constant afterwards."""
    if total_steps <= 0:
        return end
    ramp_steps = max(1, int(round(ramp_frac * total_steps)))
    if step >= ramp_steps:
        return end
    return start + (end - start) * (step / ramp_steps)
