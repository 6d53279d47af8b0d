"""Factorized Beta distribution over masks.

A proposal P in [0,1] per bin is turned into Beta shape parameters

    alpha = 1 + kappa * P,    beta = 1 + kappa * (1 - P)

so the per-bin mode sits exactly at P while kappa sets the concentration.
Log-density, entropy and KL divergence are closed-form, as are the
shape-parameter gradients of log-density and entropy that training needs;
all reductions run in float64. The parameters carry their digamma,
trigamma and log-normalizer tables, built once on first use and shared by
every evaluation of the same policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import digamma, log_gamma, trigamma

SAMPLE_CLAMP = 1e-5


@dataclass(frozen=True)
class BetaPolicyParams:
    """Per-bin (alpha, beta) shape tensors.

    The digamma, trigamma and log-normalizer tables that log-density,
    entropy, KL and the gradients all read are built on first use and
    cached on the instance, so every evaluation of one policy shares them.
    Each family is evaluated in one vectorized call over the stacked
    (alpha, beta, alpha+beta) arguments; results are bitwise identical to
    separate evaluations since the functions are elementwise."""

    alpha: np.ndarray
    beta: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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

    def _triple(self, key, fn):
        if key not in self._tables:
            a, b = self.alpha, self.beta
            stacked = np.concatenate([a.ravel(), b.ravel(), (a + b).ravel()])
            values = fn(stacked)
            n = a.size
            self._tables[key] = (
                values[:n].reshape(a.shape),
                values[n : 2 * n].reshape(a.shape),
                values[2 * n :].reshape(a.shape),
            )
        return self._tables[key]

    @property
    def psi(self):
        """digamma at (alpha, beta, alpha + beta)."""
        return self._triple("psi", digamma)

    @property
    def tri(self):
        """trigamma at (alpha, beta, alpha + beta)."""
        return self._triple("tri", trigamma)

    @property
    def log_norm(self):
        """Per-bin log B(alpha, beta)."""
        if "log_norm" not in self._tables:
            lg_a, lg_b, lg_ab = self._triple("lgamma", log_gamma)
            self._tables["log_norm"] = lg_a + lg_b - lg_ab
        return self._tables["log_norm"]


@dataclass(frozen=True)
class PolicySample:
    """A sampled mask with its total log-density."""

    mask: np.ndarray
    log_prob: float


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
) -> PolicySample:
    """Draw one mask, clamp it into (0,1), and score it under the policy.

    The log-density is recomputed on the clamped values so that downstream
    importance ratios refer to the mask actually used.
    """
    if not 0.0 < clamp_eps < 0.5:
        raise ValueError("clamp_eps must lie in (0, 0.5)")
    draw = rng.beta(params.alpha, params.beta)
    mask = np.clip(draw, clamp_eps, 1.0 - clamp_eps)
    return PolicySample(mask=mask, log_prob=log_prob(params, mask))


def _check_mask(params: BetaPolicyParams, mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all(np.isfinite(mask)):
        raise ValueError("mask must be finite")
    if mask.min() <= 0.0 or mask.max() >= 1.0:
        raise ValueError("mask entries must lie strictly inside (0, 1); clamp upstream")
    if mask.shape != params.shape:
        raise ValueError(f"mask shape {mask.shape} != params shape {params.shape}")
    return mask


def log_prob(params: BetaPolicyParams, mask: np.ndarray) -> float:
    """Total log-density of a mask: sum over bins of the Beta log-pdf."""
    mask = _check_mask(params, mask)
    a, b = params.alpha, params.beta
    terms = (a - 1.0) * np.log(mask) + (b - 1.0) * np.log1p(-mask) - params.log_norm
    return float(np.sum(terms))


def entropy(params: BetaPolicyParams) -> float:
    """Total differential entropy of the factorized policy."""
    a, b = params.alpha, params.beta
    psi_a, psi_b, psi_ab = params.psi
    terms = (
        params.log_norm
        - (a - 1.0) * psi_a
        - (b - 1.0) * psi_b
        + (a + b - 2.0) * psi_ab
    )
    return float(np.sum(terms))


def kl_divergence(p: BetaPolicyParams, q: BetaPolicyParams) -> float:
    """KL(p || q), summed over bins. Always >= 0, and exactly 0 when p and
    q are the same parameters. Reads p's digamma and both log-normalizers."""
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    psi_a, psi_b, psi_ab = p.psi
    terms = (
        q.log_norm
        - p.log_norm
        + (p.alpha - q.alpha) * psi_a
        + (p.beta - q.beta) * psi_b
        + (q.alpha - p.alpha + q.beta - p.beta) * psi_ab
    )
    return float(np.sum(terms))


def log_prob_grad(params: BetaPolicyParams, mask: np.ndarray):
    """Per-bin gradients of log_prob w.r.t. (alpha, beta)."""
    mask = _check_mask(params, mask)
    psi_a, psi_b, psi_ab = params.psi
    d_alpha = np.log(mask) - psi_a + psi_ab
    d_beta = np.log1p(-mask) - psi_b + psi_ab
    return d_alpha, d_beta


def entropy_grad(params: BetaPolicyParams):
    """Per-bin gradients of entropy w.r.t. (alpha, beta)."""
    a, b = params.alpha, params.beta
    tri_a, tri_b, tri_ab = params.tri
    spread = a + b - 2.0
    d_alpha = -(a - 1.0) * tri_a + spread * tri_ab
    d_beta = -(b - 1.0) * tri_b + spread * tri_ab
    return d_alpha, d_beta


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
