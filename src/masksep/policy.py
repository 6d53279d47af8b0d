"""Factorized Beta distribution over masks, in (P, kappa) coordinates.

A policy is a proposal P in [0,1] per bin and one concentration kappa >= 0.
Its per-bin Beta shape parameters are

    alpha = 1 + kappa * P,    beta = 1 + kappa * (1 - P)

so the mode sits exactly at P, kappa sets the concentration, and
alpha + beta = 2 + kappa in every bin. Log-density, entropy and KL
divergence are closed-form, as are the gradients dJ/dP of log-density and
entropy that training needs; all reductions run in float64. The parameters
carry their digamma, trigamma and log-normalizer tables, all three built
by one ``special.gamma_tables`` call on the first read of any of them and
shared by every evaluation of the same policy.

Inputs are checked once, where they enter: ``BetaPolicyParams`` checks P
and kappa, so every table argument (alpha, beta, 2 + kappa) is finite and
>= 1 and the table kernel checks nothing; ``sample`` clamps masks into
[eps, 1 - eps] with the policy's shape, so ``log_prob_grad`` checks none.
``log_prob`` still rejects a mask outside (0, 1) or of another shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import gamma_tables

SAMPLE_CLAMP = 1e-5
KAPPA_MAX = 1e6  # the tables are tested to 1e6; log-gamma overflows near 1e30


@dataclass(frozen=True)
class BetaPolicyParams:
    """Per-bin proposal P and one scalar concentration kappa; kappa = 0 is
    the uniform Beta(1, 1).

    (alpha, beta, 2 + kappa) are built once into one float64 buffer of
    2n + 1 entries; ``alpha`` and ``beta`` are views of it. The digamma,
    trigamma and log-gamma tables that log-density, entropy, KL and the
    gradients read are built together on the first read of any of them,
    by one vectorized call over that buffer, and cached on the instance;
    the results are bitwise those of separate calls, since the kernel is
    elementwise. P outside [0, 1] or NaN, and kappa outside [0, KAPPA_MAX]
    or NaN, are rejected here, the one check the tables' arguments get."""

    proposal: np.ndarray
    kappa: float
    alpha: np.ndarray = field(init=False, repr=False, compare=False)
    beta: np.ndarray = field(init=False, repr=False, compare=False)
    _args: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        p = np.asarray(self.proposal, dtype=np.float64)
        kappa = float(self.kappa)
        # min/max propagate NaN: the range check is the finiteness check
        if not (p.min() >= 0.0 and p.max() <= 1.0):
            raise ValueError("proposal entries must be finite and lie in [0, 1]")
        if not 0.0 <= kappa <= KAPPA_MAX:
            raise ValueError(f"kappa must lie in [0, {KAPPA_MAX:.0f}]")
        n = p.size
        args = np.empty(2 * n + 1)
        # the operations, in order, of 1 + kappa P and 1 + kappa (1 - P)
        alpha, beta = args[:n], args[n : 2 * n]
        np.multiply(kappa, p.ravel(), out=alpha)
        alpha += 1.0
        np.subtract(1.0, p.ravel(), out=beta)
        beta *= kappa
        beta += 1.0
        args[-1] = 2.0 + kappa
        object.__setattr__(self, "proposal", p)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "alpha", alpha.reshape(p.shape))
        object.__setattr__(self, "beta", beta.reshape(p.shape))

    @property
    def shape(self):
        return self.proposal.shape

    def _split(self, values):
        """alpha and beta per bin, and the scalar at alpha + beta."""
        n = self.alpha.size
        return (values[:n].reshape(self.shape),
                values[n:-1].reshape(self.shape), values[-1])

    def _table(self, key):
        """The "psi", "tri" or "log_norm" table; one call builds all three."""
        if not self._tables:
            psi, tri, lg = gamma_tables(self._args)
            lg_a, lg_b, lg_ab = self._split(lg)
            self._tables.update(psi=self._split(psi), tri=self._split(tri),
                                log_norm=lg_a + lg_b - lg_ab)
        return self._tables[key]

    @property
    def psi(self):
        return self._table("psi")

    @property
    def tri(self):
        return self._table("tri")

    @property
    def log_norm(self):
        """Per-bin log B(alpha, beta)."""
        return self._table("log_norm")


def params_from_proposal(p: np.ndarray, kappa: float) -> BetaPolicyParams:
    """The policy of a proposal tensor in [0,1] at a concentration kappa > 0."""
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    return BetaPolicyParams(p, kappa)


def sample(
    policies: list[BetaPolicyParams],
    rng: np.random.Generator,
    n: int = 1,
    clamp_eps: float = SAMPLE_CLAMP,
) -> list[np.ndarray]:
    """Draw n masks from each policy and clamp them into (0,1): one
    (n, *shape) stack per policy.

    One generator call draws every mask, policy after policy and mask after
    mask in C order, which is the stream that one call per mask would draw.
    The masks are not scored here.
    """

    def stacked(name):
        rows = [getattr(p, name).ravel() for p in policies]
        return np.concatenate(rows if n == 1 else [np.tile(r, n) for r in rows])

    draws = np.clip(rng.beta(stacked("alpha"), stacked("beta")),
                    clamp_eps, 1.0 - clamp_eps)
    ends = np.cumsum([n * p.alpha.size for p in policies])
    return [d.reshape(n, *p.shape)
            for p, d in zip(policies, np.split(draws, ends[:-1]))]


def log_prob(params: BetaPolicyParams, mask: np.ndarray) -> float:
    """Total log-density of a mask: sum over bins of the Beta log-pdf."""
    mask = np.asarray(mask, dtype=np.float64)
    if not (mask.min() > 0.0 and mask.max() < 1.0):  # NaN fails it too
        raise ValueError("mask entries must be finite and lie strictly inside "
                         "(0, 1); clamp upstream")
    if mask.shape != params.shape:
        raise ValueError(f"mask shape {mask.shape} != params shape {params.shape}")
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
        + params.kappa * psi_ab
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
        + (q.kappa - p.kappa) * psi_ab
    )
    return float(np.sum(terms))


def log_prob_grad(params: BetaPolicyParams, mask: np.ndarray) -> np.ndarray:
    """Per-bin gradient of log_prob w.r.t. the proposal P; the digamma at
    alpha + beta = 2 + kappa cancels. The mask is not checked: ``sample``
    draws it inside (0, 1) with the policy's shape."""
    psi_a, psi_b, _ = params.psi
    return params.kappa * (np.log(mask) - np.log1p(-mask) - psi_a + psi_b)


def entropy_grad(params: BetaPolicyParams) -> np.ndarray:
    """Per-bin gradient of entropy w.r.t. the proposal P; the trigamma at
    alpha + beta cancels."""
    a, b = params.alpha, params.beta
    tri_a, tri_b, _ = params.tri
    return params.kappa * ((b - 1.0) * tri_b - (a - 1.0) * tri_a)


def kappa_schedule(
    step: int,
    total_steps: int,
    start: float = 4.0,
    end: float = 9.0,
    ramp_frac: float = 0.2,
) -> float:
    """Linear ramp from start to end over the first ramp_frac of training,
    constant afterwards; a ramp_frac of 0 is no ramp at all."""
    if total_steps <= 0 or ramp_frac <= 0:
        return end
    ramp_steps = max(1, int(round(ramp_frac * total_steps)))
    if step >= ramp_steps:
        return end
    return start + (end - start) * (step / ramp_steps)
