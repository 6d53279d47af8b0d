"""Separation metrics: SI-SDR / SI-SDRi with permutation-optimal matching
and an energy guard, plus a scalar-projection SDR/SIR/SAR decomposition.

All scoring runs in float64 on signals cropped to their common minimum
length and zero-meaned. Ratios whose denominator vanishes are reported as
a +/-300 dB sentinel so assignment and aggregation stay finite; saturated
utterances are flagged.

The SDR/SIR/SAR decomposition projects the estimate onto the target
reference and onto the span of all references (zeroth-order projections,
no distortion filters), so values track the filtered classic variant in
trend without being bit-identical to it. When the listed references do not
add up to the mixture (``separate`` lists the target alone), the rest of
the mixture joins the span as one more interferer.

``scipy.optimize`` (about 20 MB) is imported on the first assignment, not
with this module, so only ``eval`` loads it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .spectral import Waveform

SENTINEL_DB = 300.0
ENERGY_GUARD = 1e-5
# share of the mixture's energy above which the mixture minus the listed
# references joins the BSS span as an unlisted interferer: far above the
# rounding residue of a manifest that lists every source (about 1e-15 on
# synth items), and 100x the 1e-12 at which the Gram check would reject it
REMAINDER_FRACTION = 1e-10


def _prep(*signals) -> list[np.ndarray]:
    """Crop to common minimum length and zero-mean, in float64."""
    arrays = []
    for s in signals:
        a = s.samples if isinstance(s, Waveform) else np.asarray(s, dtype=np.float64)
        arrays.append(np.asarray(a, dtype=np.float64))
    n = min(a.shape[0] for a in arrays)
    return [a[:n] - a[:n].mean() for a in arrays]


def _db_ratio(num: float, den: float, floor: float = 0.0) -> float:
    """10 log10(num/den) with the sentinel convention.

    Energies at or below ``floor`` count as exactly zero; callers pass a
    tiny fraction of the total signal energy so rounding residue from the
    projections cannot masquerade as real artifact/interference energy.
    """
    if den <= floor:
        return SENTINEL_DB if num > floor else -SENTINEL_DB
    if num <= floor:
        return -SENTINEL_DB
    return float(np.clip(10.0 * np.log10(num / den), -SENTINEL_DB, SENTINEL_DB))


def optimal_assignment(score_matrix: np.ndarray) -> tuple:
    """Permutation pi maximizing sum_k S[k, pi(k)], exact (Hungarian)."""
    from scipy.optimize import linear_sum_assignment  # 20 MB, so only here
    s = np.asarray(score_matrix, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("score matrix must be finite (cap sentinels first)")
    rows, cols = linear_sum_assignment(-s)
    perm = np.empty(s.shape[0], dtype=int)
    perm[rows] = cols
    return tuple(int(p) for p in perm)


@dataclass
class UtteranceEval:
    """Per-utterance separation scores with exclusion bookkeeping."""

    item_id: str = ""
    category: str | None = None
    skipped: bool = False
    skip_reason: str | None = None
    permutation: tuple = ()
    per_source_si_sdr: list = field(default_factory=list)
    mixture_si_sdr: list = field(default_factory=list)
    si_sdri: float | None = None
    saturated: bool = False
    sdr: list | None = None
    sir: list | None = None
    sar: list | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def si_sdri(
    ests,
    refs,
    mix,
    item_id: str = "",
    category: str | None = None,
    with_bss: bool = False,
) -> UtteranceEval:
    """Permutation-optimal SI-SDR improvement over the mixture baseline.

    The energy guard excludes the utterance when any reference, or the
    estimate matched to it, has absolute-sum energy <= 1e-5.
    """
    if len(ests) == 0 or len(refs) == 0:
        raise ValueError("need at least one estimate and one reference")
    if len(ests) != len(refs):
        raise ValueError(f"{len(ests)} estimates vs {len(refs)} references")
    n = len(refs)
    prepped = _prep(*ests, *refs, mix)
    est_arr = prepped[:n]
    ref_arr = prepped[n : 2 * n]
    mix_arr = prepped[2 * n]
    out = UtteranceEval(item_id=item_id, category=category)

    for k, r in enumerate(ref_arr):
        if np.abs(r).sum() <= ENERGY_GUARD:
            out.skipped = True
            out.skip_reason = f"reference {k} below energy guard"
            return out

    score = np.empty((n, n))
    for k in range(n):
        for j in range(n):
            score[k, j] = _si_sdr_prepped(est_arr[j], ref_arr[k])
    perm = optimal_assignment(score)
    out.permutation = perm

    for k in range(n):
        if np.abs(est_arr[perm[k]]).sum() <= ENERGY_GUARD:
            out.skipped = True
            out.skip_reason = f"matched estimate for reference {k} below energy guard"
            return out

    out.per_source_si_sdr = [float(score[k, perm[k]]) for k in range(n)]
    out.mixture_si_sdr = [
        float(_si_sdr_prepped(mix_arr, ref_arr[k])) for k in range(n)
    ]
    out.si_sdri = float(
        np.mean([out.per_source_si_sdr[k] - out.mixture_si_sdr[k] for k in range(n)])
    )
    out.saturated = any(abs(v) >= SENTINEL_DB for v in out.per_source_si_sdr)

    if with_bss:
        span = list(ref_arr)
        rest = mix_arr - np.sum(ref_arr, axis=0)
        if np.dot(rest, rest) > REMAINDER_FRACTION * np.dot(mix_arr, mix_arr):
            span.append(rest)
        out.sdr, out.sir, out.sar = [], [], []
        for k in range(n):
            sdr, sir, sar = _bss_prepped(est_arr[perm[k]], span, k)
            out.sdr.append(sdr)
            out.sir.append(sir)
            out.sar.append(sar)
    return out


def _si_sdr_prepped(est: np.ndarray, ref: np.ndarray) -> float:
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        return -SENTINEL_DB
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    noise = est - target
    return _db_ratio(float(np.dot(target, target)), float(np.dot(noise, noise)))


def _bss_prepped(est: np.ndarray, refs, j: int):
    r = np.stack(refs)
    gram = r @ r.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond >= 1e12:
        raise ValueError(
            f"reference Gram matrix is ill-conditioned (cond={cond:.3g}); "
            "references must be linearly independent"
        )
    ref_j = r[j]
    ref_j_energy = float(np.dot(ref_j, ref_j))
    if ref_j_energy == 0.0:
        raise ValueError("target reference has zero energy")
    s_target = (float(np.dot(est, ref_j)) / ref_j_energy) * ref_j
    coeffs = np.linalg.solve(gram, r @ est)
    p_est = coeffs @ r
    e_interf = p_est - s_target
    e_artif = est - p_est

    floor = 1e-24 * float(np.dot(est, est))
    sdr = _db_ratio(
        float(np.dot(s_target, s_target)),
        float(np.sum((e_interf + e_artif) ** 2)),
        floor,
    )
    sir = _db_ratio(
        float(np.dot(s_target, s_target)), float(np.dot(e_interf, e_interf)), floor
    )
    sar = _db_ratio(
        float(np.sum((s_target + e_interf) ** 2)),
        float(np.dot(e_artif, e_artif)),
        floor,
    )
    return sdr, sir, sar


@dataclass
class EvalReport:
    """Aggregate over non-skipped utterances."""

    utterances: list
    n_scored: int
    n_skipped: int
    mean_si_sdri: float
    std_si_sdri: float
    ci95_si_sdri: tuple
    category_means: dict
    macro_average: float | None

    def to_dict(self) -> dict:
        return {
            "n_scored": self.n_scored,
            "n_skipped": self.n_skipped,
            "mean_si_sdri": self.mean_si_sdri,
            "std_si_sdri": self.std_si_sdri,
            "ci95_si_sdri": list(self.ci95_si_sdri),
            "category_means": self.category_means,
            "macro_average": self.macro_average,
        }


def aggregate(
    utterances,
    bootstrap_resamples: int = 10_000,
    seed: int = 0,
    confidence: float = 0.95,
) -> EvalReport:
    """Mean, std, seeded bootstrap CI of SI-SDRi, plus per-category means
    macro-averaged with equal category weight."""
    scored = [u for u in utterances if not u.skipped]
    n_skipped = len(utterances) - len(scored)
    if not scored:
        raise ValueError("all utterances were skipped; nothing to aggregate")

    values = np.array([u.si_sdri for u in scored], dtype=np.float64)
    mean = float(values.mean())
    std = float(values.std())

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(bootstrap_resamples, values.size))
    boot_means = values[idx].mean(axis=1)
    lo = float(np.quantile(boot_means, (1.0 - confidence) / 2.0))
    hi = float(np.quantile(boot_means, 1.0 - (1.0 - confidence) / 2.0))

    by_cat: dict[str, list[float]] = {}
    for u in scored:
        if u.category is not None:
            by_cat.setdefault(u.category, []).append(u.si_sdri)
    category_means = {c: float(np.mean(v)) for c, v in sorted(by_cat.items())}
    macro = float(np.mean(list(category_means.values()))) if category_means else None

    return EvalReport(
        utterances=list(utterances),
        n_scored=len(scored),
        n_skipped=n_skipped,
        mean_si_sdri=mean,
        std_si_sdri=std,
        ci95_si_sdri=(lo, hi),
        category_means=category_means,
        macro_average=macro,
    )
