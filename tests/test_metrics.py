"""Separation metrics against brute-force and hand-derived oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from masksep.metrics import (
    BOOTSTRAP_BLOCK_DRAWS,
    ENERGY_GUARD,
    SENTINEL_DB,
    aggregate,
    optimal_assignment,
    si_sdri,
    UtteranceEval,
)
from masksep.spectral import Waveform
from oracles import bss_decompose, si_sdr


def wave(arr, rate=16000):
    return Waveform(np.asarray(arr, dtype=np.float64), rate)


def rand_wave(n, seed):
    return wave(np.random.default_rng(seed).standard_normal(n))


class TestSiSdr:
    def test_perfect_estimate_saturates(self):
        w = rand_wave(4000, 0)
        assert si_sdr(w, w) == SENTINEL_DB

    def test_scaled_estimate_saturates(self):
        w = rand_wave(4000, 1)
        assert si_sdr(wave(2.0 * w.samples), w) == SENTINEL_DB

    def test_scale_invariance_to_1e9_db(self):
        ref = rand_wave(4000, 2)
        est = wave(ref.samples + 0.1 * np.random.default_rng(3).standard_normal(4000))
        base = si_sdr(est, ref)
        for c in (0.1, 3.0, -2.0, 1e4):
            assert abs(si_sdr(wave(c * est.samples), ref) - base) <= 1e-9

    def test_constructed_ten_db_case(self):
        # build noise orthogonal to the (zero-meaned) reference with energy
        # exactly one tenth of the target's: SI-SDR must be exactly 10 dB
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(5000)
        ref -= ref.mean()
        noise = rng.standard_normal(5000)
        noise -= noise.mean()
        noise -= (np.dot(noise, ref) / np.dot(ref, ref)) * ref
        noise *= np.sqrt(np.dot(ref, ref) / 10.0 / np.dot(noise, noise))
        est = wave(ref + noise)
        assert si_sdr(est, wave(ref)) == pytest.approx(10.0, abs=1e-9)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            si_sdr(rand_wave(100, 5), wave(np.zeros(100)))

    def test_zero_mean_idempotence(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(3000) + 5.0
        est = ref + 0.2 * rng.standard_normal(3000)
        a = si_sdr(wave(est), wave(ref))
        b = si_sdr(wave(est - est.mean()), wave(ref - ref.mean()))
        assert a == pytest.approx(b, abs=1e-12)

    def test_crops_to_common_minimum(self):
        ref = rand_wave(3000, 7)
        est = wave(np.concatenate([ref.samples, np.ones(50)]))
        assert si_sdr(est, ref) > 100.0


def brute_force_assignment(s):
    n = s.shape[0]
    best, best_perm = -np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(s[k, perm[k]] for k in range(n))
        if total > best:
            best, best_perm = total, perm
    return best, best_perm


class TestAssignment:
    def test_single_source_identity(self):
        assert optimal_assignment(np.array([[3.0]])) == (0,)

    def test_diagonal_dominant(self):
        assert optimal_assignment(np.array([[10.0, 0.0], [0.0, 10.0]])) == (0, 1)

    def test_equals_brute_force_four_by_four(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = rng.uniform(-20, 20, size=(4, 4))
            perm = optimal_assignment(s)
            total = sum(s[k, perm[k]] for k in range(4))
            best, _ = brute_force_assignment(s)
            assert total == pytest.approx(best, abs=1e-12)

    def test_equals_brute_force_up_to_six(self):
        rng = np.random.default_rng(9)
        for n in range(1, 7):
            for _ in range(20):
                s = rng.uniform(-20, 20, size=(n, n))
                perm = optimal_assignment(s)
                total = sum(s[k, perm[k]] for k in range(n))
                best, _ = brute_force_assignment(s)
                assert total == pytest.approx(best, abs=1e-12)

    def test_beats_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            s = rng.uniform(-5, 5, size=(3, 3))
            perm = optimal_assignment(s)
            assert sum(s[k, perm[k]] for k in range(3)) >= np.trace(s) - 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            optimal_assignment(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            optimal_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_single_source_is_checked_too(self):
        with pytest.raises(ValueError, match="finite"):
            optimal_assignment(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="square"):
            optimal_assignment(np.zeros((1, 2)))


class TestSiSdri:
    def two_source_setup(self, seed=11, n=8000):
        rng = np.random.default_rng(seed)
        refs = [wave(rng.standard_normal(n)), wave(rng.standard_normal(n))]
        mix = wave(refs[0].samples + refs[1].samples)
        return refs, mix

    def test_perfect_estimates_saturate(self):
        refs, mix = self.two_source_setup()
        out = si_sdri(refs, refs, mix)
        assert not out.skipped
        assert out.saturated
        assert all(v == SENTINEL_DB for v in out.per_source_si_sdr)

    def test_mixture_estimates_give_exactly_zero(self):
        refs, mix = self.two_source_setup(seed=12)
        out = si_sdri([mix, mix], refs, mix)
        assert out.si_sdri == 0.0

    def test_permutation_recovered(self):
        refs, mix = self.two_source_setup(seed=13)
        out = si_sdri([refs[1], refs[0]], refs, mix)
        assert out.permutation == (1, 0)
        assert out.si_sdri > 50.0

    def test_energy_guard_on_reference(self):
        n = 4000
        refs = [rand_wave(n, 14), wave(np.zeros(n))]
        mix = refs[0]
        out = si_sdri([refs[0], refs[0]], refs, mix)
        assert out.skipped
        assert "reference" in out.skip_reason

    def test_energy_guard_on_matched_estimate(self):
        refs, mix = self.two_source_setup(seed=15)
        silent = wave(np.full(len(mix), ENERGY_GUARD / len(mix) / 10))
        out = si_sdri([refs[0], silent], refs, mix)
        assert out.skipped
        assert "estimate" in out.skip_reason

    def test_irm_estimates_beat_mixture_baseline(self):
        from masksep.spectral import (
            StftConfig, apply_mask_reconstruct, ideal_ratio_mask, stft,
        )

        fs = 16000
        t = np.arange(16384) / fs
        refs = [
            wave(0.4 * np.sin(2 * np.pi * 350.0 * t)),
            wave(0.4 * np.sin(2 * np.pi * 4000.0 * t)),
        ]
        mix = wave(refs[0].samples + refs[1].samples)
        cfg = StftConfig(1024, 256, 1024)
        mix_spec = stft(mix, cfg)
        ests = [
            apply_mask_reconstruct(mix_spec, ideal_ratio_mask(stft(r, cfg), mix_spec))
            for r in refs
        ]
        out = si_sdri(ests, refs, mix)
        assert not out.skipped
        assert out.si_sdri > 20.0  # regression floor for the oracle run


class TestBssDecompose:
    def orthonormal_refs(self, n=1024):
        # orthogonal, zero-mean, unit-energy reference pair
        t = np.arange(n)
        r1 = np.sin(2 * np.pi * 8 * t / n)
        r2 = np.sin(2 * np.pi * 16 * t / n)
        r1 /= np.linalg.norm(r1)
        r2 /= np.linalg.norm(r2)
        return [wave(r1), wave(r2)]

    def test_exact_estimate_saturates_everything(self):
        refs = self.orthonormal_refs()
        sdr, sir, sar = bss_decompose(refs[0], refs, 0)
        assert (sdr, sir, sar) == (SENTINEL_DB, SENTINEL_DB, SENTINEL_DB)

    def test_hand_derived_interference_case(self):
        # est = ref_0 + ref_1 with orthonormal refs: target = ref_0,
        # interference = ref_1, artifacts = 0
        # SDR = 10log10(1/1) = 0, SIR = 0, SAR saturates
        refs = self.orthonormal_refs()
        est = wave(refs[0].samples + refs[1].samples)
        sdr, sir, sar = bss_decompose(est, refs, 0)
        assert sdr == pytest.approx(0.0, abs=1e-9)
        assert sir == pytest.approx(0.0, abs=1e-9)
        assert sar == SENTINEL_DB

    def test_artifact_only_case(self):
        # est = ref_0 + v with v orthogonal to both refs and unit energy:
        # interference 0, artifacts = v -> SIR saturates, SDR = SAR = 0 dB
        refs = self.orthonormal_refs()
        n = len(refs[0])
        t = np.arange(n)
        v = np.sin(2 * np.pi * 32 * t / n)
        v /= np.linalg.norm(v)
        est = wave(refs[0].samples + v)
        sdr, sir, sar = bss_decompose(est, refs, 0)
        assert sir == SENTINEL_DB
        assert sdr == pytest.approx(0.0, abs=1e-9)
        assert sar == pytest.approx(0.0, abs=1e-9)

    def test_estimate_orthogonal_to_span_flagged_low(self):
        refs = self.orthonormal_refs()
        n = len(refs[0])
        t = np.arange(n)
        est = wave(np.sin(2 * np.pi * 48 * t / n))
        sdr, sir, sar = bss_decompose(est, refs, 0)
        assert sdr == -SENTINEL_DB

    def test_energy_identity_orthogonal_refs(self):
        refs = self.orthonormal_refs()
        rng = np.random.default_rng(16)
        est_arr = rng.standard_normal(len(refs[0]))
        est_arr -= est_arr.mean()
        est = wave(est_arr)
        r = np.stack([w.samples for w in refs])
        s_target = (est_arr @ r[0]) / (r[0] @ r[0]) * r[0]
        coeffs = np.linalg.solve(r @ r.T, r @ est_arr)
        p_est = coeffs @ r
        e_interf = p_est - s_target
        e_artif = est_arr - p_est
        total = (np.dot(s_target, s_target) + np.dot(e_interf, e_interf)
                 + np.dot(e_artif, e_artif))
        assert total == pytest.approx(np.dot(est_arr, est_arr), rel=1e-12)

    def test_dependent_references_rejected(self):
        r = rand_wave(512, 17)
        refs = [r, wave(2.0 * r.samples)]
        with pytest.raises(ValueError, match="ill-conditioned"):
            bss_decompose(r, refs, 0)

    def test_si_sdri_spans_the_listed_references(self):
        # every source listed: the mixture adds nothing to the span
        refs = self.orthonormal_refs()
        mix = wave(refs[0].samples + refs[1].samples)
        est =wave(refs[0].samples + 0.5 * refs[1].samples)
        est2 = wave(refs[1].samples + 0.25 * refs[0].samples)
        out = si_sdri([est, est2], refs, mix, with_bss=True)
        assert out.sir == [bss_decompose(est, refs, 0)[1],
                           bss_decompose(est2, refs, 1)[1]]
        assert out.sir[0] == pytest.approx(10 * np.log10(4.0), abs=1e-9)

    def test_si_sdri_counts_the_unlisted_rest_as_interference(self):
        # only the target listed, as separate's manifests do: the rest of
        # the mixture is the interferer. est = r1 + r2 / 2 gives
        # SIR = 10 log10(1 / 0.25) where the target alone would saturate
        r1, r2 = self.orthonormal_refs()
        mix = wave(r1.samples + r2.samples)
        est = wave(r1.samples + 0.5 * r2.samples)
        out = si_sdri([est], [r1], mix, with_bss=True)
        rest = wave(mix.samples - r1.samples)
        assert out.sir == [bss_decompose(est, [r1, rest], 0)[1]]
        assert out.sir[0] == pytest.approx(10 * np.log10(4.0), abs=1e-9)
        assert out.sar[0] == SENTINEL_DB


class TestAggregate:
    def utterance(self, value, category=None, skipped=False):
        return UtteranceEval(
            item_id=f"u{value}",
            category=category,
            skipped=skipped,
            skip_reason="guard" if skipped else None,
            si_sdri=None if skipped else float(value),
        )

    def test_single_utterance(self):
        report = aggregate([self.utterance(5.0)])
        assert report.mean_si_sdri == 5.0
        assert report.ci95_si_sdri == (5.0, 5.0)
        assert report.n_scored == 1

    def test_bootstrap_determinism(self):
        utts = [self.utterance(v) for v in (1.0, 2.0, 5.0, 9.0)]
        a = aggregate(utts, seed=3)
        b = aggregate(utts, seed=3)
        assert a.ci95_si_sdri == b.ci95_si_sdri

    def test_skipped_excluded_and_counted(self):
        utts = [self.utterance(4.0), self.utterance(0.0, skipped=True)]
        report = aggregate(utts)
        assert report.n_skipped == 1
        assert report.mean_si_sdri == 4.0

    def test_all_skipped_rejected(self):
        with pytest.raises(ValueError, match="skipped"):
            aggregate([self.utterance(0.0, skipped=True)])

    def test_macro_average_weights_categories_equally(self):
        utts = [self.utterance(10.0, category="a")]
        utts += [self.utterance(0.0, category="b") for _ in range(99)]
        report = aggregate(utts)
        assert report.macro_average == pytest.approx(5.0)
        assert report.category_means == {"a": 10.0, "b": 0.0}

    def test_ci_contains_mean(self):
        rng = np.random.default_rng(18)
        utts = [self.utterance(v) for v in rng.normal(3.0, 1.0, size=60)]
        report = aggregate(utts)
        lo, hi = report.ci95_si_sdri
        assert lo <= report.mean_si_sdri <= hi
        assert hi - lo < 4.0

    @staticmethod
    def unblocked_ci(values, resamples, seed, confidence=0.95):
        """The bootstrap CI from one (resamples, n) draw: the reference
        aggregate's blocked draws must equal."""
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, values.size, size=(resamples, values.size))
        means = values[idx].mean(axis=1)
        return (float(np.quantile(means, (1.0 - confidence) / 2.0)),
                float(np.quantile(means, 1.0 - (1.0 - confidence) / 2.0)))

    @pytest.mark.parametrize("n", [1, 7, 160])
    def test_blocked_bootstrap_is_the_unblocked_one(self, n):
        rows = max(1, BOOTSTRAP_BLOCK_DRAWS // n)
        values = np.random.default_rng(n).normal(3.0, 2.0, size=n)
        utts = [self.utterance(v) for v in values]
        for resamples in (1, rows, rows + 1, 10_000):
            report = aggregate(utts, bootstrap_resamples=resamples, seed=5)
            assert report.ci95_si_sdri == self.unblocked_ci(
                values, resamples, seed=5), resamples

    def test_bootstrap_peak_allocation_under_a_quarter(self):
        # 160 utterances is the separate-eval benchmark's manifest; one
        # (10,000 x 160) draw and its gather hold 25.6 MB at once
        values = np.random.default_rng(0).normal(3.0, 2.0, size=160)
        utts = [self.utterance(v) for v in values]
        peaks = []
        for run in (lambda: self.unblocked_ci(values, 10_000, seed=0),
                    lambda: aggregate(utts, bootstrap_resamples=10_000)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 4, peaks
