"""Transform, masking and reconstruction contracts.

Derived expectations come from independent oracles: a direct windowed-DFT
energy computation for the sinusoid case, the closed frame-count formula,
and SI-SDR scoring of oracle-mask reconstructions.
"""

import numpy as np
import pytest

from masksep.errors import ConfigError
from masksep.metrics import si_sdr
from masksep.spectral import (
    Mask,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask_reconstruct,
    hann_window,
    ideal_ratio_mask,
    istft,
    log_compress,
    stft,
)

CFG = StftConfig(fft_size=1024, hop=256, window_size=1024)


def _rand_wave(n, seed, rate=16000):
    return Waveform(np.random.default_rng(seed).standard_normal(n), rate)


class TestStft:
    def test_zero_waveform_gives_zero_spectrogram(self):
        s = stft(Waveform(np.zeros(65535), 16000), CFG)
        assert np.all(s.bins == 0)

    def test_bin_centered_sinusoid_concentrates_energy(self):
        # oracle: a sinusoid at exactly k * fs / fft_size should put nearly
        # all per-frame energy into row k (Hann leaks into k +/- 1)
        k = 40
        fs = 16000
        freq = k * fs / CFG.fft_size
        t = np.arange(65535) / fs
        s = stft(Waveform(0.3 * np.sin(2 * np.pi * freq * t), fs), CFG)
        power = np.abs(s.bins) ** 2
        # ignore boundary frames touching the reflection padding
        interior = power[:, 4:-4]
        in_band = interior[k - 1 : k + 2].sum(axis=0)
        frac = in_band / interior.sum(axis=0)
        assert frac.min() >= 0.90

    def test_frame_count_formula(self):
        # floor((L + 2*(win/2) - win)/hop) + 1 with the documented config
        n = 65535
        expected = (n + 2 * (CFG.window_size // 2) - CFG.window_size) // CFG.hop + 1
        s = stft(_rand_wave(n, 0), CFG)
        assert s.bins.shape == (CFG.fft_size // 2 + 1, expected)
        assert expected == 256

    def test_too_short_waveform_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            stft(_rand_wave(CFG.window_size - 1, 1), CFG)

    def test_non_invertible_config_rejected(self):
        # hop == window: the periodic Hann envelope vanishes at frame joins
        with pytest.raises(ConfigError):
            StftConfig(fft_size=1024, hop=1024, window_size=1024)

    def test_linearity(self):
        a, b = _rand_wave(5000, 2), _rand_wave(5000, 3)
        sa, sb = stft(a, CFG), stft(b, CFG)
        s_sum = stft(Waveform(a.samples + 2.5 * b.samples, 16000), CFG)
        ref = sa.bins + 2.5 * sb.bins
        scale = np.abs(ref).max()
        assert np.abs(s_sum.bins - ref).max() <= 1e-9 * scale


class TestIstft:
    def test_round_trip(self):
        w = _rand_wave(65535, 4)
        rec = istft(stft(w, CFG))
        err = np.linalg.norm(rec.samples - w.samples) / np.linalg.norm(w.samples)
        assert err <= 1e-6

    def test_round_trip_many_lengths(self):
        for seed, n in enumerate([1024, 1025, 4096, 10000, 16384, 65535]):
            w = _rand_wave(n, 100 + seed)
            rec = istft(stft(w, CFG))
            err = np.linalg.norm(rec.samples - w.samples) / np.linalg.norm(w.samples)
            assert err <= 1e-6, f"length {n}"

    def test_zero_spectrogram_gives_silence(self):
        # 10 frames cover (10-1)*hop + window = 3328 padded samples, i.e.
        # 2816 usable ones once the centering pad is stripped
        s = Spectrogram(np.zeros((513, 10), dtype=complex), CFG, 16000, 2816)
        assert np.all(istft(s).samples == 0)

    def test_scaling_linearity(self):
        s = stft(_rand_wave(8192, 5), CFG)
        doubled = Spectrogram(2.0 * s.bins, CFG, 16000, 8192)
        assert np.allclose(istft(doubled).samples, 2.0 * istft(s).samples,
                           rtol=0, atol=1e-12)

    def test_target_len_beyond_coverage_rejected(self):
        s = stft(_rand_wave(4096, 6), CFG)
        with pytest.raises(ValueError):
            istft(s, target_len=100_000)


class TestMasking:
    def test_identity_mask_returns_mixture(self):
        w = _rand_wave(16384, 7)
        s = stft(w, CFG)
        rec = apply_mask_reconstruct(s, Mask(np.ones(s.bins.shape)))
        err = np.linalg.norm(rec.samples - w.samples) / np.linalg.norm(w.samples)
        assert err <= 1e-6

    def test_zero_mask_returns_silence(self):
        s = stft(_rand_wave(16384, 8), CFG)
        silent = apply_mask_reconstruct(s, Mask(np.zeros(s.bins.shape)))
        assert np.all(silent.samples == 0)

    def test_shape_mismatch_rejected(self):
        s = stft(_rand_wave(16384, 9), CFG)
        with pytest.raises(ValueError, match="shape"):
            apply_mask_reconstruct(s, Mask(np.ones((513, 3))))

    def test_mask_never_increases_magnitude(self):
        s = stft(_rand_wave(16384, 10), CFG)
        m = Mask(np.random.default_rng(11).uniform(0, 1, size=s.bins.shape))
        masked = m.values * np.abs(s.bins)
        assert np.all(masked <= np.abs(s.bins) + 1e-12)

    def test_irm_on_two_tone_mixture_separates(self):
        # oracle-mask separation of spectrally disjoint tones must score
        # well above 10 dB SI-SDR; freeze the achieved level as a floor
        fs = 16000
        t = np.arange(32768) / fs
        s1 = Waveform(0.4 * np.sin(2 * np.pi * 400.0 * t), fs)
        s2 = Waveform(0.4 * np.sin(2 * np.pi * 3100.0 * t), fs)
        mix = Waveform(s1.samples + s2.samples, fs)
        mix_spec = stft(mix, CFG)
        irm = ideal_ratio_mask(stft(s1, CFG), mix_spec)
        est = apply_mask_reconstruct(mix_spec, irm)
        score = si_sdr(est, s1)
        assert score >= 10.0
        assert score >= 25.0  # regression floor for the achieved value


class TestIdealRatioMask:
    def test_target_equals_mix_gives_ones(self):
        s = stft(_rand_wave(8192, 12), CFG)
        m = ideal_ratio_mask(s, s)
        strong = np.abs(s.bins) > 1e-6
        assert np.allclose(m.values[strong], 1.0)

    def test_zero_target_gives_zero_mask(self):
        s = stft(_rand_wave(8192, 13), CFG)
        zero = Spectrogram(np.zeros_like(s.bins), CFG, 16000, 8192)
        assert np.all(ideal_ratio_mask(zero, s).values == 0)

    def test_disjoint_bands_give_indicator_mask(self):
        # band-limited noise in separate bands: in-band mask ~ 1
        fs = 16000
        rng = np.random.default_rng(14)

        def band_noise(lo, hi, seed):
            x = np.random.default_rng(seed).standard_normal(32768)
            spec = np.fft.rfft(x)
            freqs = np.fft.rfftfreq(32768, 1 / fs)
            spec[(freqs < lo) | (freqs > hi)] = 0
            y = np.fft.irfft(spec, 32768)
            return Waveform(0.4 * y / np.abs(y).max(), fs)

        a = band_noise(300, 1200, 15)
        b = band_noise(3000, 5000, 16)
        mix_spec = stft(Waveform(a.samples + b.samples, fs), CFG)
        m = ideal_ratio_mask(stft(a, CFG), mix_spec)
        freqs = np.fft.rfftfreq(CFG.fft_size, 1 / fs)
        in_band = (freqs >= 400) & (freqs <= 1100)
        assert m.values[in_band].mean() >= 0.95


def test_log_compress():
    s = stft(_rand_wave(4096, 17), CFG)
    assert np.allclose(log_compress(s), np.log1p(np.abs(s.bins)))


def test_hann_window_is_periodic():
    w = hann_window(8)
    assert w[0] == 0.0
    assert np.allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8))


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([1.0, np.inf]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(10), 0)
