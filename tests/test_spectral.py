"""Transform, masking and reconstruction contracts.

Derived expectations come from independent oracles: a direct windowed-DFT
energy computation for the sinusoid case, the closed frame-count formula,
and SI-SDR scoring of oracle-mask reconstructions.
"""

import numpy as np
import pytest

from masksep.errors import ConfigError
from masksep.spectral import (
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask_reconstruct,
    hann_window,
    ideal_ratio_mask,
    log_compress,
    reconstruct,
    stft,
)
from oracles import inverse_stft, si_sdr

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
    """The inverse STFT is reconstruction under a ones mask."""

    def test_round_trip(self):
        w = _rand_wave(65535, 4)
        rec = inverse_stft(stft(w, CFG))
        err = np.linalg.norm(rec - w.samples) / np.linalg.norm(w.samples)
        assert err <= 1e-6

    def test_round_trip_many_lengths(self):
        for seed, n in enumerate([1024, 1025, 4096, 10000, 16384, 65535]):
            w = _rand_wave(n, 100 + seed)
            rec = inverse_stft(stft(w, CFG))
            err = np.linalg.norm(rec - w.samples) / np.linalg.norm(w.samples)
            assert err <= 1e-6, f"length {n}"

    def test_zero_spectrogram_gives_silence(self):
        # 10 frames cover (10-1)*hop + window = 3328 padded samples, i.e.
        # 2816 usable ones once the centering pad is stripped
        s = Spectrogram(np.zeros((513, 10), dtype=complex), CFG, 16000, 2816)
        assert np.all(inverse_stft(s) == 0)

    def test_scaling_linearity(self):
        s = stft(_rand_wave(8192, 5), CFG)
        doubled = Spectrogram(2.0 * s.bins, CFG, 16000, 8192)
        assert np.allclose(inverse_stft(doubled), 2.0 * inverse_stft(s),
                           rtol=0, atol=1e-12)

    def test_target_len_beyond_coverage_rejected(self):
        s = stft(_rand_wave(4096, 6), CFG)
        with pytest.raises(ValueError):
            inverse_stft(s, target_len=100_000)


class TestMasking:
    def test_identity_mask_returns_mixture(self):
        w = _rand_wave(16384, 7)
        s = stft(w, CFG)
        rec = apply_mask_reconstruct(s, np.ones(s.bins.shape))
        err = np.linalg.norm(rec.samples - w.samples) / np.linalg.norm(w.samples)
        assert err <= 1e-6

    def test_zero_mask_returns_silence(self):
        s = stft(_rand_wave(16384, 8), CFG)
        silent = apply_mask_reconstruct(s, np.zeros(s.bins.shape))
        assert np.all(silent.samples == 0)

    def test_shape_mismatch_rejected(self):
        s = stft(_rand_wave(16384, 9), CFG)
        with pytest.raises(ValueError, match="shape"):
            apply_mask_reconstruct(s, np.ones((513, 3)))

    def test_mask_never_increases_magnitude(self):
        s = stft(_rand_wave(16384, 10), CFG)
        m = np.random.default_rng(11).uniform(0, 1, size=s.bins.shape)
        masked = m * np.abs(s.bins)
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
        assert np.allclose(m[strong], 1.0)

    def test_zero_target_gives_zero_mask(self):
        s = stft(_rand_wave(8192, 13), CFG)
        zero = Spectrogram(np.zeros_like(s.bins), CFG, 16000, 8192)
        assert np.all(ideal_ratio_mask(zero, s) == 0)

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
        assert m[in_band].mean() >= 0.95


def test_log_compress():
    s = stft(_rand_wave(4096, 17), CFG)
    assert np.array_equal(log_compress(s), np.log1p(np.abs(s.bins)))


def test_hann_window_is_periodic():
    w = hann_window(8)
    assert w[0] == 0.0
    assert np.allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8))


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([1.0, np.inf]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(10), 0)


def plain_stft(w, cfg):
    """The gather-and-window formula stft() must reproduce bit for bit:
    an index matrix over the padded signal, one row per frame."""
    pad = cfg.window_size // 2
    x = np.pad(w.samples, pad, mode="reflect")
    n_frames = (x.shape[0] - cfg.window_size) // cfg.hop + 1
    idx = np.arange(cfg.window_size)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    frames = x[idx] * cfg.window_array()[None, :]
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1).T


def plain_istft(s, target_len):
    """The per-frame overlap-add loop reconstruction must reproduce bit
    for bit."""
    cfg = s.config
    n_frames = s.bins.shape[1]
    window = cfg.window_array()
    frames = np.fft.irfft(s.bins.T, n=cfg.fft_size, axis=1)[:, : cfg.window_size]
    frames *= window[None, :]
    total = (n_frames - 1) * cfg.hop + cfg.window_size
    out = np.zeros(total)
    envelope = np.zeros(total)
    w2 = window**2
    for t in range(n_frames):
        start = t * cfg.hop
        out[start : start + cfg.window_size] += frames[t]
        envelope[start : start + cfg.window_size] += w2
    nonzero = envelope > 1e-11
    out[nonzero] /= envelope[nonzero]
    pad = cfg.window_size // 2
    return out[pad : pad + target_len]


def plain_nola_ok(hop, window_size):
    """The per-frame envelope loop StftConfig's invertibility check must
    agree with: does the squared-window overlap-add vanish inside a frame?"""
    w2 = hann_window(window_size) ** 2
    envelope = np.zeros(2 * window_size)
    for start in range(0, window_size + 1, hop):
        envelope[start : start + window_size] += w2
    return envelope[window_size - hop : window_size].min() >= 1e-11


class TestKernelsMatchPlainFormulas:
    # (fft_size, hop, window_size); the last two hops do not divide the window
    CONFIGS = [(1024, 256, 1024), (512, 256, 512), (256, 64, 256),
               (512, 128, 512), (1024, 300, 1000), (512, 100, 400)]

    @pytest.mark.parametrize("fft_size,hop,window_size", CONFIGS)
    def test_stft_and_istft_bitwise(self, fft_size, hop, window_size):
        cfg = StftConfig(fft_size=fft_size, hop=hop, window_size=window_size)
        for seed, n in enumerate([window_size, 2048, 5000, 65535]):
            w = _rand_wave(n, 200 + seed)
            s = stft(w, cfg)
            ref = plain_stft(w, cfg)
            assert s.bins.shape == ref.shape
            assert np.array_equal(s.bins, ref), f"bins, length {n}"
            # the frame-major rfft, transposed: the embedder's reductions
            # read this layout, and a C-order copy would round them apart
            assert s.bins.flags.f_contiguous
            # a masked spectrogram, as the reward and separate paths see it,
            # inverted from either layout to the bits of the C-order loop;
            # the envelope vanishes only at the padded signal's first
            # sample, which no target_len returns, and the longest one
            # reaches the last sample the frames cover
            m = np.random.default_rng(seed).uniform(0, 1, s.bins.shape)
            masked = Spectrogram(np.ascontiguousarray(m * s.bins), cfg,
                                 s.sample_rate, n)
            frame_major = Spectrogram(np.asfortranarray(masked.bins), cfg,
                                      s.sample_rate, n)
            covered = (s.bins.shape[1] - 1) * hop + window_size
            longest = covered - window_size // 2
            for target_len in (n, n // 3, longest):
                ref = plain_istft(masked, target_len)
                for spec in (masked, frame_major):
                    rec = inverse_stft(spec, target_len=target_len)
                    assert np.array_equal(rec, ref), \
                        f"samples, length {n}, target_len {target_len}"
            rec = apply_mask_reconstruct(s, m)
            assert np.array_equal(rec.samples, plain_istft(masked, n))

    def test_masked_spectrogram_is_frame_major(self, monkeypatch):
        # a C-order product rounds the same but makes irfft read strided
        # frames, so only its layout shows that regression
        seen = []
        real_irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda a, **kw: seen.append(a) or real_irfft(a, **kw))
        mix = stft(_rand_wave(5000, 7), CFG)
        apply_mask_reconstruct(mix, np.full(mix.bins.shape, 0.5))
        assert seen[0].shape == (1,) + mix.bins.T.shape
        assert seen[0].flags.c_contiguous

    @pytest.mark.parametrize("fft_size,hop,window_size", CONFIGS)
    def test_batched_reconstruction_bitwise(self, fft_size, hop, window_size):
        # every row of one batched reconstruction is the per-frame loop's
        # inverse of its own masked spectrogram
        cfg = StftConfig(fft_size=fft_size, hop=hop, window_size=window_size)
        rng = np.random.default_rng(fft_size + hop)
        mixes = [stft(_rand_wave(5000, 300 + k), cfg) for k in range(3)]
        masks = [rng.uniform(0, 1, mixes[0].bins.shape) for _ in range(5)]
        owners = [0, 0, 1, 2, 1]
        rows = reconstruct([mixes[k] for k in owners], masks)
        assert rows.shape == (5, 5000)
        for row, k, m in zip(rows, owners, masks):
            masked = Spectrogram(m * mixes[k].bins, cfg, 16000, 5000)
            assert np.array_equal(row, plain_istft(masked, 5000))

    def test_float32_mask_reconstructs_as_its_float64_copy(self):
        # a float32 proposal promotes to complex128 exactly, so it goes
        # into the product as it is, with the bits of a float64 copy
        mix = stft(_rand_wave(5000, 12), CFG)
        m = np.random.default_rng(13).uniform(0, 1, mix.bins.shape)
        m = m.astype(np.float32)
        assert np.array_equal(reconstruct([mix], [m]),
                              reconstruct([mix], [m.astype(np.float64)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.5])
    def test_mask_outside_the_unit_interval_rejected(self, bad):
        mix = stft(_rand_wave(4096, 14), CFG)
        m = np.full(mix.bins.shape, 0.5)
        m[3, 4] = bad
        with pytest.raises(ValueError, match=r"non-finite entry or one outside"):
            apply_mask_reconstruct(mix, m)

    def test_batch_of_mixed_configurations_rejected(self):
        other = StftConfig(fft_size=1024, hop=128, window_size=1024)
        mixes = [stft(_rand_wave(4096, 10), CFG), stft(_rand_wave(4096, 11), other)]
        masks = [np.full(mixes[0].bins.shape, 0.5), np.full(mixes[1].bins.shape, 0.5)]
        with pytest.raises(ValueError, match="must share"):
            reconstruct(mixes, masks)

    @pytest.mark.parametrize("window_size", [8, 15, 16, 33, 64])
    def test_config_check_matches_envelope_loop(self, window_size):
        for hop in range(1, window_size + 1):
            if plain_nola_ok(hop, window_size):
                StftConfig(fft_size=window_size, hop=hop, window_size=window_size)
            else:
                with pytest.raises(ConfigError, match="vanishing"):
                    StftConfig(fft_size=window_size, hop=hop,
                               window_size=window_size)
