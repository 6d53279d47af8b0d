"""Waveform <-> time-frequency conversion, masking and reconstruction.

Analysis uses centered framing with reflection padding of half a window on
both ends and a periodic Hann window. Synthesis is weighted overlap-add
normalized by the squared-window envelope, which reconstructs the input
exactly (up to rounding) wherever the envelope is nonzero.

All functions are pure; every returned array is freshly allocated, except
the read-only Hann window that configurations of one window size share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

_NOLA_EPS = 1e-11


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length."""
    n = np.arange(length, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


@lru_cache(maxsize=None)
def _shared_window(length: int) -> np.ndarray:
    window = hann_window(length)
    window.flags.writeable = False
    return window


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters. hop <= window_size <= fft_size."""

    fft_size: int = 1024
    hop: int = 256
    window_size: int = 1024

    def __post_init__(self):
        if self.hop <= 0 or self.window_size <= 0 or self.fft_size <= 0:
            raise ConfigError("fft_size, hop and window_size must be positive")
        if not (self.hop <= self.window_size <= self.fft_size):
            raise ConfigError(
                f"need hop <= window_size <= fft_size, got "
                f"({self.fft_size}, {self.hop}, {self.window_size})"
            )
        # Overlap-add of the squared window must never vanish inside a
        # frame span, otherwise synthesis cannot invert analysis.
        w2 = self.window_array() ** 2
        envelope = np.zeros(2 * self.window_size)
        for start in range(0, self.window_size + 1, self.hop):
            envelope[start : start + self.window_size] += w2
        interior = envelope[self.window_size - self.hop : self.window_size]
        if interior.min() < _NOLA_EPS:
            raise ConfigError(
                f"Hann window at hop {self.hop} has a vanishing "
                "overlap-add envelope; pick hop <= window_size // 2"
            )

    def window_array(self) -> np.ndarray:
        """The periodic Hann window, built once per window size and shared
        read-only by every analysis and synthesis."""
        return _shared_window(self.window_size)

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class Waveform:
    """A mono signal: float64 samples plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class Spectrogram:
    """Complex F x T time-frequency matrix plus its provenance."""

    bins: np.ndarray
    config: StftConfig
    sample_rate: int
    num_samples: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 2:
            raise ValueError(f"expected an F x T matrix, got shape {bins.shape}")
        if bins.shape[0] != self.config.num_bins:
            raise ValueError(
                f"row count {bins.shape[0]} does not match "
                f"fft_size // 2 + 1 = {self.config.num_bins}"
            )
        if not np.all(np.isfinite(bins)):
            raise ValueError("spectrogram contains non-finite bins")
        object.__setattr__(self, "bins", bins)

    @property
    def shape(self):
        return self.bins.shape


@dataclass(frozen=True)
class Mask:
    """Real F x T matrix with entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"expected an F x T matrix, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("mask contains non-finite entries")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("mask entries must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def stft(w: Waveform, cfg: StftConfig) -> Spectrogram:
    """Centered short-time Fourier transform of a waveform."""
    n = len(w)
    if n < cfg.window_size:
        raise ValueError(
            f"waveform too short: {n} samples < window_size {cfg.window_size}"
        )
    pad = cfg.window_size // 2
    x = np.pad(w.samples, pad, mode="reflect")
    n_frames = (x.shape[0] - cfg.window_size) // cfg.hop + 1
    window = cfg.window_array()

    idx = np.arange(cfg.window_size)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    frames = x[idx] * window[None, :]
    bins = np.fft.rfft(frames, n=cfg.fft_size, axis=1).T
    return Spectrogram(bins=bins, config=cfg, sample_rate=w.sample_rate,
                       num_samples=n)


def istft(s: Spectrogram, target_len: int | None = None) -> Waveform:
    """Weighted overlap-add inverse of :func:`stft`."""
    cfg = s.config
    if target_len is None:
        target_len = s.num_samples
    if target_len < 0:
        raise ValueError("target_len must be non-negative")

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
    nonzero = envelope > _NOLA_EPS
    out[nonzero] /= envelope[nonzero]

    pad = cfg.window_size // 2
    if pad + target_len > total:
        raise ValueError(
            f"target_len {target_len} exceeds the {total - pad} samples "
            "covered by this spectrogram"
        )
    return Waveform(samples=out[pad : pad + target_len], sample_rate=s.sample_rate)


def apply_mask_reconstruct(mix: Spectrogram, m: Mask) -> Waveform:
    """Apply a magnitude mask under the mixture phase and resynthesize."""
    if m.values.shape != mix.bins.shape:
        raise ValueError(
            f"mask shape {m.values.shape} does not match "
            f"spectrogram shape {mix.bins.shape}"
        )
    masked = Spectrogram(
        bins=m.values * mix.bins,
        config=mix.config,
        sample_rate=mix.sample_rate,
        num_samples=mix.num_samples,
    )
    return istft(masked)


def ideal_ratio_mask(target: Spectrogram, mix: Spectrogram,
                     floor: float = 1e-8) -> Mask:
    """|target| / max(|mix|, floor), clipped to [0, 1]."""
    if target.bins.shape != mix.bins.shape:
        raise ValueError(
            f"shape mismatch: target {target.bins.shape} vs mix {mix.bins.shape}"
        )
    if target.config != mix.config:
        raise ValueError("target and mix were produced by different configs")
    if floor <= 0:
        raise ValueError("floor must be positive")
    ratio = np.abs(target.bins) / np.maximum(np.abs(mix.bins), floor)
    return Mask(np.clip(ratio, 0.0, 1.0))


def log_compress(s: Spectrogram) -> np.ndarray:
    """ln(1 + |X|), the separator's input representation."""
    return np.log1p(np.abs(s.bins))
