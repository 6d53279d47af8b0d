"""Waveform <-> time-frequency conversion, masking and reconstruction.

Analysis uses centered framing with reflection padding of half a window on
both ends and a periodic Hann window, taking the frames as a strided view
of the padded signal. Synthesis is weighted overlap-add normalized by the
squared-window envelope, which reconstructs the input exactly (up to
rounding) wherever the envelope is nonzero. One overlap-add of hop-sized
blocks serves the synthesis, its envelope and the configuration's
invertibility check.

All functions are pure; every returned array is freshly allocated, except
the read-only Hann window that configurations of one window size share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, check_fields

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


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of T frames of width W placed ``hop`` apart: (T-1)*hop + W samples,
    for each (T, W) stack along any leading axes.

    Each frame is cut into ``ceil(W / hop)`` hop-sized blocks (the last one
    zero-padded) and block ``k`` of every frame is added in one slice-add.
    Going from the last offset to the first sums every output sample in
    frame order, as a per-frame loop would; the padding adds +0.0 to sums
    that start at +0.0 and so can never be -0.0, which leaves them as they
    are.
    """
    *lead, n_frames, width = frames.shape
    n_blocks = -(-width // hop)
    if width % hop:
        frames = np.pad(frames, [(0, 0)] * (frames.ndim - 1)
                        + [(0, n_blocks * hop - width)])
    blocks = frames.reshape(*lead, n_frames, n_blocks, hop)
    out = np.zeros((*lead, n_frames + n_blocks - 1, hop))
    for k in range(n_blocks - 1, -1, -1):
        out[..., k : k + n_frames, :] += blocks[..., k, :]
    return out.reshape(*lead, -1)[..., : (n_frames - 1) * hop + width]


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters, each checked by errors.check_fields
    against its entry in BOUNDS; hop <= window_size <= fft_size."""

    BOUNDS = {"fft_size": 1, "hop": 1, "window_size": 1}

    fft_size: int = 1024
    hop: int = 256
    window_size: int = 1024

    def __post_init__(self):
        check_fields(self, self.BOUNDS)
        if not (self.hop <= self.window_size <= self.fft_size):
            raise ConfigError(
                f"need hop <= window_size <= fft_size, got "
                f"({self.fft_size}, {self.hop}, {self.window_size})"
            )
        # Overlap-add of the squared window must never vanish inside a
        # frame span, otherwise synthesis cannot invert analysis.
        w2 = self.window_array() ** 2
        n_frames = self.window_size // self.hop + 1
        envelope = _overlap_add(np.broadcast_to(w2, (n_frames, w2.size)), self.hop)
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


def analyze(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Frame-major (N, T, F) centered STFT of every row of an (N, L) sample
    stack, through one reflect pad, one strided frame view and one rfft."""
    pad = cfg.window_size // 2
    x = np.pad(x, ((0, 0), (pad, pad)), mode="reflect")
    # every hop-th window start: (L + 2 pad - window_size) // hop + 1 frames
    frames = sliding_window_view(x, cfg.window_size, axis=1)[:, :: cfg.hop]
    return np.fft.rfft(frames * cfg.window_array(), n=cfg.fft_size, axis=2)


def stft(w: Waveform, cfg: StftConfig) -> Spectrogram:
    """Centered short-time Fourier transform of a waveform."""
    n = len(w)
    if n < cfg.window_size:
        raise ValueError(
            f"waveform too short: {n} samples < window_size {cfg.window_size}"
        )
    return Spectrogram(bins=analyze(w.samples[None], cfg)[0].T, config=cfg,
                       sample_rate=w.sample_rate, num_samples=n)


def _synthesize(frames: np.ndarray, cfg: StftConfig, target_len: int) -> np.ndarray:
    """(N, target_len) weighted overlap-add of an (N, T, F) frame-major
    stack through one irfft; the N rows share one envelope per call."""
    if target_len < 0:
        raise ValueError("target_len must be non-negative")
    window = cfg.window_array()
    frames = np.fft.irfft(frames, n=cfg.fft_size, axis=2)[..., : cfg.window_size]
    frames *= window

    out = _overlap_add(frames, cfg.hop)
    envelope = _overlap_add(np.broadcast_to(window**2, frames.shape[1:]), cfg.hop)
    total = out.shape[1]
    # samples where the envelope vanishes are left as summed
    np.divide(out, envelope, out=out, where=envelope > _NOLA_EPS)

    pad = cfg.window_size // 2
    if pad + target_len > total:
        raise ValueError(
            f"target_len {target_len} exceeds the {total - pad} samples "
            "covered by this spectrogram"
        )
    return out[:, pad : pad + target_len]


def istft(s: Spectrogram, target_len: int | None = None) -> Waveform:
    """Weighted overlap-add inverse of :func:`stft`."""
    if target_len is None:
        target_len = s.num_samples
    samples = _synthesize(s.bins.T[None], s.config, target_len)[0]
    return Waveform(samples=samples, sample_rate=s.sample_rate)


def reconstruct(mixes: list[Spectrogram], masks: list[np.ndarray]) -> np.ndarray:
    """Row i: mask i (F x T, in [0, 1]) under mixture i's phase, resynthesized.
    The mixtures share one configuration, shape and length, and their masked
    bins go through one irfft, stacked frame-major like stft's bins."""
    first = (mixes[0].config, mixes[0].bins.shape, mixes[0].num_samples)
    stack = np.empty((len(masks), *first[1][::-1]), dtype=np.complex128)
    for k, (mix, m) in enumerate(zip(mixes, masks, strict=True)):
        if m.shape != mix.bins.shape:
            raise ValueError(f"mask shape {m.shape} does not match "
                             f"spectrogram shape {mix.bins.shape}")
        if (mix.config, mix.bins.shape, mix.num_samples) != first:
            raise ValueError("a batch's mixtures must share their configuration, "
                             "shape and length")
        if not (m.min() >= 0.0 and m.max() <= 1.0):  # false on NaN too
            raise ValueError("mask holds a non-finite entry or one outside [0, 1]")
        # a float32 mask promotes to complex128 exactly
        np.multiply(m, mix.bins, out=stack[k].T, order="F")
    return _synthesize(stack, first[0], first[2])


def apply_mask_reconstruct(mix: Spectrogram, m: np.ndarray) -> Waveform:
    """Apply a magnitude mask under the mixture phase and resynthesize."""
    return Waveform(samples=reconstruct([mix], [m])[0],
                    sample_rate=mix.sample_rate)


def ideal_ratio_mask(target: Spectrogram, mix: Spectrogram,
                     floor: float = 1e-8) -> np.ndarray:
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
    return np.clip(ratio, 0.0, 1.0)


def log_compress(s: Spectrogram) -> np.ndarray:
    """ln(1 + |X|), the separator's input representation."""
    mag = np.abs(s.bins)
    return np.log1p(mag, out=mag)
