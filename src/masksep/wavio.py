"""Mono WAV files: read as PCM 16-bit or IEEE float-32, written as float-32.

Readers enforce a sample-rate policy: ``reject`` (default) raises on any
rate other than the expected one, ``resample`` converts with a polyphase
filter, ``accept`` keeps whatever the file carries. A truncated or garbled
file, or one holding non-finite samples, is a ValueError naming the file.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from .spectral import Waveform

RATE_POLICIES = ("reject", "resample", "accept")


def _read_checked(path, expected_rate: int, rate_policy: str):
    """(rate, samples as stored) after every check read_wav makes."""
    if rate_policy not in RATE_POLICIES:
        raise ValueError(f"rate_policy must be one of {RATE_POLICIES}")
    with open(path, "rb") as fh:
        head = fh.read(8)
        size = os.fstat(fh.fileno()).st_size
    # the RIFF chunk size counts every byte after its own field, so a file
    # shorter than it was cut (scipy would return the samples it found)
    if len(head) == 8 and head[:4] in (b"RIFF", b"RIFX"):
        order = "little" if head[:4] == b"RIFF" else "big"
        declared = 8 + int.from_bytes(head[4:], order)
        if size < declared:
            raise ValueError(
                f"{path}: truncated WAV file: its header gives {declared} "
                f"bytes, the file has {size}"
            )
    try:
        with warnings.catch_warnings():
            # unknown chunks are skipped; a short data chunk is caught above
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except (ValueError, TypeError, ArithmeticError, NameError,
            struct.error) as exc:
        # scipy's parser fails on garbled headers with any of these
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from None
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.ndim} channels")
    # checked before the cast, which warns on a signaling NaN
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise ValueError(f"{path}: WAV file holds non-finite samples")
    if data.dtype not in (np.int16, np.float32, np.float64):
        raise ValueError(
            f"{path}: unsupported sample format {data.dtype}; "
            "use PCM 16-bit or IEEE float-32"
        )
    if rate != expected_rate and rate_policy == "reject":
        raise ValueError(
            f"{path}: sample rate {rate} != expected {expected_rate} "
            "(pass rate_policy='resample' to convert)"
        )
    return rate, data


def read_wav(path, expected_rate: int = 16000, rate_policy: str = "reject") -> Waveform:
    """Read a mono WAV file and apply the sample-rate policy."""
    rate, data = _read_checked(path, expected_rate, rate_policy)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    if rate != expected_rate and rate_policy == "resample":
        g = np.gcd(int(rate), int(expected_rate))
        samples = resample_poly(samples, expected_rate // g, rate // g)
        rate = expected_rate
    return Waveform(samples=samples, sample_rate=int(rate))


def check_wav(path, expected_rate: int = 16000, rate_policy: str = "reject") -> int:
    """Make every check read_wav makes and return the file's sample count,
    without building its waveform."""
    return _read_checked(path, expected_rate, rate_policy)[1].shape[0]


def write_wav(path, w: Waveform) -> None:
    """Write a mono IEEE float-32 WAV file."""
    wavfile.write(path, w.sample_rate, w.samples.astype(np.float32))
