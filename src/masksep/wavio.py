"""Mono WAV files: read as PCM 16-bit or IEEE float-32/64, written as
float-32.

The reader walks the RIFF (little-endian) or RIFX (big-endian) chunks
itself: a ``fmt `` chunk, plain or ``WAVE_FORMAT_EXTENSIBLE``, then
``data``; every other chunk, odd-sized ones included, is skipped. The
writer emits the bytes ``scipy.io.wavfile.write`` gives a float-32 array:
an 18-byte ``fmt `` chunk (format tag 3), a ``fact`` chunk, then ``data``.
Neither imports scipy.

Readers enforce a sample-rate policy: ``reject`` (default) raises on any
rate other than the expected one, ``resample`` converts with a polyphase
filter (``scipy.signal``, imported only then), ``accept`` keeps whatever
the file carries. A truncated or garbled file, or one holding non-finite
samples, is a ValueError naming the file.
"""

from __future__ import annotations

import struct

import numpy as np

from .spectral import Waveform

RATE_POLICIES = ("reject", "resample", "accept")
# ends the reject policy's message; a caller without the keyword replaces it
RESAMPLE_HINT = " (pass rate_policy='resample' to convert)"

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# the last 8 bytes of an extensible format's sub-format GUID,
# {XXXXXXXX-0000-0010-8000-00AA00389B71}: its first 4 bytes hold the format
# tag, and those and the two groups after them are in the file's byte order
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_fmt(buf: bytes, at: int, size: int, order: str) -> tuple:
    """(format tag, channels, rate, block align, bits per sample) of the
    ``fmt `` chunk whose body starts at ``at``."""
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        order + "HHIIHH", buf, at)
    if tag == _EXTENSIBLE and size >= 18:
        if struct.unpack_from(order + "H", buf, at + 16)[0] < 22:
            raise ValueError("extensible fmt chunk without its sub-format")
        guid = buf[at + 24 : at + 40]
        if guid[4:] == struct.pack(order + "HH", 0, 0x10) + _GUID_TAIL:
            tag = struct.unpack_from(order + "I", guid)[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"format tag {tag:#06x} is neither PCM nor IEEE float")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(f"byte rate {byte_rate} != sample rate {rate} x "
                         f"block align {block_align}")
    return tag, channels, rate, block_align, bits


def _parse(buf: bytes) -> tuple:
    """(byte order, fmt fields, data offset, data bytes) of a RIFF/RIFX
    WAVE file held in ``buf``; ValueError or struct.error when its chunks
    cannot be followed."""
    if buf[:4] not in (b"RIFF", b"RIFX"):
        raise ValueError(f"file format {buf[:4]!r}, not RIFF or RIFX")
    order = "<" if buf[:4] == b"RIFF" else ">"
    end = 8 + struct.unpack_from(order + "I", buf, 4)[0]
    if buf[8:12] != b"WAVE":
        raise ValueError(f"RIFF form type {buf[8:12]!r}, not WAVE")
    fmt = data = None
    pos = 12
    while pos < end:
        if pos + 8 > len(buf) and data is not None:
            break  # a cut chunk header after the samples
        chunk, size = struct.unpack_from(order + "4sI", buf, pos)
        if chunk == b"fmt ":
            fmt = _parse_fmt(buf, pos + 8, size, order)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            data = (fmt, pos + 8, size)
        pos += 8 + size + (size & 1)  # an odd-sized chunk has a pad byte
    if data is None:
        raise ValueError("no data chunk")
    return (order, *data)


def _read_checked(path, expected_rate: int, rate_policy: str):
    """(rate, samples as stored, in native byte order) after every check
    read_wav makes."""
    if rate_policy not in RATE_POLICIES:
        raise ValueError(f"rate_policy must be one of {RATE_POLICIES}")
    with open(path, "rb") as fh:
        buf = fh.read()
    # the RIFF chunk size counts every byte after its own field, so a file
    # shorter than it was cut
    if len(buf) >= 8 and buf[:4] in (b"RIFF", b"RIFX"):
        size_field = "<I" if buf[:4] == b"RIFF" else ">I"
        declared = 8 + struct.unpack_from(size_field, buf, 4)[0]
        if len(buf) < declared:
            raise ValueError(
                f"{path}: truncated WAV file: its header gives {declared} "
                f"bytes, the file has {len(buf)}"
            )
    try:
        order, (tag, channels, rate, width, bits), start, size = _parse(buf)
    except (ValueError, struct.error) as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from None
    if channels != 1:
        raise ValueError(f"{path}: expected mono audio, got {channels} channels")
    if tag == _PCM and width == 2 and bits > 8:
        dtype = np.dtype(order + "i2")
    elif tag == _IEEE_FLOAT and width in (4, 8) and bits in (32, 64):
        dtype = np.dtype(f"{order}f{width}")
    else:
        name = "uint8" if tag == _PCM and bits <= 8 else (
            f"{'int' if tag == _PCM else 'float'}{8 * width}")
        raise ValueError(
            f"{path}: unsupported sample format {name}; "
            "use PCM 16-bit or IEEE float-32/64"
        )
    if start + size > len(buf):
        raise ValueError(
            f"{path}: truncated WAV file: its data chunk gives {size} bytes, "
            f"the file holds {len(buf) - start}"
        )
    data = np.frombuffer(buf, dtype, count=size // width, offset=start)
    data = data.astype(dtype.newbyteorder("="), copy=False)
    # checked before the cast, which warns on a signaling NaN
    if dtype.kind == "f" and not np.isfinite(data).all():
        raise ValueError(f"{path}: WAV file holds non-finite samples")
    if rate != expected_rate and rate_policy == "reject":
        raise ValueError(f"{path}: sample rate {rate} != expected "
                         f"{expected_rate}{RESAMPLE_HINT}")
    return rate, data


def read_wav(path, expected_rate: int = 16000, rate_policy: str = "reject") -> Waveform:
    """Read a mono WAV file and apply the sample-rate policy."""
    rate, data = _read_checked(path, expected_rate, rate_policy)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    if rate != expected_rate and rate_policy == "resample":
        from scipy.signal import resample_poly  # 76 MB, so only here
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
    data = np.ascontiguousarray(w.samples, dtype="<f4")
    rate, n = w.sample_rate, data.shape[0]
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + data.nbytes, b"WAVE",
        b"fmt ", 18, _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, n,
        b"data", data.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
