"""The WAV codec against scipy.io.wavfile: the same bytes written, the same
samples read, and a named error for what it does not take."""

import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from masksep.spectral import Waveform
from masksep.wavio import _read_checked, check_wav, read_wav, write_wav

EXTENSIBLE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def stored(path):
    """(rate, samples as stored) of the reader, every rate accepted."""
    return _read_checked(path, 16000, "accept")


def scipy_read(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        return wavfile.read(path)


def assert_same_as_scipy(path):
    rate, data = stored(path)
    want_rate, want = scipy_read(path)
    assert rate == want_rate
    assert data.dtype == want.dtype.newbyteorder("=")
    assert data.tobytes() == want.astype(data.dtype).tobytes()


def chunk(name: bytes, body: bytes, order="<") -> bytes:
    """One chunk, with the pad byte an odd-sized body takes."""
    return name + struct.pack(order + "I", len(body)) + body + b"\0" * (
        len(body) % 2)


def wave_file(path, *chunks, order="<"):
    body = b"WAVE" + b"".join(chunks)
    magic = b"RIFF" if order == "<" else b"RIFX"
    path.write_bytes(magic + struct.pack(order + "I", len(body)) + body)
    return path


def fmt_body(tag, rate, width, bits, channels=1, order="<") -> bytes:
    return struct.pack(order + "HHIIHH", tag, channels, rate,
                       rate * width * channels, width * channels, bits)


def pcm16(n, seed=0):
    return (np.random.default_rng(seed).standard_normal(n) * 3000).astype(
        np.int16)


class TestWrite:
    @pytest.mark.parametrize("n", [1, 2, 7, 4096, 65535])
    @pytest.mark.parametrize("rate", [8000, 16000, 44100])
    def test_bytes_equal_scipy(self, tmp_path, n, rate):
        samples = np.random.default_rng(n).standard_normal(n) * 0.3
        write_wav(tmp_path / "ours.wav", Waveform(samples, rate))
        wavfile.write(tmp_path / "scipy.wav", rate, samples.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (
            tmp_path / "scipy.wav").read_bytes()


class TestRead:
    @pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
    @pytest.mark.parametrize("n", [1, 999, 16384])
    def test_scipy_written_files(self, tmp_path, dtype, n):
        rng = np.random.default_rng(n)
        data = (pcm16(n, n) if dtype == "int16"
                else rng.standard_normal(n).astype(dtype))
        wavfile.write(tmp_path / "x.wav", 22050, data)
        assert_same_as_scipy(tmp_path / "x.wav")
        back = read_wav(tmp_path / "x.wav", 22050)
        scale = 32768.0 if dtype == "int16" else 1.0
        assert back.samples.tobytes() == (
            data.astype(np.float64) / scale).tobytes()
        assert check_wav(tmp_path / "x.wav", 22050) == n

    @pytest.mark.parametrize("tag, width, bits, dtype", [
        (1, 2, 16, "i2"), (3, 4, 32, "f4"), (3, 8, 64, "f8")])
    def test_rifx(self, tmp_path, tag, width, bits, dtype):
        data = np.random.default_rng(1).standard_normal(300) * 1000
        raw = data.astype(">" + dtype).tobytes()
        path = wave_file(tmp_path / "x.wav",
                         chunk(b"fmt ", fmt_body(tag, 16000, width, bits,
                                                 order=">"), ">"),
                         chunk(b"data", raw, ">"), order=">")
        assert_same_as_scipy(path)
        assert np.array_equal(stored(path)[1], data.astype(dtype))

    @pytest.mark.parametrize("tag, width, bits", [(1, 2, 16), (3, 4, 32)])
    def test_extensible(self, tmp_path, tag, width, bits):
        fmt = fmt_body(0xFFFE, 16000, width, bits) + struct.pack(
            "<HHI", 22, bits, 4) + struct.pack("<I", tag) + EXTENSIBLE_GUID_TAIL
        data = pcm16(500) if tag == 1 else np.linspace(-1, 1, 500,
                                                       dtype=np.float32)
        path = wave_file(tmp_path / "x.wav", chunk(b"fmt ", fmt),
                         chunk(b"data", data.tobytes()))
        assert_same_as_scipy(path)
        assert stored(path)[1].tobytes() == data.tobytes()

    def test_odd_sized_unknown_chunk_before_data(self, tmp_path):
        data = pcm16(101)
        path = wave_file(tmp_path / "x.wav",
                         chunk(b"fmt ", fmt_body(1, 16000, 2, 16)),
                         chunk(b"LIST", b"abc"), chunk(b"junk", b"x" * 5),
                         chunk(b"data", data.tobytes()))
        assert_same_as_scipy(path)
        assert stored(path)[1].tobytes() == data.tobytes()


class TestRejected:
    def test_channel_count_is_the_fmt_chunks(self, tmp_path):
        wavfile.write(tmp_path / "x.wav", 16000, pcm16(300).reshape(100, 3))
        with pytest.raises(ValueError, match="expected mono audio, got 3 "
                                             "channels"):
            read_wav(tmp_path / "x.wav")

    @pytest.mark.parametrize("data, name", [
        (np.zeros(10, np.uint8), "uint8"), (np.zeros(10, np.int32), "int32")])
    def test_unsupported_sample_format(self, tmp_path, data, name):
        wavfile.write(tmp_path / "x.wav", 16000, data)
        with pytest.raises(ValueError,
                           match=f"unsupported sample format {name}; use "
                                 "PCM 16-bit or IEEE float-32/64$"):
            check_wav(tmp_path / "x.wav")

    @pytest.mark.parametrize("chunks", [
        (chunk(b"data", b"\0" * 8),),
        (chunk(b"fmt ", fmt_body(1, 16000, 2, 16)),),
        (chunk(b"fmt ", fmt_body(2, 16000, 2, 16)), chunk(b"data", b"\0" * 8)),
        (chunk(b"fmt ", b"\1" * 12), chunk(b"data", b"\0" * 8)),
    ], ids=["no fmt", "no data", "ADPCM", "short fmt"])
    def test_garbled_header_is_named(self, tmp_path, chunks):
        path = wave_file(tmp_path / "x.wav", *chunks)
        with pytest.raises(ValueError,
                           match=f"{path}: not a readable WAV file \\("):
            read_wav(path)

    def test_data_chunk_past_the_end_is_truncated(self, tmp_path):
        path = wave_file(tmp_path / "x.wav",
                         chunk(b"fmt ", fmt_body(1, 16000, 2, 16)),
                         b"data" + struct.pack("<I", 400) + b"\0" * 200)
        with pytest.raises(ValueError, match="truncated WAV file: its data "
                                             "chunk gives 400 bytes"):
            read_wav(path)

    def test_non_finite_float64_sample(self, tmp_path):
        wavfile.write(tmp_path / "x.wav", 16000, np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            read_wav(tmp_path / "x.wav")
