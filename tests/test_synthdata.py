"""Synthetic source generation and dataset construction."""

import json
import re

import numpy as np
import pytest

from masksep.spectral import StftConfig, Waveform, apply_mask_reconstruct, stft
from masksep.synthdata import (
    DEFAULT_CLASSES,
    SourceSpec,
    build_dataset,
    draw_source_spec,
    generate_source,
    make_mixture,
)
from oracles import si_sdr

CFG = StftConfig(1024, 256, 1024)


def spec_for(class_id, seed=0, duration=16384, **params):
    cls = DEFAULT_CLASSES[class_id]
    base = {"freq": (cls.low + cls.high) / 2}
    base.update(params)
    return SourceSpec(class_id=class_id, kind=cls.kind, params=base,
                      duration=duration, seed=seed)


class TestGenerateSource:
    def test_harmonic_energy_at_multiples(self):
        # oracle: spectral analysis; energy within +/-1 bin of k * f0 rows
        f0 = 200.0
        spec = SourceSpec(class_id=0, kind="tone_stack",
                          params={"freq": f0, "n_harmonics": 5},
                          duration=32768, seed=1)
        w = generate_source(spec)
        s = stft(w, CFG)
        power = (np.abs(s.bins) ** 2).sum(axis=1)
        freqs = np.fft.rfftfreq(CFG.fft_size, 1 / w.sample_rate)
        bin_hz = freqs[1]
        near = np.zeros(len(freqs), dtype=bool)
        for k in range(1, 6):
            near |= np.abs(freqs - k * f0) <= 1.5 * bin_hz
        assert power[near].sum() / power.sum() >= 0.80

    def test_determinism(self):
        spec = spec_for(2, seed=3)
        assert np.array_equal(generate_source(spec).samples,
                              generate_source(spec).samples)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            generate_source(spec_for(0, duration=0))

    def test_peak_normalized(self):
        for class_id in range(4):
            w = generate_source(spec_for(class_id, seed=class_id))
            assert np.abs(w.samples).max() == pytest.approx(0.5)

    def test_every_crop_keeps_energy(self):
        # burst envelopes never fully close, so short crops stay scoreable
        w = generate_source(spec_for(2, seed=9, duration=65535))
        for start in range(0, 65535 - 8192, 8192):
            crop = w.samples[start : start + 8192]
            assert np.abs(crop).sum() > 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_source(SourceSpec(0, "square", {"freq": 100}, 1000, 0))


class TestMakeMixture:
    def test_mixture_is_exact_sum(self):
        item = make_mixture([spec_for(0, 1), spec_for(1, 2)], [0.0, 2.0])
        total = item.references[0].samples + item.references[1].samples
        assert np.array_equal(item.mixture.samples, total)
        assert np.abs(item.mixture.samples - total).max() == 0.0

    def test_equal_snr_gives_equal_energy(self):
        item = make_mixture([spec_for(0, 3), spec_for(2, 4)], [0.0, 0.0])
        e0 = np.dot(item.references[0].samples, item.references[0].samples)
        e1 = np.dot(item.references[1].samples, item.references[1].samples)
        assert e0 == pytest.approx(e1, rel=1e-9)

    def test_snr_offset_scales_energy(self):
        item = make_mixture([spec_for(0, 5), spec_for(3, 6)], [0.0, 6.0])
        e0 = np.dot(item.references[0].samples, item.references[0].samples)
        e1 = np.dot(item.references[1].samples, item.references[1].samples)
        assert 10 * np.log10(e0 / e1) == pytest.approx(6.0, abs=1e-9)

    def test_class_collision_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            make_mixture([spec_for(1, 7), spec_for(1, 8)], [0.0, 0.0])

    def test_zeroed_interference_leaves_target(self):
        item = make_mixture([spec_for(0, 9), spec_for(1, 10)], [0.0, 300.0])
        # +300 dB offset scales the second source to vanishing energy
        assert np.allclose(item.mixture.samples, item.references[0].samples,
                           atol=1e-12)

    def test_irm_quality_floor(self):
        # the class bands are disjoint by construction: oracle-mask
        # separation must reach at least 8 dB SI-SDR on any pairing
        rng = np.random.default_rng(11)
        for a in range(4):
            for b in range(a + 1, 4):
                specs = [
                    draw_source_spec(DEFAULT_CLASSES[a], rng, duration=16384),
                    draw_source_spec(DEFAULT_CLASSES[b], rng, duration=16384),
                ]
                item = make_mixture(specs, [0.0, float(rng.uniform(-5, 5))])
                mix_spec = stft(item.mixture, CFG)
                from masksep.spectral import ideal_ratio_mask

                irm = ideal_ratio_mask(stft(item.references[0], CFG), mix_spec)
                est = apply_mask_reconstruct(mix_spec, irm)
                score = si_sdr(est, item.references[0])
                assert score >= 8.0, f"classes ({a},{b}): {score:.2f} dB"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    build_dataset(out, n_items=20, seed=7, duration=16384)
    return out


class TestBuildDataset:

    def test_split_sizes(self, dataset_dir):
        records = [
            json.loads(line)
            for line in (dataset_dir / "manifest.jsonl").read_text().splitlines()
        ]
        counts = {s: sum(r["split"] == s for r in records)
                  for s in ("train", "val", "test")}
        assert counts == {"train": 16, "val": 2, "test": 2}

    def test_referential_integrity(self, dataset_dir):
        from masksep.embed import load_store

        store = load_store(dataset_dir / "embeddings.embd")
        for line in (dataset_dir / "manifest.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert (dataset_dir / rec["mixture"]).exists()
            for ref in rec["references"]:
                assert (dataset_dir / ref).exists()
            for modality in ("audio", "text", "video"):
                assert (modality, rec["item_id"]) in store

    def test_store_manifest_names_each_vector_source(self, dataset_dir):
        # the audio vector is embedded from the target reference; text and
        # video come from the oracle and have no file
        from masksep.embed import AudioFeatureEmbedder, load_store
        from masksep.wavio import read_wav

        store = load_store(dataset_dir / "embeddings.embd")
        embedder = AudioFeatureEmbedder.load(dataset_dir / "audio_embedder.json")
        lines = [line.split("\t") for line in (
            dataset_dir / "embeddings.manifest").read_text().splitlines()]
        assert len(lines) == len(store)
        for modality, item_id, _, src in lines:
            if modality != "audio":
                assert src == "-"
                continue
            assert src == f"items/{item_id}_ref0.wav"
            vector = embedder.embed(read_wav(dataset_dir / src))
            assert np.allclose(vector, store.get("audio", item_id), atol=1e-5)

    def test_seed_determinism(self, dataset_dir, tmp_path):
        build_dataset(tmp_path / "again", n_items=20, seed=7, duration=16384)
        a = (dataset_dir / "manifest.jsonl").read_bytes()
        b = (tmp_path / "again" / "manifest.jsonl").read_bytes()
        assert a == b
        a_wav = (dataset_dir / "items" / "item_0000_mix.wav").read_bytes()
        b_wav = (tmp_path / "again" / "items" / "item_0000_mix.wav").read_bytes()
        assert a_wav == b_wav
        a_store = (dataset_dir / "embeddings.embd").read_bytes()
        b_store = (tmp_path / "again" / "embeddings.embd").read_bytes()
        assert a_store == b_store

    def test_wav_round_trip(self, dataset_dir):
        from masksep.wavio import read_wav

        w = read_wav(dataset_dir / "items" / "item_0000_mix.wav")
        assert w.sample_rate == 16000
        assert len(w) == 16384

    def test_too_few_classes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="classes"):
            build_dataset(tmp_path / "bad", n_items=4,
                          classes=DEFAULT_CLASSES[:1])


class TestWavIo:
    def test_pcm16_round_trip(self, tmp_path):
        from scipy.io import wavfile

        from masksep.wavio import read_wav

        rng = np.random.default_rng(12)
        samples = np.clip(rng.standard_normal(4000) * 0.2, -1, 32767 / 32768)
        wavfile.write(tmp_path / "x.wav", 16000,
                      np.round(samples * 32768.0).astype(np.int16))
        back = read_wav(tmp_path / "x.wav")
        assert np.abs(back.samples - samples).max() <= 1.0 / 32768.0

    def test_float32_round_trip(self, tmp_path):
        from masksep.wavio import read_wav, write_wav

        rng = np.random.default_rng(13)
        w = Waveform(rng.standard_normal(4000) * 0.3, 16000)
        write_wav(tmp_path / "y.wav", w)
        back = read_wav(tmp_path / "y.wav")
        assert np.array_equal(back.samples,
                              w.samples.astype(np.float32).astype(np.float64))

    def test_rate_policy_reject(self, tmp_path):
        from masksep.wavio import read_wav, write_wav

        w = Waveform(np.zeros(1000), 8000)
        write_wav(tmp_path / "z.wav", w)
        # the library names its own keyword; the CLI names its flag
        with pytest.raises(ValueError, match=re.escape(
                "sample rate 8000 != expected 16000 "
                "(pass rate_policy='resample' to convert)")):
            read_wav(tmp_path / "z.wav", expected_rate=16000)

    def test_rate_policy_resample(self, tmp_path):
        from masksep.wavio import read_wav, write_wav

        t = np.arange(8000) / 8000.0
        w = Waveform(0.4 * np.sin(2 * np.pi * 440.0 * t), 8000)
        write_wav(tmp_path / "r.wav", w)
        back = read_wav(tmp_path / "r.wav", expected_rate=16000,
                        rate_policy="resample")
        assert back.sample_rate == 16000
        assert len(back) == 16000

    def test_rate_policy_accept(self, tmp_path):
        from masksep.wavio import read_wav, write_wav

        w = Waveform(np.zeros(100), 22050)
        write_wav(tmp_path / "a.wav", w)
        back = read_wav(tmp_path / "a.wav", rate_policy="accept")
        assert back.sample_rate == 22050
