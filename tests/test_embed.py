"""Embedding providers: oracle separability, waveform-feature calibration,
store round trips and projection-head gradients."""

import struct

import numpy as np
import pytest

from masksep.embed import (
    AudioFeatureEmbedder,
    EmbeddingStore,
    OracleEmbedder,
    ProjectionHead,
    Temperature,
    load_store,
    project,
    project_backward,
    read_store_manifest,
    save_store,
    unit_normalize,
    write_store_manifest,
)
from masksep.spectral import Waveform
from masksep.synthdata import DEFAULT_CLASSES, build_embedder, calibration_prototypes
from oracles import audio_embedding, audio_features


class TestOracleEmbedder:
    def test_determinism(self):
        e = OracleEmbedder(num_classes=4, dim=16, seed=3)
        a = e.embed("audio", 2, instance_seed=7)
        b = e.embed("audio", 2, instance_seed=7)
        assert np.array_equal(a, b)

    def test_noise_free_cross_modal_structure(self):
        # with sigma = 0 the same-class cross-modal cosine is a fixed value
        # computable from the anchor construction, and exceeds cross-class
        e = OracleEmbedder(num_classes=4, dim=16, seed=0, noise_sigma=0.0)
        same = [
            float(np.dot(e.embed("audio", c), e.embed("text", c))) for c in range(4)
        ]
        cross = [
            float(np.dot(e.embed("audio", c), e.embed("text", k)))
            for c in range(4)
            for k in range(4)
            if c != k
        ]
        # oracle: compute the expected same-class value directly from the
        # anchors and offsets
        for c, got in enumerate(same):
            ua = unit_normalize(e.anchors[c] + e.offsets[0])
            ut = unit_normalize(e.anchors[c] + e.offsets[1])
            assert got == pytest.approx(float(np.dot(ua, ut)), abs=1e-12)
        assert min(same) > max(cross)

    def test_discrimination_gap_with_noise(self):
        e = OracleEmbedder(num_classes=2, dim=16, seed=1, noise_sigma=0.1)
        rng = np.random.default_rng(2)
        within, across = [], []
        for _ in range(100):
            c = int(rng.integers(2))
            s1, s2 = int(rng.integers(10_000)), int(rng.integers(10_000))
            m1, m2 = rng.choice(["audio", "text", "video"], size=2)
            within.append(float(np.dot(e.embed(m1, c, s1), e.embed(m2, c, s2))))
            across.append(float(np.dot(e.embed(m1, c, s1), e.embed(m2, 1 - c, s2))))
        assert np.mean(within) - np.mean(across) > 0.3

    def test_unknown_class_rejected(self):
        e = OracleEmbedder(num_classes=2, dim=8)
        with pytest.raises(ValueError, match="class"):
            e.embed("audio", 5)

    def test_unit_norm(self):
        e = OracleEmbedder(num_classes=3, dim=16, seed=4)
        for c in range(3):
            assert np.linalg.norm(e.embed("video", c, 11)) == pytest.approx(
                1.0, abs=1e-9
            )


@pytest.fixture(scope="module")
def embedders():
    return build_embedder(DEFAULT_CLASSES, dim=16, seed=0)


class TestAudioFeatureEmbedder:

    def test_clean_sources_land_near_anchors(self, embedders):
        oracle, audio = embedders
        # held-out prototypes (different seed than the calibration set)
        for class_id, wav in calibration_prototypes(DEFAULT_CLASSES, per_class=4,
                                                    seed=123):
            cos = float(np.dot(audio.embed(wav), oracle.anchor("audio", class_id)))
            assert cos >= 0.8, f"class {class_id}: {cos}"

    def test_silence_rejected(self, embedders):
        _, audio = embedders
        with pytest.raises(ValueError, match="zero-energy"):
            audio.embed(Waveform(np.zeros(4096), 16000))

    def test_power_of_two_scaling_is_bit_exact(self, embedders):
        _, audio = embedders
        rng = np.random.default_rng(5)
        w = Waveform(rng.standard_normal(8192) * 0.1, 16000)
        doubled = Waveform(2.0 * w.samples, 16000)
        assert np.array_equal(audio.embed(w), audio.embed(doubled))

    def test_general_scaling_is_close(self, embedders):
        _, audio = embedders
        rng = np.random.default_rng(6)
        w = Waveform(rng.standard_normal(8192) * 0.1, 16000)
        scaled = Waveform(0.37 * w.samples, 16000)
        assert np.allclose(audio.embed(w), audio.embed(scaled), atol=1e-9)

    def test_save_load_round_trip(self, embedders, tmp_path):
        _, audio = embedders
        audio.save(tmp_path / "emb.json")
        loaded = AudioFeatureEmbedder.load(tmp_path / "emb.json")
        assert np.array_equal(loaded.projection, audio.projection)
        w = Waveform(np.random.default_rng(7).standard_normal(4096), 16000)
        assert np.array_equal(loaded.embed(w), audio.embed(w))

    def test_full_length_embedding_matches_per_waveform_path(self, embedders):
        # a separated mixture's length: 256 frames through the batched STFT
        _, audio = embedders
        w = Waveform(np.random.default_rng(12).standard_normal(65535) * 0.1,
                     16000)
        assert np.array_equal(audio.features(w.samples[None])[0],
                              audio_features(audio, w))
        assert np.array_equal(audio.embed(w), audio_embedding(audio, w))

    def test_rows_embed_as_they_would_alone(self, embedders):
        # 2048-sample crops, as a policy step's reconstructions are
        _, audio = embedders
        x = np.random.default_rng(13).standard_normal((5, 2048))
        x[3] *= 1e-3
        rows = audio.embed_rows(x)
        assert len(rows) == 5
        for row, samples in zip(rows, x):
            alone = audio_embedding(audio, Waveform(samples, 16000))
            assert np.array_equal(row, alone)

    def test_silent_row_rejected(self, embedders):
        _, audio = embedders
        x = np.random.default_rng(14).standard_normal((3, 2048))
        x[1] = 0.0
        with pytest.raises(ValueError, match="zero-energy"):
            audio.embed_rows(x)

    @pytest.mark.parametrize("length", [512, 777, 2048, 65535])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_stack_features_match_lone_waveforms(self, embedders, n, length):
        # the reductions run over the whole (N, T, F) stack at once: each
        # row must still reduce as its waveform would alone, at fft_size,
        # an odd length, a crop's and a separated mixture's length
        _, audio = embedders
        assert audio.fft_size == 512
        rng = np.random.default_rng(length + n)
        x = rng.standard_normal((n, length)) * rng.uniform(1e-3, 2.0, (n, 1))
        feats = audio.features(x)
        assert feats.shape == (n, audio.feature_dim)
        for row, samples in zip(feats, x):
            assert np.array_equal(row, audio_features(audio, Waveform(samples, 16000)))

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_one_silent_row_in_a_stack_rejected(self, embedders, n):
        _, audio = embedders
        x = np.random.default_rng(15).standard_normal((n, 2048))
        x[n // 2] = 0.0
        with pytest.raises(ValueError, match="cannot embed a zero-energy waveform"):
            audio.features(x)

    def test_mixture_sits_between_classes(self, embedders):
        oracle, audio = embedders
        protos = dict()
        for class_id, wav in calibration_prototypes(DEFAULT_CLASSES, per_class=1,
                                                    seed=9):
            protos[class_id] = wav
        mix = Waveform(protos[0].samples + protos[2].samples, 16000)
        e_mix = audio.embed(mix)
        e_clean = audio.embed(protos[0])
        anchor = oracle.anchor("audio", 0)
        assert float(np.dot(e_clean, anchor)) > float(np.dot(e_mix, anchor))


class TestStore:
    def make_store(self, n=5, dim=8, seed=0):
        rng = np.random.default_rng(seed)
        store = EmbeddingStore(dim)
        for i in range(n):
            for modality in ("audio", "text", "video"):
                store.add(modality, f"item_{i}", f"class_{i % 2}",
                          rng.standard_normal(dim).astype(np.float32))
        return store

    def test_round_trip_bit_exact(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "store.embd"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.dimension == store.dimension
        assert len(loaded) == len(store)
        for modality, item_id, label, vec in store.items():
            assert loaded.label(modality, item_id) == label
            assert np.array_equal(loaded.get(modality, item_id),
                                  store.get(modality, item_id))

    def test_empty_store_round_trip(self, tmp_path):
        store = EmbeddingStore(16)
        save_store(store, tmp_path / "empty.embd")
        loaded = load_store(tmp_path / "empty.embd")
        assert len(loaded) == 0 and loaded.dimension == 16

    def test_dimension_conflict_rejected(self):
        store = EmbeddingStore(8)
        with pytest.raises(ValueError, match="dimension"):
            store.add("audio", "x", "c", np.zeros(4, dtype=np.float32))

    def test_duplicate_rejected(self):
        store = EmbeddingStore(4)
        store.add("audio", "x", "c", np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("audio", "x", "c", np.ones(4, dtype=np.float32))

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.embd"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_store(bad)

    def test_truncated_file_rejected(self, tmp_path):
        store = self.make_store(n=2)
        path = tmp_path / "store.embd"
        save_store(store, path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_store(path)
        # every cut, from inside the magic to inside the last vector, is a
        # ValueError that names the file
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="store.embd"):
                load_store(path)
        # a byte that is not UTF-8 in an id or a class label names the file
        # and the field (the first id starts after the 18-byte file header
        # and the 3-byte record header)
        id_len = struct.unpack_from("<H", data, 19)[0]
        for pos, what in ((21, "record 0 id"), (23 + id_len, "record 0 class")):
            flipped = bytearray(data)
            flipped[pos] = 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(ValueError, match=f"store.embd: {what} "):
                load_store(path)

    def test_manifest_round_trip(self, tmp_path):
        store = self.make_store(n=3)
        path = tmp_path / "store.manifest"
        write_store_manifest(path, store, {("audio", "item_0"): "items/a.wav"})
        records = read_store_manifest(path)
        assert len(records) == len(store)
        assert ("audio", "item_0", "class_0", "items/a.wav") in records


class TestProjectionHead:
    def test_identity_head_normalizes(self):
        head = ProjectionHead.identity(4)
        e = np.array([[3.0, 0.0, 4.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        assert np.allclose(project(head, e),
                           [[0.6, 0.0, 0.8, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def test_zero_weight_nonzero_bias(self):
        head = ProjectionHead(weight=np.zeros((3, 3)), bias=np.array([0.0, 2.0, 0.0]))
        e = np.random.default_rng(0).standard_normal((3, 3))
        assert np.allclose(project(head, e), [[0.0, 1.0, 0.0]] * 3)

    def test_gradient_matches_finite_differences(self):
        # loss = sum(up * project(head, E)) over a multi-row block, so the
        # analytic gradients are sums over the rows
        rng = np.random.default_rng(8)
        h = 1e-6
        for n in (1, 2, 5, 1, 2, 5, 1, 2, 5, 3):
            d = 5
            head = ProjectionHead(weight=rng.standard_normal((d, d)),
                                  bias=rng.standard_normal(d))
            e = rng.standard_normal((n, d))
            up = rng.standard_normal((n, d))
            d_w, d_b = project_backward(head, e, up)

            def loss(hd):
                return float(np.sum(up * project(hd, e)))

            for idx in np.ndindex(d, d):
                w_plus = head.copy()
                w_plus.weight[idx] += h
                w_minus = head.copy()
                w_minus.weight[idx] -= h
                fd = (loss(w_plus) - loss(w_minus)) / (2 * h)
                assert d_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            for i in range(d):
                b_plus = head.copy()
                b_plus.bias[i] += h
                b_minus = head.copy()
                b_minus.bias[i] -= h
                fd = (loss(b_plus) - loss(b_minus)) / (2 * h)
                assert d_b[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            project(ProjectionHead.identity(4), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="does not match"):
            project(ProjectionHead.identity(4), np.zeros(4))
        with pytest.raises(ValueError, match="does not match"):
            project_backward(ProjectionHead.identity(4), np.ones((2, 3)),
                             np.ones((2, 4)))

    def test_zero_norm_row_rejected(self):
        head = ProjectionHead(weight=np.eye(3), bias=np.zeros(3))
        with pytest.raises(ValueError, match="zero vector"):
            project(head, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_temperature_clamp():
    t = Temperature(log_tau=50.0)
    assert t.tau == pytest.approx(1e3)
    t.clamp()
    assert t.log_tau == pytest.approx(np.log(1e3))
    t2 = Temperature(log_tau=float(np.log(0.07)))
    assert t2.tau == pytest.approx(0.07)
