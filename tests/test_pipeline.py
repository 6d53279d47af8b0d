"""Dataset loading and item-preparation glue."""

import json
import shutil

import numpy as np
import pytest

from masksep import pipeline, reward, rl
from masksep.align import HeadSet, discrimination_gap
from masksep.embed import ProjectionHead, project
from masksep.reward import modality_vector
from masksep.separator import init_model
from masksep.spectral import Waveform, apply_mask_reconstruct, stft
from masksep.synthdata import build_dataset
from masksep.wavio import read_wav, write_wav


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe") / "ds"
    build_dataset(root, n_items=14, seed=4, duration=8192)
    return pipeline.load_dataset(root)


class TestLoadDataset:
    def test_splits_partition_records(self, dataset):
        counts = {s: len(dataset.split(s)) for s in ("train", "val", "test")}
        assert sum(counts.values()) == 14
        assert counts["train"] >= counts["val"]

    def test_store_and_embedder_attached(self, dataset):
        assert dataset.store.dimension == 16
        assert dataset.embedder.projection is not None

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pipeline.load_dataset(tmp_path)

    def test_line_separator_inside_a_record(self, dataset, tmp_path):
        # a JSON string may hold U+2028 unescaped; only "\n" ends a record
        for name in ("embeddings.embd", "audio_embedder.json"):
            shutil.copy(dataset.root / name, tmp_path / name)
        records = [dict(r) for r in dataset.records]
        records[0]["target_class"] += "\u2028"
        (tmp_path / "manifest.jsonl").write_text("".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in records),
            encoding="utf-8")
        assert pipeline.load_dataset(tmp_path).records == records


class TestPrepareTrainItems:
    def test_items_carry_reward_targets_and_irm(self, dataset):
        cfg = rl.RlConfig(segment_samples=4096, seed=1)
        items = pipeline.prepare_train_items(dataset, "train", cfg)
        assert items
        for item in items:
            assert item.reward_target.shape == (dataset.store.dimension,)
            assert np.all(np.isfinite(item.reward_target))
            assert item.ideal_mask.shape == item.mix_spec.bins.shape

    def test_crops_are_seed_deterministic(self, dataset):
        cfg = rl.RlConfig(segment_samples=4096, seed=1)
        a = pipeline.prepare_train_items(dataset, "train", cfg)
        b = pipeline.prepare_train_items(dataset, "train", cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.log_mag, y.log_mag)

    def test_different_seed_moves_crops(self, dataset):
        a = pipeline.prepare_train_items(
            dataset, "train", rl.RlConfig(segment_samples=4096, seed=1)
        )
        b = pipeline.prepare_train_items(
            dataset, "train", rl.RlConfig(segment_samples=4096, seed=2)
        )
        assert any(
            not np.array_equal(x.log_mag, y.log_mag) for x, y in zip(a, b)
        )

    def test_query_modality_selection(self, dataset):
        for modality in ("text", "audio", "video"):
            cfg = rl.RlConfig(segment_samples=4096, query_modality=modality)
            items = pipeline.prepare_train_items(dataset, "val", cfg)
            rec = dataset.split("val")[0]
            expected = dataset.store.get(modality, rec["item_id"])
            assert np.array_equal(items[0].query, expected)

    def test_reward_mode_selection(self, dataset):
        rec = dataset.split("val")[0]
        for mode in ("text", "video"):
            cfg = rl.RlConfig(segment_samples=4096, reward_mode=mode)
            items = pipeline.prepare_train_items(dataset, "val", cfg)
            expected = dataset.store.get(mode, rec["item_id"])
            assert np.array_equal(items[0].reward_target, expected)

    def test_batched_reward_targets_match_one_item_builds(self, dataset,
                                                          monkeypatch):
        # a 3-crop bin budget splits the crops into several batches; each
        # target must be the bytes of its item's reconstruction embedded alone
        cfg = rl.RlConfig(segment_samples=4096, seed=1)
        f, t = stft(Waveform(np.zeros(4096), 16000), pipeline.STFT).bins.shape
        sizes = []
        real = reward.reconstruct
        monkeypatch.setattr(reward, "REWARD_BATCH_BINS", 3 * f * t)
        monkeypatch.setattr(reward, "reconstruct",
                            lambda mixes, masks: sizes.append(len(masks))
                            or real(mixes, masks))
        items = pipeline.prepare_train_items(dataset, "train", cfg)
        assert len(sizes) > 2 and set(sizes[:-1]) == {3}
        for item in items:
            alone = dataset.embedder.embed(
                apply_mask_reconstruct(item.mix_spec, item.ideal_mask))
            expected = modality_vector(
                cfg.reward_mode, alone,
                dataset.store.get("text", item.item_id),
                dataset.store.get("video", item.item_id))
            assert item.reward_target.tobytes() == expected.tobytes()

    def test_silent_target_falls_back_to_stored_audio(self, dataset,
                                                      tmp_path):
        root = tmp_path / "ds"
        shutil.copytree(dataset.root, root)
        rec = dataset.split("train")[1]
        ref = read_wav(root / rec["references"][0])
        write_wav(root / rec["references"][0],
                  Waveform(np.zeros_like(ref.samples), ref.sample_rate))
        silent = pipeline.load_dataset(root)
        cfg = rl.RlConfig(segment_samples=4096, seed=1, batch_size=2,
                          reward_mode="audio")
        items = pipeline.prepare_train_items(silent, "train", cfg)
        assert np.array_equal(items[1].reward_target,
                              silent.store.get("audio", rec["item_id"]))
        others = pipeline.prepare_train_items(dataset, "train", cfg)
        for i in (0, 2, 3):
            assert np.array_equal(items[i].reward_target,
                                  others[i].reward_target)

    def test_segment_shorter_than_window_rejected(self, dataset):
        cfg = rl.RlConfig(segment_samples=256)
        with pytest.raises(ValueError, match="window"):
            pipeline.prepare_train_items(dataset, "train", cfg)


class TestSeparateAndEvaluate:
    def test_round_trip_through_manifest(self, dataset, tmp_path):
        model = init_model(np.random.default_rng(0), query_dim=16)
        manifest = pipeline.separate_split(
            model, dataset, "test", "text", tmp_path / "est"
        )
        records = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(records) == len(dataset.split("test"))
        utts = pipeline.evaluate_manifest(manifest)
        assert len(utts) == len(records)
        for utt in utts:
            assert utt.category in {r["category"] for r in records}

    def test_gap_entries_all_vs_split(self, dataset):
        all_entries = pipeline.gap_entries(dataset, "all")
        test_entries = pipeline.gap_entries(dataset, "test")
        assert len(all_entries) == 14
        assert len(test_entries) == len(dataset.split("test"))
        capped = pipeline.gap_entries(dataset, "all", max_items=3)
        assert len(capped) == 3


class TestGapEntries:
    def test_float32_files_are_held_as_float32(self, dataset):
        entries = pipeline.gap_entries(dataset, "all")
        assert len(entries) == len(dataset.records)
        for rec, entry in zip(dataset.records, entries):
            assert entry.sample_rate == rec["sample_rate"]
            for samples, path in ((entry.target, rec["references"][0]),
                                  (entry.mixture, rec["mixture"])):
                assert samples.dtype == np.float32
                assert np.array_equal(samples,
                                      read_wav(dataset.root / path).samples)

    def test_float64_samples_float32_cannot_hold_stay_float64(self, dataset,
                                                              tmp_path):
        from scipy.io import wavfile

        root = tmp_path / "ds"
        shutil.copytree(dataset.root, root)
        rec = dataset.records[0]
        fine = np.random.default_rng(3).standard_normal(8192) * 0.1
        assert not np.array_equal(fine.astype(np.float32), fine)
        wavfile.write(root / rec["mixture"], rec["sample_rate"], fine)
        entry = pipeline.gap_entries(pipeline.load_dataset(root), "all",
                                     max_items=1)[0]
        assert entry.mixture.dtype == np.float64
        assert entry.mixture.tobytes() == fine.tobytes()
        assert entry.target.dtype == np.float32

    def test_gap_is_the_gap_over_float64_waveforms(self, dataset):
        # the oracle embeds the float64 waveforms read_wav returns
        rng = np.random.default_rng(7)
        heads = HeadSet.identity(16)
        heads.audio = ProjectionHead(rng.standard_normal((16, 16)),
                                     rng.standard_normal(16))
        heads.text = ProjectionHead(rng.standard_normal((16, 16)),
                                    rng.standard_normal(16))
        got = discrimination_gap(pipeline.gap_entries(dataset, "all"),
                                 dataset.embedder, heads)

        def z_audio(key):
            return project(heads.audio, [
                dataset.embedder.embed(read_wav(dataset.root / key(rec)))
                for rec in dataset.records])

        zt = project(heads.text, [dataset.store.get("text", rec["item_id"])
                                  for rec in dataset.records])
        z_target = z_audio(lambda rec: rec["references"][0])
        z_mix = z_audio(lambda rec: rec["mixture"])
        expected = (np.einsum("ij,ij->i", zt, z_target)
                    - np.einsum("ij,ij->i", zt, z_mix))
        assert got.per_item == expected.tolist()
        assert got.mean == float(expected.mean())


def test_hash_id_stable_across_processes():
    # the seeding helper must not depend on Python's salted hash(); the
    # frozen value pins the polynomial-rolling definition
    assert pipeline.hash_id("item_0042") == pipeline.hash_id("item_0042")
    assert pipeline.hash_id("item_0042") != pipeline.hash_id("item_0043")
    assert pipeline.hash_id("item_0042") == 1291204140
