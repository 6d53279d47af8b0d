"""Dataset loading and item-preparation glue."""

import json
import shutil

import numpy as np
import pytest

from masksep import pipeline, rl
from masksep.separator import init_model
from masksep.spectral import StftConfig
from masksep.synthdata import build_dataset

STFT = StftConfig(512, 128, 512)


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
        items = pipeline.prepare_train_items(dataset, "train", cfg, STFT)
        assert items
        for item in items:
            assert item.targets.audio is not None
            assert item.targets.text is not None
            assert item.targets.video is not None
            assert item.ideal_mask.shape == item.mix_spec.bins.shape
            assert item.bce_weight.shape == item.mix_spec.bins.shape
            assert item.bce_weight.sum() == pytest.approx(1.0)

    def test_crops_are_seed_deterministic(self, dataset):
        cfg = rl.RlConfig(segment_samples=4096, seed=1)
        a = pipeline.prepare_train_items(dataset, "train", cfg, STFT)
        b = pipeline.prepare_train_items(dataset, "train", cfg, STFT)
        for x, y in zip(a, b):
            assert np.array_equal(x.log_mag, y.log_mag)

    def test_different_seed_moves_crops(self, dataset):
        a = pipeline.prepare_train_items(
            dataset, "train", rl.RlConfig(segment_samples=4096, seed=1), STFT
        )
        b = pipeline.prepare_train_items(
            dataset, "train", rl.RlConfig(segment_samples=4096, seed=2), STFT
        )
        assert any(
            not np.array_equal(x.log_mag, y.log_mag) for x, y in zip(a, b)
        )

    def test_query_modality_selection(self, dataset):
        for modality in ("text", "audio", "video"):
            cfg = rl.RlConfig(segment_samples=4096, query_modality=modality)
            items = pipeline.prepare_train_items(dataset, "val", cfg, STFT)
            rec = dataset.split("val")[0]
            expected = dataset.store.get(modality, rec["item_id"])
            assert np.array_equal(items[0].query, expected)

    def test_segment_shorter_than_window_rejected(self, dataset):
        cfg = rl.RlConfig(segment_samples=256)
        with pytest.raises(ValueError, match="window"):
            pipeline.prepare_train_items(dataset, "train", cfg, STFT)


class TestSeparateAndEvaluate:
    def test_round_trip_through_manifest(self, dataset, tmp_path):
        model = init_model(np.random.default_rng(0), query_dim=16)
        manifest = pipeline.separate_split(
            model, dataset, "test", "text", STFT, tmp_path / "est"
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


def test_hash_id_stable_across_processes():
    # the seeding helper must not depend on Python's salted hash(); the
    # frozen value pins the polynomial-rolling definition
    assert pipeline.hash_id("item_0042") == pipeline.hash_id("item_0042")
    assert pipeline.hash_id("item_0042") != pipeline.hash_id("item_0043")
    assert pipeline.hash_id("item_0042") == 1291204140
