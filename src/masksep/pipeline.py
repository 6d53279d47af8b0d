"""Glue between on-disk datasets and the training/evaluation loops."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .align import GapEntry
from .embed import AudioFeatureEmbedder, EmbeddingStore, load_store
from .metrics import UtteranceEval, si_sdri
from .reward import RewardTargets, query_mixup
from .rl import RlConfig, TrainItem
from .separator import SeparatorModel, forward
from .spectral import (
    Mask,
    StftConfig,
    Waveform,
    apply_mask_reconstruct,
    ideal_ratio_mask,
    log_compress,
    stft,
)
from .wavio import read_wav, write_wav


@dataclass
class Dataset:
    root: Path
    records: list
    store: EmbeddingStore
    embedder: AudioFeatureEmbedder

    def split(self, name: str) -> list:
        return [r for r in self.records if r["split"] == name]


def _jsonl_records(path: Path):
    """(line number, record) for each non-blank line of a JSON-lines file;
    ValueError naming the file and the line where it is not UTF-8 text or a
    line is not a JSON object."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None
    # split at newlines only: str.splitlines also splits at U+2028 and
    # other separators that a JSON string may hold unescaped
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: line {lineno}: not a JSON record ({exc.msg}, "
                f"column {exc.colno})"
            ) from None
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: line {lineno}: not a JSON object")
        yield lineno, rec


# what each key the package reads from a dataset manifest record must hold
_RECORD_KEYS = {
    **dict.fromkeys(("item_id", "split", "mixture", "target_class"),
                    (str, "a string")),
    "sample_rate": (int, "an integer"),
    "references": (list, "a non-empty list of strings"),
}


def load_dataset(root) -> Dataset:
    """The manifest, store and audio embedder of a ``synth`` directory.
    Every manifest record is checked here; ValueError names the manifest
    and the line of the first one that is unusable."""
    root = Path(root)
    manifest = root / "manifest.jsonl"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.jsonl under {root}")
    records = []
    for lineno, rec in _jsonl_records(manifest):
        for key, (kind, what) in _RECORD_KEYS.items():
            if key not in rec:
                raise ValueError(
                    f"{manifest}: line {lineno}: record has no {key!r}")
            value = rec[key]
            if type(value) is not kind or kind is list and not (
                    value and all(type(ref) is str for ref in value)):
                raise ValueError(f"{manifest}: line {lineno}: {key!r} is "
                                 f"{value!r}, not {what}")
        records.append(rec)
    store = load_store(root / "embeddings.embd")
    embedder = AudioFeatureEmbedder.load(root / "audio_embedder.json")
    return Dataset(root=root, records=records, store=store, embedder=embedder)


def _crop_start(item_id: str, seed: int, total: int, segment: int) -> int:
    if segment >= total:
        return 0
    rng = np.random.default_rng((seed, hash_id(item_id)))
    return int(rng.integers(0, total - segment + 1))


def hash_id(item_id: str) -> int:
    """Stable non-negative integer from an item id (Python's hash is
    salted per process, so it cannot be used for reproducible seeding)."""
    acc = 0
    for ch in item_id.encode("utf-8"):
        acc = (acc * 131 + ch) % (2**31 - 1)
    return acc


def _query_vector(modality: str, store: EmbeddingStore, item_id: str) -> np.ndarray:
    if modality == "mixup":
        return query_mixup(store.get("audio", item_id),
                           store.get("video", item_id),
                           store.get("text", item_id))
    return store.get(modality, item_id)


def prepare_train_items(
    dataset: Dataset,
    split: str,
    cfg: RlConfig,
    stft_cfg: StftConfig,
) -> list[TrainItem]:
    """Crop each item (fixed, seeded), transform, and cache the reward-side
    target embeddings. The reward's audio target is the reconstruction of
    the target source through its ideal ratio mask, matching how targets
    are formed during training."""
    items = []
    for rec in dataset.split(split):
        mix = read_wav(dataset.root / rec["mixture"],
                       expected_rate=rec["sample_rate"])
        target_ref = read_wav(dataset.root / rec["references"][0],
                              expected_rate=rec["sample_rate"])
        total = len(mix)
        segment = min(cfg.segment_samples, total)
        if segment < stft_cfg.window_size:
            raise ValueError("segment_samples is shorter than the STFT window")
        start = _crop_start(rec["item_id"], cfg.seed, total, segment)
        mix_crop = Waveform(mix.samples[start : start + segment], mix.sample_rate)
        ref_crop = Waveform(target_ref.samples[start : start + segment],
                            target_ref.sample_rate)

        mix_spec = stft(mix_crop, stft_cfg)
        ref_spec = stft(ref_crop, stft_cfg)
        irm = ideal_ratio_mask(ref_spec, mix_spec)
        ideal_recon = apply_mask_reconstruct(mix_spec, irm)
        if float(np.max(np.abs(ideal_recon.samples))) == 0.0:
            target_audio_embed = dataset.store.get("audio", rec["item_id"])
        else:
            target_audio_embed = dataset.embedder.embed(ideal_recon)

        magnitude = np.abs(mix_spec.bins)
        weight = magnitude / max(magnitude.sum(), 1e-12)
        items.append(
            TrainItem(
                item_id=rec["item_id"],
                category=rec["target_class"],
                mix_spec=mix_spec,
                log_mag=log_compress(mix_spec),
                query=_query_vector(cfg.query_modality, dataset.store,
                                    rec["item_id"]),
                targets=RewardTargets(
                    audio=target_audio_embed,
                    text=dataset.store.get("text", rec["item_id"]),
                    video=dataset.store.get("video", rec["item_id"]),
                ),
                ideal_mask=irm.values,
                bce_weight=weight,
            )
        )
    return items


def separate_record(
    model: SeparatorModel,
    dataset: Dataset,
    rec: dict,
    query_modality: str,
    stft_cfg: StftConfig,
) -> Waveform:
    """Deterministic full-length inference for one manifest record."""
    mix = read_wav(dataset.root / rec["mixture"], expected_rate=rec["sample_rate"])
    query = _query_vector(query_modality, dataset.store, rec["item_id"])
    return separate_waveform(model, mix, query, stft_cfg)


def separate_waveform(
    model: SeparatorModel,
    mix: Waveform,
    query: np.ndarray,
    stft_cfg: StftConfig,
) -> Waveform:
    """Mask the mixture with the deterministic proposal and resynthesize."""
    spec = stft(mix, stft_cfg)
    proposal, _ = forward(model, log_compress(spec), query, keep_cache=False)
    return apply_mask_reconstruct(spec, Mask(proposal))


def separate_split(
    model: SeparatorModel,
    dataset: Dataset,
    split: str,
    query_modality: str,
    stft_cfg: StftConfig,
    out_dir,
) -> Path:
    """Run inference over a split; write estimate WAVs plus an evaluation
    manifest pairing them with their references."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eval_records = []
    for rec in dataset.split(split):
        est = separate_record(model, dataset, rec, query_modality, stft_cfg)
        est_path = out / f"{rec['item_id']}_est.wav"
        write_wav(est_path, est)
        eval_records.append(
            {
                "item_id": rec["item_id"],
                "category": rec["target_class"],
                "mixture": str(dataset.root / rec["mixture"]),
                "references": [str(dataset.root / rec["references"][0])],
                "estimates": [str(est_path)],
            }
        )
    manifest = out / "eval_manifest.jsonl"
    with open(manifest, "w") as fh:
        for rec in eval_records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return manifest


def evaluate_manifest(manifest_path, with_bss: bool = False) -> list[UtteranceEval]:
    """Score every record of an evaluation manifest."""
    path = Path(manifest_path)
    utterances = []
    for lineno, rec in _jsonl_records(path):
        for key in ("references", "estimates", "mixture"):
            if key not in rec:
                raise ValueError(f"{path}: line {lineno}: record has no {key!r}")
        refs = [read_wav(p, rate_policy="accept") for p in rec["references"]]
        ests = [read_wav(p, rate_policy="accept") for p in rec["estimates"]]
        mix = read_wav(rec["mixture"], rate_policy="accept")
        utterances.append(
            si_sdri(
                ests,
                refs,
                mix,
                item_id=rec.get("item_id", ""),
                category=rec.get("category"),
                with_bss=with_bss,
            )
        )
    return utterances


def gap_entries(dataset: Dataset, split: str = "all",
                max_items: int | None = None):
    """Discrimination-gap evaluation items: per record, the query text
    vector with the clean target and the two-source mixture. ``split`` may
    be a split name or "all"."""
    records = dataset.records if split == "all" else dataset.split(split)
    entries = []
    for rec in records:
        mix = read_wav(dataset.root / rec["mixture"],
                       expected_rate=rec["sample_rate"])
        target = read_wav(dataset.root / rec["references"][0],
                          expected_rate=rec["sample_rate"])
        entries.append(
            GapEntry(
                text_vector=dataset.store.get("text", rec["item_id"]),
                target=target,
                mixture=mix,
            )
        )
        if max_items is not None and len(entries) >= max_items:
            break
    return entries
