"""Glue between on-disk datasets and the training/evaluation loops."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .align import GapEntry
from .embed import MODALITIES, AudioFeatureEmbedder, EmbeddingStore, load_store
from .metrics import UtteranceEval, si_sdri
from .reward import embed_reconstructions, modality_vector
from .rl import RlConfig, TrainItem
from .separator import SeparatorModel, forward
from .spectral import (
    StftConfig,
    Waveform,
    apply_mask_reconstruct,
    ideal_ratio_mask,
    log_compress,
    stft,
)
from .wavio import RESAMPLE_HINT, read_wav, write_wav

# the separator's one STFT: a mask means something only on the grid it was
# learned on, so this is a constant of the package, not a setting
STFT = StftConfig(fft_size=1024, hop=256, window_size=1024)


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


_STRING = ((str,), "a string")
_PATHS = ((list,), "a non-empty list of strings")

# what each key the package reads from a dataset manifest record must hold
_RECORD_KEYS = {
    **dict.fromkeys(("item_id", "split", "mixture", "target_class"), _STRING),
    "sample_rate": ((int,), "an integer"),
    "references": _PATHS,
}

# the same for an evaluation manifest record
_EVAL_KEYS = {
    "mixture": _STRING,
    "references": _PATHS,
    "estimates": _PATHS,
    "item_id": _STRING,
    "category": ((str, type(None)), "a string or null"),
}


def _check_record(path: Path, lineno: int, rec: dict, keys: dict,
                  optional=()) -> None:
    """ValueError naming the file and the line where ``rec`` lacks a key
    of ``keys`` that is not ``optional``, or holds a value of another kind
    (a list must hold strings and at least one)."""
    for key, (kinds, what) in keys.items():
        if key not in rec:
            if key in optional:
                continue
            raise ValueError(f"{path}: line {lineno}: record has no {key!r}")
        value = rec[key]
        if type(value) not in kinds or type(value) is list and not (
                value and all(type(item) is str for item in value)):
            raise ValueError(f"{path}: line {lineno}: {key!r} is {value!r}, "
                             f"not {what}")


def load_dataset(root) -> Dataset:
    """The manifest, store and audio embedder of a ``synth`` directory.
    ValueError names the file, and the line of a manifest record, where a
    record is unusable or not at the embedder's sample rate, an item lacks
    a vector in the store, or the embedder's dimension is not the store's."""
    root = Path(root)
    manifest = root / "manifest.jsonl"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.jsonl under {root}")
    store_path = root / "embeddings.embd"
    embedder_path = root / "audio_embedder.json"
    store = load_store(store_path)
    embedder = AudioFeatureEmbedder.load(embedder_path)
    if embedder.dim != store.dimension:
        raise ValueError(f"{embedder_path}: embedder dim {embedder.dim} is not "
                         f"the dimension {store.dimension} of {store_path}")
    records = []
    for lineno, rec in _jsonl_records(manifest):
        _check_record(manifest, lineno, rec, _RECORD_KEYS)
        if rec["sample_rate"] != embedder.sample_rate:
            raise ValueError(
                f"{manifest}: line {lineno}: sample_rate {rec['sample_rate']} "
                f"is not the rate {embedder.sample_rate} of {embedder_path}")
        for modality in MODALITIES:
            if (modality, rec["item_id"]) not in store:
                raise ValueError(
                    f"{manifest}: line {lineno}: {store_path} has no "
                    f"{modality} vector for item {rec['item_id']!r}")
        records.append(rec)
    return Dataset(root=root, records=records, store=store, embedder=embedder)


def read_item_wav(dataset: Dataset, rec: dict, path: str, reader=None):
    """read_wav, or ``reader`` (wavio.check_wav), of a file a manifest record
    names; ValueError naming the manifest and the item when that fails,
    with no advice to resample, which no dataset command offers."""
    try:
        return (reader or read_wav)(dataset.root / path,
                                    expected_rate=rec["sample_rate"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"{dataset.root / 'manifest.jsonl'}: item "
                         f"{rec['item_id']!r}: "
                         f"{str(exc).removesuffix(RESAMPLE_HINT)}") from None


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
    return modality_vector(modality, store.get("audio", item_id),
                           store.get("text", item_id),
                           store.get("video", item_id))


def prepare_train_items(
    dataset: Dataset,
    split: str,
    cfg: RlConfig,
) -> list[TrainItem]:
    """Crop each item (fixed, seeded), transform, and build its query, its
    ideal ratio mask and its reward target once; rl.warm_start weights the
    mask's bins from the crop itself when it needs them. The reward's audio
    embedding is that of the target source's reconstruction through its
    ideal ratio mask, matching how estimates are formed during training;
    equal-length crops are reconstructed and embedded together, in the
    reward's batches, and a silent reconstruction falls back to the item's
    stored audio vector.
    A segment or a mixture shorter than the STFT window is a ValueError,
    the first raised before any WAV is read, the second naming the item."""
    window = STFT.window_size
    if cfg.segment_samples < window:
        raise ValueError(f"segment_samples is shorter than the STFT window: "
                         f"segment_samples {cfg.segment_samples} < "
                         f"window_size {window}")
    records = dataset.split(split)
    mixes, masks = [], []
    for rec in records:
        mix = read_item_wav(dataset, rec, rec["mixture"])
        target_ref = read_item_wav(dataset, rec, rec["references"][0])
        total = len(mix)
        if total < window:
            raise ValueError(f"{dataset.root / 'manifest.jsonl'}: item "
                             f"{rec['item_id']!r}: waveform too short: "
                             f"{total} samples < window_size {window}")
        segment = min(cfg.segment_samples, total)
        start = _crop_start(rec["item_id"], cfg.seed, total, segment)
        mix_crop = Waveform(mix.samples[start : start + segment], mix.sample_rate)
        ref_crop = Waveform(target_ref.samples[start : start + segment],
                            target_ref.sample_rate)
        mixes.append(stft(mix_crop, STFT))
        masks.append(ideal_ratio_mask(stft(ref_crop, STFT), mixes[-1]))
    embeds = embed_reconstructions(dataset.embedder, mixes, masks)

    items = []
    for rec, mix_spec, irm, audio in zip(records, mixes, masks, embeds):
        if audio is None:
            audio = dataset.store.get("audio", rec["item_id"])
        items.append(
            TrainItem(
                item_id=rec["item_id"],
                category=rec["target_class"],
                mix_spec=mix_spec,
                log_mag=log_compress(mix_spec),
                query=_query_vector(cfg.query_modality, dataset.store,
                                    rec["item_id"]),
                reward_target=modality_vector(
                    cfg.reward_mode,
                    audio,
                    dataset.store.get("text", rec["item_id"]),
                    dataset.store.get("video", rec["item_id"]),
                ),
                ideal_mask=irm,
            )
        )
    return items


def separate_record(
    model: SeparatorModel,
    dataset: Dataset,
    rec: dict,
    query_modality: str,
) -> Waveform:
    """Deterministic full-length inference for one manifest record."""
    mix = read_item_wav(dataset, rec, rec["mixture"])
    query = _query_vector(query_modality, dataset.store, rec["item_id"])
    return separate_waveform(model, mix, query)


def separate_waveform(
    model: SeparatorModel,
    mix: Waveform,
    query: np.ndarray,
) -> Waveform:
    """Mask the mixture with the deterministic proposal and resynthesize."""
    spec = stft(mix, STFT)
    proposal, _ = forward(model, log_compress(spec), query, keep_cache=False)
    return apply_mask_reconstruct(spec, proposal)


def separate_split(
    model: SeparatorModel,
    dataset: Dataset,
    split: str,
    query_modality: str,
    out_dir,
) -> Path:
    """Run inference over a split; write estimate WAVs plus an evaluation
    manifest pairing them with their references."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eval_records = []
    for rec in dataset.split(split):
        est = separate_record(model, dataset, rec, query_modality)
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
    """Score every record of an evaluation manifest. ValueError names the
    manifest when it holds no record, and the line of a record that is
    unusable, names a file that cannot be read, or cannot be scored."""
    path = Path(manifest_path)
    utterances = []
    for lineno, rec in _jsonl_records(path):
        _check_record(path, lineno, rec, _EVAL_KEYS,
                      optional=("item_id", "category"))
        refs, ests = rec["references"], rec["estimates"]
        if len(refs) != len(ests):
            raise ValueError(f"{path}: line {lineno}: {len(refs)} references "
                             f"but {len(ests)} estimates")
        try:
            refs = [read_wav(p, rate_policy="accept") for p in refs]
            ests = [read_wav(p, rate_policy="accept") for p in ests]
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
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not utterances:
        raise ValueError(f"{path}: holds no record")
    return utterances


def _float32_if_exact(samples: np.ndarray) -> np.ndarray:
    """``samples`` as float32 when float32 holds every one exactly (as it
    does a float-32 or PCM-16 file's), else as given."""
    narrow = samples.astype(np.float32)
    return narrow if np.array_equal(narrow, samples) else samples


def gap_entries(dataset: Dataset, split: str = "all",
                max_items: int | None = None):
    """Discrimination-gap evaluation items: per record, the query text
    vector with the clean target's and the two-source mixture's samples,
    held as float32 where that is exact, which halves what the items keep
    resident through a curriculum. ``split`` may be a split name or
    "all"."""
    records = dataset.records if split == "all" else dataset.split(split)
    entries = []
    for rec in records:
        mix = read_item_wav(dataset, rec, rec["mixture"])
        target = read_item_wav(dataset, rec, rec["references"][0])
        entries.append(
            GapEntry(
                text_vector=dataset.store.get("text", rec["item_id"]),
                target=_float32_if_exact(target.samples),
                mixture=_float32_if_exact(mix.samples),
                sample_rate=mix.sample_rate,
            )
        )
        if max_items is not None and len(entries) >= max_items:
            break
    return entries
