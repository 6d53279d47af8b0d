"""Seeded synthetic dataset generation.

Four default source classes occupy disjoint spectral regions so that
ideal-ratio-mask separation is strong by construction and oracle
embeddings are cleanly discriminable:

- ``tone_stack``   harmonic stack, fundamentals 120-220 Hz
- ``chirp``        linear sweep inside 1.5-3 kHz
- ``noise_burst``  band-limited noise gated by a periodic burst envelope,
                   4-6 kHz
- ``am_tone``      amplitude-modulated carrier, 6.8-7.6 kHz

Every item is a two-source mixture stored so the mixture equals the sum of
its scaled references bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import (
    AudioFeatureEmbedder,
    EmbeddingStore,
    OracleEmbedder,
    save_store,
    write_store_manifest,
)
from .spectral import Waveform
from .wavio import write_wav

PEAK_LEVEL = 0.5
# the narrowest noise_burst band: a source of n samples at rate r holds an
# rfft bin in every band only while the bin spacing r / n is at most this
NOISE_BAND_MIN_HZ = 400
# samples in each of the audio embedder's calibration prototypes
PROTOTYPE_SAMPLES = 16384
GENERATOR_KINDS = ("tone_stack", "chirp", "noise_burst", "am_tone")


@dataclass(frozen=True)
class ClassSpec:
    """A generator family plus the parameter ranges it may draw from."""

    class_id: int
    name: str
    kind: str
    low: float
    high: float


DEFAULT_CLASSES = (
    ClassSpec(0, "tone_stack", "tone_stack", 120.0, 220.0),
    ClassSpec(1, "chirp", "chirp", 1500.0, 3000.0),
    ClassSpec(2, "noise_burst", "noise_burst", 4000.0, 6000.0),
    ClassSpec(3, "am_tone", "am_tone", 6800.0, 7600.0),
)


@dataclass(frozen=True)
class SourceSpec:
    """Fully determines one source waveform."""

    class_id: int
    kind: str
    params: dict
    duration: int
    seed: int
    sample_rate: int = 16000


@dataclass
class MixtureItem:
    item_id: str
    mixture: Waveform
    references: list
    class_ids: list
    snr_offsets: list


def draw_source_spec(cls: ClassSpec, rng: np.random.Generator,
                     duration: int = 65535, sample_rate: int = 16000) -> SourceSpec:
    """Sample generator parameters inside the class's range."""
    main = float(rng.uniform(cls.low, cls.high))
    params = {"freq": main}
    if cls.kind == "tone_stack":
        params["n_harmonics"] = int(rng.integers(4, 7))
    elif cls.kind == "chirp":
        params["freq_end"] = float(
            np.clip(main + rng.uniform(300.0, 800.0), cls.low, cls.high)
        )
    elif cls.kind == "noise_burst":
        params["bandwidth"] = float(rng.uniform(NOISE_BAND_MIN_HZ, 900.0))
        params["burst_rate"] = float(rng.uniform(4.0, 8.0))
    elif cls.kind == "am_tone":
        params["am_rate"] = float(rng.uniform(3.0, 9.0))
        params["am_depth"] = float(rng.uniform(0.5, 0.9))
    return SourceSpec(
        class_id=cls.class_id,
        kind=cls.kind,
        params=params,
        duration=duration,
        seed=int(rng.integers(0, 2**31 - 1)),
        sample_rate=sample_rate,
    )


def generate_source(spec: SourceSpec) -> Waveform:
    """Deterministic waveform for a spec, peak-normalized to 0.5."""
    if spec.duration <= 0:
        raise ValueError("duration must be positive")
    if spec.kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.duration) / spec.sample_rate
    freq = spec.params["freq"]

    if spec.kind == "tone_stack":
        n_harm = int(spec.params.get("n_harmonics", 5))
        x = np.zeros(spec.duration)
        for k in range(1, n_harm + 1):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += np.sin(2.0 * np.pi * k * freq * t + phase) / k
    elif spec.kind == "chirp":
        f1 = spec.params.get("freq_end", freq * 1.3)
        dur = spec.duration / spec.sample_rate
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = np.sin(2.0 * np.pi * (freq * t + (f1 - freq) * t**2 / (2.0 * dur)) + phase)
    elif spec.kind == "noise_burst":
        bw = spec.params.get("bandwidth", 600.0)
        rate = spec.params.get("burst_rate", 6.0)
        noise = rng.standard_normal(spec.duration)
        spectrum = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(spec.duration, d=1.0 / spec.sample_rate)
        band = (freqs >= freq - bw / 2.0) & (freqs <= freq + bw / 2.0)
        spectrum[~band] = 0.0
        x = np.fft.irfft(spectrum, n=spec.duration)
        # periodic gate that never fully closes, so any crop keeps energy
        gate_phase = rng.uniform(0.0, 2.0 * np.pi)
        gate = 0.5 * (1.0 + np.cos(2.0 * np.pi * rate * t + gate_phase))
        x *= 0.2 + 0.8 * gate**2
    else:  # am_tone
        am_rate = spec.params.get("am_rate", 5.0)
        depth = spec.params.get("am_depth", 0.8)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        am_phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = 1.0 - depth / 2.0 + (depth / 2.0) * np.cos(
            2.0 * np.pi * am_rate * t + am_phase
        )
        x = envelope * np.sin(2.0 * np.pi * freq * t + phase)

    peak = np.abs(x).max()
    if peak == 0.0:
        raise ValueError("generator produced a silent source")
    return Waveform(samples=x * (PEAK_LEVEL / peak), sample_rate=spec.sample_rate)


def make_mixture(specs, snr_offsets_db, item_id: str = "item") -> MixtureItem:
    """Scale sources to the prescribed SNR offsets (dB relative to the
    first source) and sum. The stored mixture is exactly the sum of the
    stored references."""
    if len(specs) < 2:
        raise ValueError("a mixture needs at least two sources")
    class_ids = [s.class_id for s in specs]
    if len(set(class_ids)) != len(class_ids):
        raise ValueError(f"class collision in mixture: {class_ids}")
    if len(snr_offsets_db) != len(specs):
        raise ValueError("need one SNR offset per source")

    sources = [generate_source(s) for s in specs]
    rate = sources[0].sample_rate
    energies = [float(np.dot(w.samples, w.samples)) for w in sources]
    if min(energies) == 0.0:
        raise ValueError("cannot set SNR for a zero-energy source")

    scaled = []
    for w, energy, offset in zip(sources, energies, snr_offsets_db):
        target_energy = energies[0] / 10.0 ** (offset / 10.0)
        scaled.append(w.samples * np.sqrt(target_energy / energy))

    mix = np.sum(scaled, axis=0)
    peak = np.abs(mix).max()
    if peak > 0.99:
        scale = 0.99 / peak
        scaled = [s * scale for s in scaled]
        mix = np.sum(scaled, axis=0)

    return MixtureItem(
        item_id=item_id,
        mixture=Waveform(samples=mix, sample_rate=rate),
        references=[Waveform(samples=s, sample_rate=rate) for s in scaled],
        class_ids=class_ids,
        snr_offsets=[float(o) for o in snr_offsets_db],
    )


def calibration_prototypes(
    classes=DEFAULT_CLASSES,
    per_class: int = 6,
    duration: int = PROTOTYPE_SAMPLES,
    sample_rate: int = 16000,
    seed: int = 0,
):
    """(class_id, Waveform) pairs spanning each class's parameter range."""
    rng = np.random.default_rng((seed, 0xCA11))
    protos = []
    for cls in classes:
        for _ in range(per_class):
            spec = draw_source_spec(cls, rng, duration=duration,
                                    sample_rate=sample_rate)
            protos.append((cls.class_id, generate_source(spec)))
    return protos


def build_embedder(
    classes=DEFAULT_CLASSES,
    dim: int = 16,
    seed: int = 0,
    noise_sigma: float = 0.1,
    sample_rate: int = 16000,
):
    """Oracle embedder plus a waveform embedder calibrated onto its
    audio-modality anchors."""
    oracle = OracleEmbedder(
        num_classes=len(classes), dim=dim, seed=seed, noise_sigma=noise_sigma
    )
    audio = AudioFeatureEmbedder(dim=dim, sample_rate=sample_rate)
    targets = {c.class_id: oracle.anchor("audio", c.class_id) for c in classes}
    audio.calibrate(calibration_prototypes(classes, sample_rate=sample_rate,
                                           seed=seed), targets)
    return oracle, audio


def build_dataset(
    out_dir,
    n_items: int = 200,
    classes=DEFAULT_CLASSES,
    split=(0.8, 0.1, 0.1),
    seed: int = 0,
    duration: int = 65535,
    sample_rate: int = 16000,
    snr_range=(-5.0, 5.0),
    embed_dim: int = 16,
    noise_sigma: float = 0.1,
) -> Path:
    """Generate items, WAV files, oracle embeddings and the manifest.

    Returns the manifest path. Rerunning with the same arguments produces
    byte-identical files.
    """
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    out = Path(out_dir)
    (out / "items").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    oracle, audio_embedder = build_embedder(
        classes, dim=embed_dim, seed=seed, noise_sigma=noise_sigma,
        sample_rate=sample_rate,
    )
    audio_embedder.save(out / "audio_embedder.json")

    n_train = int(round(split[0] * n_items))
    n_val = int(round(split[1] * n_items))
    order = rng.permutation(n_items)
    split_of = {}
    for pos, idx in enumerate(order):
        split_of[int(idx)] = (
            "train" if pos < n_train else "val" if pos < n_train + n_val else "test"
        )

    store = EmbeddingStore(embed_dim)
    records = []
    source_files = {}
    for i in range(n_items):
        item_id = f"item_{i:04d}"
        target_cls, interf_cls = (
            classes[int(k)] for k in rng.choice(len(classes), size=2, replace=False)
        )
        specs = [
            draw_source_spec(target_cls, rng, duration=duration,
                             sample_rate=sample_rate),
            draw_source_spec(interf_cls, rng, duration=duration,
                             sample_rate=sample_rate),
        ]
        offsets = [0.0, float(rng.uniform(*snr_range))]
        item = make_mixture(specs, offsets, item_id=item_id)

        mix_path = out / "items" / f"{item_id}_mix.wav"
        write_wav(mix_path, item.mixture)
        ref_paths = []
        for k, ref in enumerate(item.references):
            p = out / "items" / f"{item_id}_ref{k}.wav"
            write_wav(p, ref)
            ref_paths.append(str(p.relative_to(out)))

        instance_seed = int(rng.integers(0, 2**31 - 1))
        # audio exemplars are embedded from the clean reference waveform
        # (the audio-query path embeds actual audio); text/video are
        # descriptor-only and use the anchor-based oracle
        store.add(
            "audio",
            item_id,
            target_cls.name,
            audio_embedder.embed(item.references[0]).astype(np.float32),
        )
        for modality in ("text", "video"):
            store.add(
                modality,
                item_id,
                target_cls.name,
                oracle.embed(modality, target_cls.class_id, instance_seed),
            )
        source_files[("audio", item_id)] = ref_paths[0]

        records.append(
            {
                "item_id": item_id,
                "split": split_of[i],
                "target_class": target_cls.name,
                "target_class_id": target_cls.class_id,
                "interference_class": interf_cls.name,
                "interference_class_id": interf_cls.class_id,
                "snr_offsets_db": item.snr_offsets,
                "mixture": str(mix_path.relative_to(out)),
                "references": ref_paths,
                "sample_rate": sample_rate,
                "duration": duration,
            }
        )

    save_store(store, out / "embeddings.embd")
    write_store_manifest(out / "embeddings.manifest", store, source_files)

    manifest_path = out / "manifest.jsonl"
    with open(manifest_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    meta = {
        "n_items": n_items,
        "classes": [
            {"class_id": c.class_id, "name": c.name, "kind": c.kind,
             "low": c.low, "high": c.high}
            for c in classes
        ],
        "split": list(split),
        "seed": seed,
        "duration": duration,
        "sample_rate": sample_rate,
        "snr_range": list(snr_range),
        "embed_dim": embed_dim,
        "noise_sigma": noise_sigma,
    }
    (out / "dataset.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    return manifest_path
