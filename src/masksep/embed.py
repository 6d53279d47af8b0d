"""Embedding provision.

Three providers share one vector space:

- ``EmbeddingStore``: a file-backed map (modality, item id) -> vector with
  class labels, in a little-endian binary format (magic ``EMBD``).
- ``OracleEmbedder``: deterministic synthetic embeddings built from fixed
  orthonormal class anchors plus modality offsets and seeded instance noise.
- ``AudioFeatureEmbedder``: a scale-invariant waveform feature map (band
  energy fractions, spectral flux, centroid) linearly calibrated so clean
  class sources land near their audio-modality anchors.

Projection heads and the shared temperature are the only trainable pieces
of the alignment curriculum; their gradients are exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import checkpoint
from .spectral import StftConfig, Waveform, analyze

MODALITIES = ("audio", "text", "video")
_MODALITY_CODE = {name: i for i, name in enumerate(MODALITIES)}

STORE_MAGIC = b"EMBD"
STORE_VERSION = 1


class EmbeddingStore:
    """In-memory map (modality, id) -> float32 vector, with class labels."""

    def __init__(self, dimension: int):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        self.labels: dict[tuple[str, str], str] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._vectors

    def add(self, modality: str, item_id: str, label: str, vector) -> None:
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}")
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"vector shape {vector.shape} does not match store "
                f"dimension {self.dimension}"
            )
        key = (modality, item_id)
        if key in self._vectors:
            raise ValueError(f"duplicate id {item_id!r} for modality {modality!r}")
        self._vectors[key] = vector
        self.labels[key] = label

    def get(self, modality: str, item_id: str) -> np.ndarray:
        """Vector as float64 (stored bits are float32)."""
        return self._vectors[(modality, item_id)].astype(np.float64)

    def label(self, modality: str, item_id: str) -> str:
        return self.labels[(modality, item_id)]

    def ids(self, modality: str) -> list[str]:
        return [i for (m, i) in self._vectors if m == modality]

    def items(self):
        for (modality, item_id), vec in self._vectors.items():
            yield modality, item_id, self.labels[(modality, item_id)], vec


def save_store(store: EmbeddingStore, path) -> None:
    """Binary layout: magic, version u16, D u32, count u64, then records of
    (modality u8, id u16+utf8, class u16+utf8, D little-endian f32)."""
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack("<HIQ", STORE_VERSION, store.dimension, len(store)))
        for modality, item_id, label, vec in store.items():
            id_bytes = item_id.encode("utf-8")
            label_bytes = label.encode("utf-8")
            fh.write(struct.pack("<B", _MODALITY_CODE[modality]))
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<H", len(label_bytes)))
            fh.write(label_bytes)
            fh.write(vec.astype("<f4", copy=False).tobytes())


def _take(data: bytes, offset: int, size: int, path, what: str):
    """(data[offset:offset + size], offset + size); ValueError naming the
    path and ``what`` when the file ends first."""
    end = offset + size
    if end > len(data):
        raise ValueError(
            f"{path}: truncated in {what} (needs {end} bytes, has {len(data)})"
        )
    return data[offset:end], end


def _take_text(data: bytes, offset: int, size: int, path, what: str):
    """_take, decoded as UTF-8; ValueError naming the path and ``what``
    when the bytes are not UTF-8."""
    raw, end = _take(data, offset, size, path, what)
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: {what} is not UTF-8 (byte {offset + exc.start})"
        ) from None


def load_store(path) -> EmbeddingStore:
    """Read a store; ValueError naming the path, and the record where there
    is one, when the file is cut or garbled, its dimension is 0, or a
    vector is non-finite or a duplicate."""
    data = Path(path).read_bytes()
    if data[:4] != STORE_MAGIC:
        raise ValueError(f"{path}: bad magic, not an embedding store")
    header, offset = _take(data, 4, struct.calcsize("<HIQ"), path, "the header")
    version, dim, count = struct.unpack("<HIQ", header)
    if version != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version {version}")
    if dim == 0:
        raise ValueError(f"{path}: store dimension is 0")
    store = EmbeddingStore(dim)
    for index in range(count):
        record = f"record {index}"
        head, offset = _take(data, offset, 3, path, f"{record} header")
        code, id_len = struct.unpack("<BH", head)
        if code >= len(MODALITIES):
            raise ValueError(f"{path}: unknown modality code {code}")
        item_id, offset = _take_text(data, offset, id_len, path, f"{record} id")
        head, offset = _take(data, offset, 2, path, f"{record} class length")
        (label_len,) = struct.unpack("<H", head)
        label, offset = _take_text(data, offset, label_len, path,
                                   f"{record} class")
        raw_vec, offset = _take(data, offset, 4 * dim, path, f"{record} vector")
        vector = np.frombuffer(raw_vec, dtype="<f4")
        if not np.isfinite(vector).all():
            raise ValueError(f"{path}: {record} vector holds non-finite values")
        try:
            store.add(MODALITIES[code], item_id, label, vector)
        except ValueError as exc:
            raise ValueError(f"{path}: {record}: {exc}") from None
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes after {count} records")
    return store


def write_store_manifest(path, store: EmbeddingStore, source_files: dict | None = None):
    """Plain-text companion: one 'modality<TAB>id<TAB>class<TAB>source' line
    per record."""
    source_files = source_files or {}
    lines = []
    for modality, item_id, label, _ in store.items():
        src = source_files.get((modality, item_id), "-")
        lines.append(f"{modality}\t{item_id}\t{label}\t{src}")
    Path(path).write_text("\n".join(lines) + "\n")


def unit_normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


class OracleEmbedder:
    """Deterministic stand-in for frozen multimodal encoders.

    Class anchors are exactly orthonormal (seeded QR construction); each
    embedding is unit-norm(anchor + modality offset + sigma * instance
    noise). Same class means high cross-modal cosine, different class low.
    """

    def __init__(
        self,
        num_classes: int,
        dim: int = 16,
        seed: int = 0,
        noise_sigma: float = 0.1,
        offset_norm: float = 0.25,
    ):
        if num_classes < 1:
            raise ValueError("need at least one class")
        if dim < num_classes:
            raise ValueError("dim must be >= num_classes for orthonormal anchors")
        self.num_classes = int(num_classes)
        self.dim = int(dim)
        self.seed = int(seed)
        self.noise_sigma = float(noise_sigma)
        self.offset_norm = float(offset_norm)
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        self.anchors = basis[:, :num_classes].T.copy()
        offsets = rng.standard_normal((len(MODALITIES), dim))
        offsets *= offset_norm / np.linalg.norm(offsets, axis=1, keepdims=True)
        self.offsets = offsets

    def anchor(self, modality: str, class_id: int) -> np.ndarray:
        """Noise-free embedding direction for a (modality, class) pair."""
        self._check(modality, class_id)
        return unit_normalize(self.anchors[class_id] + self.offsets[_MODALITY_CODE[modality]])

    def embed(self, modality: str, class_id: int, instance_seed: int = 0) -> np.ndarray:
        self._check(modality, class_id)
        base = self.anchors[class_id] + self.offsets[_MODALITY_CODE[modality]]
        if self.noise_sigma > 0.0:
            noise_rng = np.random.default_rng(
                (self.seed, _MODALITY_CODE[modality], class_id, instance_seed)
            )
            base = base + self.noise_sigma * noise_rng.standard_normal(self.dim)
        return unit_normalize(base)

    def _check(self, modality: str, class_id: int) -> None:
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}")
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"unknown class {class_id}")


@lru_cache(maxsize=None)
def _feature_layout(sample_rate: int, n_bands: int, fft_size: int, hop: int,
                    fmin: float):
    """(STFT config, bin frequencies, band index per bin) of one embedder
    configuration, built once and shared; the arrays are read-only. Bands
    are log-spaced from fmin to Nyquist."""
    cfg = StftConfig(fft_size=fft_size, hop=hop, window_size=fft_size)
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    edges = np.geomspace(fmin, sample_rate / 2.0, n_bands + 1)
    band_idx = np.clip(np.searchsorted(edges, freqs, side="right") - 1,
                       0, n_bands - 1)
    freqs.flags.writeable = False
    band_idx.flags.writeable = False
    return cfg, freqs, band_idx


@dataclass
class AudioFeatureEmbedder:
    """Waveform -> embedding via normalized spectral features and a linear
    calibration onto the oracle's audio anchors.

    Features are invariant to amplitude scaling by construction (band
    energy fractions, normalized flux, normalized centroid), so scaling a
    waveform by a power of two leaves the embedding bit-identical.
    """

    dim: int
    sample_rate: int = 16000
    n_bands: int = 24
    fft_size: int = 512
    hop: int = 256
    fmin: float = 50.0
    projection: np.ndarray | None = None

    N_EXTRA = 3  # flux mean, flux std, centroid

    @property
    def feature_dim(self) -> int:
        return self.n_bands + self.N_EXTRA

    def features(self, x: np.ndarray) -> np.ndarray:
        """The (N, feature_dim) features of an (N, L) sample stack, from one
        STFT of all N. Each reduction runs over the whole (N, T, F)
        magnitude stack, along the axes of a lone waveform's F x T grid,
        so every row keeps a lone waveform's summation order; the band
        sums are one bincount per row."""
        if x.shape[1] < self.fft_size:
            raise ValueError(f"waveform too short for the embedder: {x.shape[1]} "
                             f"< {self.fft_size}")
        cfg, freqs, band_idx = _feature_layout(
            self.sample_rate, self.n_bands, self.fft_size, self.hop, self.fmin
        )
        mag = np.abs(analyze(x, cfg))
        power = mag**2
        total = power.sum(axis=(1, 2))
        if (total <= 0.0).any():
            raise ValueError("cannot embed a zero-energy waveform")

        per_freq = power.sum(axis=1)
        out = np.empty((len(x), self.feature_dim))
        nb = self.n_bands
        for row, weights in zip(out, per_freq):
            row[:nb] = np.bincount(band_idx, weights=weights, minlength=nb)
        out[:, :nb] /= total[:, None]

        frame_norm = np.linalg.norm(mag, axis=2)
        diff = np.linalg.norm(np.diff(mag, axis=1), axis=2)
        denom = frame_norm[:, 1:] + frame_norm[:, :-1]
        flux = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0.0)
        out[:, nb] = flux.mean(axis=1)
        out[:, nb + 1] = flux.std(axis=1)
        out[:, nb + 2] = ((freqs * per_freq).sum(axis=1) / total
                          / (self.sample_rate / 2.0))
        return out

    def calibrate(self, prototypes, targets: dict, ridge: float = 1e-3) -> None:
        """Fit the linear projection so prototype features map onto the
        per-class target vectors.

        ``prototypes`` is a sequence of (class_id, Waveform); ``targets``
        maps class_id -> target direction (dim,).
        """
        feats = []
        rows = []
        for class_id, w in prototypes:
            feats.append(self.features(w.samples[None])[0])
            rows.append(np.asarray(targets[class_id], dtype=np.float64))
        f = np.asarray(feats)
        t = np.asarray(rows)
        gram = f.T @ f + ridge * np.eye(self.feature_dim)
        # contiguous copy so checkpointed and freshly calibrated projections
        # hit the same BLAS path bit for bit
        self.projection = np.ascontiguousarray(np.linalg.solve(gram, f.T @ t).T)

    def embed(self, w: Waveform) -> np.ndarray:
        return self.embed_rows(w.samples[None])[0]

    def embed_rows(self, x: np.ndarray) -> list[np.ndarray]:
        """The embedding of each row of an (N, L) sample stack, projected
        row by row: BLAS rounds a row by its position in the call."""
        if self.projection is None:
            raise ValueError("embedder is not calibrated; call calibrate() first")
        return [unit_normalize(self.projection @ f) for f in self.features(x)]

    def save(self, path) -> None:
        if self.projection is None:
            raise ValueError("refusing to save an uncalibrated embedder")
        checkpoint.save_checkpoint(
            path,
            kind="audio_embedder",
            hparams={
                "dim": self.dim,
                "sample_rate": self.sample_rate,
                "n_bands": self.n_bands,
                "fft_size": self.fft_size,
                "hop": self.hop,
                "fmin": self.fmin,
            },
            arrays={"projection": self.projection},
        )

    @classmethod
    def load(cls, path) -> "AudioFeatureEmbedder":
        """Load an embedder checkpoint through checkpoint.load_checked."""

        def shapes(dim, sample_rate, n_bands, fft_size, hop, fmin):
            # the hparams must give a valid STFT
            _feature_layout(sample_rate, n_bands, fft_size, hop, fmin)
            return {"projection": (dim, n_bands + cls.N_EXTRA)}

        values, arrays = checkpoint.load_checked(
            path, "audio_embedder",
            {"dim": int, "sample_rate": int, "n_bands": int, "fft_size": int,
             "hop": int, "fmin": float},
            shapes)
        return cls(**values, **arrays)


@dataclass
class ProjectionHead:
    """Affine map followed by L2 normalization."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        d = self.bias.shape[0]
        if self.weight.shape != (d, d):
            raise ValueError(
                f"weight shape {self.weight.shape} does not match bias "
                f"dimension {d}"
            )

    @classmethod
    def identity(cls, dim: int) -> "ProjectionHead":
        return cls(weight=np.eye(dim), bias=np.zeros(dim))

    def copy(self) -> "ProjectionHead":
        return ProjectionHead(weight=self.weight.copy(), bias=self.bias.copy())


def _affine_rows(head: ProjectionHead, e):
    """(e, e @ W.T + b, row norms) for an N x D block ``e``."""
    e = np.asarray(e, dtype=np.float64)
    d = head.bias.shape[0]
    if e.ndim != 2 or e.shape[1] != d:
        raise ValueError(
            f"embedding block shape {e.shape} does not match head "
            f"dimension {d} (expected N x {d})"
        )
    y = e @ head.weight.T + head.bias
    return e, y, np.linalg.norm(y, axis=1, keepdims=True)


def project(head: ProjectionHead, e) -> np.ndarray:
    """unit_normalize(W e_i + b) for every row e_i of an N x D block."""
    _, y, norm = _affine_rows(head, e)
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return y / norm


def project_backward(head: ProjectionHead, e, upstream):
    """Gradients of sum(upstream * project(head, e)) w.r.t. (weight, bias),
    summed over the rows of the block."""
    e, y, norm = _affine_rows(head, e)
    upstream = np.asarray(upstream, dtype=np.float64)
    z = y / norm
    d_y = (upstream - z * np.einsum("ij,ij->i", z, upstream)[:, None]) / norm
    return d_y.T @ e, d_y.sum(axis=0)


TAU_MIN = 1e-3
TAU_MAX = 1e3


@dataclass
class Temperature:
    """Shared contrastive temperature, learned in log-space and clamped."""

    log_tau: float = float(np.log(0.5))

    @property
    def tau(self) -> float:
        return float(np.exp(np.clip(self.log_tau, np.log(TAU_MIN), np.log(TAU_MAX))))

    def clamp(self) -> None:
        self.log_tau = float(np.clip(self.log_tau, np.log(TAU_MIN), np.log(TAU_MAX)))

    def copy(self) -> "Temperature":
        return Temperature(log_tau=self.log_tau)
