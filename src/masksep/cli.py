"""Command-line entry points.

Subcommands: ``synth`` (build a synthetic dataset), ``train-rl`` (policy
training), ``train-align`` (alignment curriculum), ``eval`` (separation
metrics over an evaluation manifest), ``separate`` (inference).

Flag > config file > default, for every key; a flag is its config key with
dashes, and every value is checked before a command writes anything. Each
run directory receives an echo of the effective configuration; rerunning
with the same config and seed reproduces all manifests, logs and
checkpoints byte for byte. The STFT is ``pipeline.STFT``, not a key, and
``separate`` reads audio at the sample rate its checkpoint records.

Exit codes: 0 success, 2 configuration error, 3 runtime divergence or an
unusable result, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import align, metrics, pipeline, rl, separator, synthdata
from .embed import MODALITIES, AudioFeatureEmbedder
from .errors import (
    POSITIVE,
    ConfigError,
    DivergenceError,
    NonFiniteGradientError,
    check_value,
)
from .reward import QUERY_MODALITIES, REWARD_MODES
from .wavio import RESAMPLE_HINT, check_wav, read_wav, write_wav

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

RATE_POLICIES = ("reject", "resample")  # accept would separate at a wrong rate


def _read_json(path) -> object:
    """The JSON value of a UTF-8 file; ValueError naming the file when it
    holds something else."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


def _config(args, defaults: dict, bounds: dict, required=()) -> dict:
    """The command's configuration: each key of ``defaults`` takes its flag
    (the parsed argument of the same name), else its value in the
    ``--config`` file, else its default. A default that is a type stands in
    for a key with no default value. Every value is checked against its
    default's kind and its entry in ``bounds`` before anything is written."""
    file_cfg = {}
    if args.config is not None:
        file_cfg = _read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object")
    for key in file_cfg:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = {}
    for key, default in defaults.items():
        no_default = isinstance(default, type)
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, None if no_default else default)
        if value is None and no_default:
            if key in required:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"{args.command} needs {flag} "
                                  f"(or {key!r} in the config file)")
        else:
            check_value(key, value, default, bounds.get(key))
        cfg[key] = value
    return cfg


def _echo_config(run_dir: Path, command: str, cfg: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, **cfg}
    (run_dir / "effective_config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n"
    )


def _check_split(dataset: pipeline.Dataset, name: str) -> None:
    if not dataset.split(name):
        splits = ", ".join(sorted({r["split"] for r in dataset.records}))
        raise ConfigError(f"split {name!r} names no record of "
                          f"{dataset.root / 'manifest.jsonl'}; "
                          f"its splits are: {splits}")


def _check_mixtures(dataset: pipeline.Dataset, name: str) -> None:
    """Read every mixture of a split, keeping none, so that one that cannot
    be separated stops the run before it writes anything."""
    for rec in dataset.split(name):
        path = dataset.root / rec["mixture"]
        n = pipeline.read_item_wav(dataset, rec, rec["mixture"], check_wav)
        if n < pipeline.STFT.window_size:
            raise ConfigError(f"{path}: waveform too short: {n} samples < "
                              f"window_size {pipeline.STFT.window_size}")


def _check_query_dim(checkpoint, model, dim: int, source) -> None:
    if model.query_dim != dim:
        raise ConfigError(f"{checkpoint}: query_dim {model.query_dim} is not "
                          f"the dimension {dim} of {source}")


def cmd_synth(args) -> int:
    classes = synthdata.DEFAULT_CLASSES
    cfg = _config(
        args,
        {"out": str, "items": 200, "seed": 0, "duration": 65535,
         "sample_rate": 16000, "embed_dim": 16, "noise_sigma": 0.1},
        {
            "items": 1,
            "seed": 0,
            # every source must be long enough for the audio embedder
            "duration": AudioFeatureEmbedder.fft_size,
            # above twice the highest class frequency, or a source aliases
            # or falls silent
            "sample_rate": 2 * int(max(c.high for c in classes)) + 1,
            # one orthonormal embedding anchor per class
            "embed_dim": len(classes),
            "noise_sigma": 0.0,
        },
        required=("out",),
    )
    # past this rate a narrow noise_burst band holds no FFT bin of a source
    # or a calibration prototype, and that source falls silent
    limit = synthdata.NOISE_BAND_MIN_HZ * min(cfg["duration"],
                                              synthdata.PROTOTYPE_SAMPLES)
    if cfg["sample_rate"] > limit:
        raise ConfigError(
            f"'sample_rate' must be at most {limit} = "
            f"{synthdata.NOISE_BAND_MIN_HZ} Hz x min(duration, "
            f"{synthdata.PROTOTYPE_SAMPLES}), got {cfg['sample_rate']}")
    out = Path(cfg["out"])
    _echo_config(out, "synth", cfg)
    manifest = synthdata.build_dataset(
        out,
        n_items=cfg["items"],
        seed=cfg["seed"],
        duration=cfg["duration"],
        sample_rate=cfg["sample_rate"],
        embed_dim=cfg["embed_dim"],
        noise_sigma=cfg["noise_sigma"],
    )
    print(manifest)
    return EXIT_OK


def cmd_train_rl(args) -> int:
    rl_defaults = {f.name: f.default for f in fields(rl.RlConfig)}
    cfg = _config(
        args,
        {**rl_defaults, "dataset": str, "run_dir": str,
         "model_dtype": "float32"},
        {**rl.RlConfig.BOUNDS, "model_dtype": ("float32", "float64")},
        required=("dataset", "run_dir"),
    )

    # config and dataset checks all come before the run directory is written
    rl_cfg = rl.RlConfig(**{key: cfg[key] for key in rl_defaults})
    dataset = pipeline.load_dataset(cfg["dataset"])
    _check_split(dataset, "train")
    _check_split(dataset, "val")
    train_items = pipeline.prepare_train_items(dataset, "train", rl_cfg)
    val_items = pipeline.prepare_train_items(dataset, "val", rl_cfg)
    run_dir = Path(cfg["run_dir"])
    _echo_config(run_dir, "train-rl", cfg)
    (run_dir / "logs").mkdir(exist_ok=True)
    (run_dir / "reports").mkdir(exist_ok=True)

    model = separator.init_model(
        np.random.default_rng(rl_cfg.seed),
        query_dim=dataset.store.dimension,
        dtype=np.dtype(cfg["model_dtype"]),
        sample_rate=dataset.embedder.sample_rate,
    )
    started = time.perf_counter()
    result = rl.train_loop(
        model,
        train_items,
        val_items,
        rl_cfg,
        dataset.embedder,
        log_path=run_dir / "logs" / "train.jsonl",
        checkpoint_dir=run_dir / "checkpoints",
    )
    summary = {**asdict(result),
               "elapsed_seconds": time.perf_counter() - started}
    (run_dir / "reports" / "run_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n"
    )
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_train_align(args) -> int:
    cfg = _config(
        args,
        {"dataset": str, "run_dir": str, "seed": 0, "tau_init": 0.5,
         "epochs": int, "steps_per_epoch": int, "gap_items": 64,
         "gap_split": "all", "stages": {}},
        {"seed": 0, "tau_init": POSITIVE, "gap_items": 1},
        required=("dataset", "run_dir"),
    )

    # config and dataset checks, the curriculum and both gaps all come
    # before the run directory is written
    stages = cfg["stages"]
    if set(stages) - {"1", "2", "3"}:
        raise ConfigError(
            "'stages' must be a JSON object keyed by \"1\", \"2\" or \"3\""
        )
    shared = {key: cfg[key] for key in ("epochs", "steps_per_epoch")
              if cfg[key] is not None}
    stage_configs = []
    for stage in (1, 2, 3):
        overrides = stages.get(str(stage), {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"stage {stage}: overrides must be a JSON object")
        overrides = {**shared, **overrides}
        stage_configs.append(align.StageConfig.from_dict(stage, overrides))

    dataset = pipeline.load_dataset(cfg["dataset"])
    if cfg["gap_split"] != "all":
        _check_split(dataset, cfg["gap_split"])
    entries = pipeline.gap_entries(dataset, cfg["gap_split"],
                                   max_items=cfg["gap_items"])
    initial = align.HeadSet.identity(dataset.store.dimension,
                                     tau_init=cfg["tau_init"])
    gap_before = align.discrimination_gap(entries, dataset.embedder, initial)
    rng = np.random.default_rng(cfg["seed"])
    state = align.run_curriculum(dataset.store, stage_configs, rng,
                                 tau_init=cfg["tau_init"])
    gap_after = align.discrimination_gap(entries, dataset.embedder, state.heads)

    run_dir = Path(cfg["run_dir"])
    _echo_config(run_dir, "train-align", cfg)
    (run_dir / "checkpoints").mkdir(exist_ok=True)
    (run_dir / "reports").mkdir(exist_ok=True)
    align.save_heads(run_dir / "checkpoints" / "heads_init.json", initial)
    align.save_heads(run_dir / "checkpoints" / "heads_best.json", state.heads)
    for stage in (1, 2, 3):
        align.save_heads(
            run_dir / "checkpoints" / f"heads_stage{stage}.json",
            state.stage_best[stage],
        )

    lines = ["curriculum report", "================="]
    for report in state.stage_reports:
        lines.append(
            f"stage {report.stage}: epochs={report.epochs_run} "
            f"best_val_loss={report.best_val_loss:.6f} "
            f"final_val_loss={report.final_val_loss:.6f}"
        )
    lines.append(
        f"discrimination gap before: {gap_before.mean:.6f} "
        f"+/- {gap_before.std:.6f} (n={len(gap_before.per_item)})"
    )
    lines.append(
        f"discrimination gap after:  {gap_after.mean:.6f} "
        f"+/- {gap_after.std:.6f} (n={len(gap_after.per_item)})"
    )
    (run_dir / "reports" / "curriculum.txt").write_text("\n".join(lines) + "\n")
    (run_dir / "reports" / "gap.json").write_text(
        json.dumps(
            {
                "gap_before_mean": gap_before.mean,
                "gap_before_std": gap_before.std,
                "gap_after_mean": gap_after.mean,
                "gap_after_std": gap_after.std,
                "n_items": len(gap_after.per_item),
            },
            sort_keys=True,
            indent=1,
        )
        + "\n"
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config(
        args,
        {"manifest": str, "out": str, "with_bss": False, "seed": 0,
         "bootstrap": 10000},
        {"seed": 0, "bootstrap": 1},
        required=("manifest", "out"),
    )
    # a manifest that cannot be scored is rejected before --out is written
    utterances = pipeline.evaluate_manifest(cfg["manifest"],
                                            with_bss=cfg["with_bss"])
    out = Path(cfg["out"])
    _echo_config(out, "eval", cfg)
    with open(out / "report.jsonl", "w") as fh:
        for u in utterances:
            fh.write(json.dumps(u.to_dict(), sort_keys=True) + "\n")
    try:
        report = metrics.aggregate(
            utterances, bootstrap_resamples=cfg["bootstrap"], seed=cfg["seed"],
        )
    except ValueError as exc:
        print(f"eval failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    (out / "summary.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _load_query(spec: str, dataset) -> np.ndarray:
    if spec.startswith("store:"):
        if dataset is None:
            raise ConfigError("store queries need --dataset")
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"query {spec!r} must read store:<modality>:<id>")
        _, modality, item_id = parts
        if modality not in MODALITIES:
            raise ConfigError(
                f"query {spec!r}: unknown modality {modality!r}, expected "
                f"one of {', '.join(MODALITIES)}"
            )
        if (modality, item_id) not in dataset.store:
            raise ConfigError(
                f"query {spec!r}: the store has no {modality} embedding "
                f"with id {item_id!r}"
            )
        return dataset.store.get(modality, item_id)
    data = _read_json(spec)
    vector = data.get("vector") if isinstance(data, dict) else data
    try:
        vector = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError):
        vector = np.empty(0)
    if vector.ndim != 1 or vector.size == 0 or not np.all(np.isfinite(vector)):
        raise ConfigError(
            f"{spec}: the query must be a finite 1-D list of numbers, "
            f"alone or under \"vector\""
        )
    return vector


def cmd_separate(args) -> int:
    cfg = _config(
        args,
        {"checkpoint": str, "dataset": str, "split": "test", "out": str,
         "mixture": str, "query": str, "query_modality": "text",
         "rate_policy": "reject"},
        {"query_modality": QUERY_MODALITIES, "rate_policy": RATE_POLICIES},
        required=("checkpoint", "out"),
    )
    model = separator.load_model(cfg["checkpoint"])

    if cfg["mixture"] is not None:
        if cfg["query"] is None:
            raise ConfigError("single-file separation needs --query")
        dataset = (
            pipeline.load_dataset(cfg["dataset"]) if cfg["dataset"] else None
        )
        try:
            mix = read_wav(cfg["mixture"], model.sample_rate,
                           rate_policy=cfg["rate_policy"])
        except ValueError as exc:
            raise ValueError(str(exc).replace(
                RESAMPLE_HINT, " (pass --rate-policy resample to convert)")
            ) from None
        window = pipeline.STFT.window_size
        if len(mix) < window:
            raise ConfigError(f"{cfg['mixture']}: waveform too short: {len(mix)} "
                              f"samples < window_size {window}")
        query = _load_query(cfg["query"], dataset)
        _check_query_dim(cfg["checkpoint"], model, query.size,
                         f"the query {cfg['query']}")
        est = pipeline.separate_waveform(model, mix, query)
        out_path = Path(cfg["out"])
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(out_path, est)
        print(out_path)
        return EXIT_OK

    if cfg["dataset"] is None:
        raise ConfigError("separate needs --mixture or --dataset")
    dataset = pipeline.load_dataset(cfg["dataset"])
    _check_query_dim(cfg["checkpoint"], model, dataset.store.dimension,
                     dataset.root / "embeddings.embd")
    if dataset.embedder.sample_rate != model.sample_rate:
        raise ConfigError(
            f"{cfg['checkpoint']}: sample_rate {model.sample_rate} is not the "
            f"rate {dataset.embedder.sample_rate} of "
            f"{dataset.root / 'manifest.jsonl'}")
    _check_split(dataset, cfg["split"])
    _check_mixtures(dataset, cfg["split"])
    out = Path(cfg["out"])
    _echo_config(out, "separate", cfg)
    manifest = pipeline.separate_split(
        model, dataset, cfg["split"], cfg["query_modality"], out
    )
    print(manifest)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in one line, as every other configuration error
    is, instead of argparse's usage block; ``--help`` is unchanged."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"configuration error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="masksep",
        description="query-conditioned sound separation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--items", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--duration", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-rl", help="train the mask policy")
    p.add_argument("--dataset")
    p.add_argument("--run-dir")
    p.add_argument("--config")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--reward-mode", dest="reward_mode", choices=REWARD_MODES)
    p.add_argument("--query-modality", dest="query_modality",
                   choices=QUERY_MODALITIES)
    p.add_argument("--segment-samples", dest="segment_samples", type=int)
    p.add_argument("--val-interval", dest="val_interval", type=int)
    p.add_argument("--entropy-coef", dest="entropy_coef", type=float)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--warm-start-steps", dest="warm_start_steps", type=int)
    p.add_argument("--no-warm-start", dest="warm_start_steps",
                   action="store_const", const=0)
    p.set_defaults(func=cmd_train_rl)

    p = sub.add_parser("train-align", help="run the alignment curriculum")
    p.add_argument("--dataset")
    p.add_argument("--run-dir")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int)
    p.set_defaults(func=cmd_train_align)

    p = sub.add_parser("eval", help="score separations against references")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--with-bss", dest="with_bss", action="store_true",
                   default=None)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("separate", help="separate mixtures with a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--split")
    p.add_argument("--out")
    p.add_argument("--mixture")
    p.add_argument("--query")
    p.add_argument("--query-modality", dest="query_modality",
                   choices=QUERY_MODALITIES)
    p.add_argument("--rate-policy", dest="rate_policy", choices=RATE_POLICIES)
    p.add_argument("--config")
    p.set_defaults(func=cmd_separate)
    return parser


def _keep_freed_memory() -> None:
    """Keep what a call frees in the process, for the next call to reuse.
    By default glibc returns the heap top to the kernel after a call frees
    its arrays, and serves arrays above a moving threshold by mmap, so every
    policy step and embedding page-faults its working set in again. Fixing
    both thresholds (mmap at glibc's own 32 MiB ceiling, trim far above any
    run's peak) also turns off that moving threshold. Without glibc's
    mallopt (musl, macOS, Windows) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, NonFiniteGradientError) as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError,) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
