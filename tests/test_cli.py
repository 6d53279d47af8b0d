"""Command-line contracts: flags, exit codes, artifacts, reproducibility."""

import base64
import contextlib
import ctypes
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import masksep
from masksep.align import StageConfig
from masksep.cli import main
from masksep.embed import (
    AudioFeatureEmbedder,
    EmbeddingStore,
    load_store,
    save_store,
)
from masksep.errors import ConfigError, check_value
from masksep.rl import RlConfig
from masksep.separator import init_model, load_model, save_model
from masksep.spectral import StftConfig, Waveform
from masksep.wavio import read_wav, write_wav


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds") / "ds"
    assert main(["synth", "--out", str(out), "--items", "16", "--seed", "5",
                 "--duration", "16384"]) == 0
    return out


def keyed(bad: dict, named: str):
    """A (config input, expected message) case whose id is built from the
    input alone, so that editing the message renames no test. A case whose
    message changes takes it; the others keep pytest's positional ids."""
    return pytest.param(bad, named, id=" ".join(
        f"{key}={value!r}" for key, value in bad.items()))


# train-rl and separate take no STFT key, not even at pipeline.STFT's value
STFT_KEYS = [keyed(bad, f"unknown config key {next(iter(bad))!r}") for bad in (
    {"hop": True}, {"fft_size": 1024.7}, {"hop": 0}, {"fft_size": -5},
    {"window_size": 1024})]


def run_dirs(tmp_path, *names):
    return [tmp_path / n for n in names]


def dataset_with_embedder(small_dataset, root, edit):
    """A copy of the dataset's loadable files under ``root`` whose
    audio_embedder.json checkpoint went through ``edit``; returns the
    embedder's path."""
    root.mkdir()
    for name in ("manifest.jsonl", "embeddings.embd"):
        shutil.copy(small_dataset / name, root / name)
    payload = json.loads((small_dataset / "audio_embedder.json").read_text())
    edit(payload)
    embedder = root / "audio_embedder.json"
    embedder.write_text(json.dumps(payload))
    return embedder


class TestSynth:
    def test_creates_manifest_and_store(self, small_dataset):
        assert (small_dataset / "manifest.jsonl").exists()
        assert (small_dataset / "embeddings.embd").exists()
        assert (small_dataset / "embeddings.manifest").exists()
        assert (small_dataset / "audio_embedder.json").exists()
        assert (small_dataset / "effective_config.json").exists()

    def test_rerun_is_byte_identical(self, small_dataset, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--items", "16", "--seed",
                     "5", "--duration", "16384"]) == 0
        for rel in ("manifest.jsonl", "embeddings.embd", "dataset.json",
                    "items/item_0003_mix.wav"):
            assert (small_dataset / rel).read_bytes() == (
                again / rel
            ).read_bytes(), rel

    def test_missing_out_is_config_error(self):
        assert main(["synth"]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["--items", "0"], "'items' must be an integer >= 1, got 0"),
        (["--items", "-3"], "'items' must be an integer >= 1, got -3"),
        (["--seed", "-1"], "'seed' must be an integer >= 0, got -1"),
    ])
    def test_bad_item_count_writes_nothing(self, tmp_path, capsys, argv, named):
        code = main(["synth", "--out", str(tmp_path / "ds"), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("bad, named", [
        ({"out": 5}, "config key 'out' must be a string, got 5"),
        ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
        ({"noise_sigma": "a"}, "'noise_sigma' must be a number >= 0.0, got 'a'"),
        ({"noise_sigma": -0.1}, "'noise_sigma' must be a number >= 0.0"),
        ({"noise_sigma": float("inf")}, "'noise_sigma' must be a number"),
        # each would fail only once items/ is partly written: fewer
        # dimensions than classes, a source shorter than the audio
        # embedder's FFT, a rate that puts a class above Nyquist
        ({"embed_dim": 2}, "'embed_dim' must be an integer >= 4, got 2"),
        ({"duration": 100}, "'duration' must be an integer >= 512, got 100"),
        ({"sample_rate": 8000},
         "'sample_rate' must be an integer >= 15201, got 8000"),
    ])
    def test_bad_config_value_writes_nothing(self, tmp_path, capsys, bad,
                                             named):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"out": str(tmp_path / "ds"), **bad}))
        code = main(["synth", "--items", "2", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "ds").exists()

    def synth_at_rate(self, tmp_path, rate):
        cfg_file = tmp_path / "rate.json"
        cfg_file.write_text(json.dumps({"sample_rate": rate}))
        return main(["synth", "--out", str(tmp_path / "ds"), "--items", "2",
                     "--duration", "4096", "--config", str(cfg_file)])

    def test_rate_above_band_limit_writes_nothing(self, tmp_path, capsys):
        # 400 Hz x 4096 samples: one more, and the narrowest noise_burst
        # band can hold no FFT bin, so a source falls silent mid-build
        assert self.synth_at_rate(tmp_path, 1_638_401) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "'sample_rate' must be at most 1638400" in err
        assert not (tmp_path / "ds").exists()

    def test_rate_at_band_limit_builds(self, tmp_path):
        assert self.synth_at_rate(tmp_path, 1_638_400) == 0
        assert (tmp_path / "ds" / "manifest.jsonl").exists()


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _without_mallopt(name):
    return object()


def _no_c_library(name):
    raise OSError("no C library")


_STEADY_STATE_FAULTS = """
import resource, sys
import numpy as np
from masksep import cli
from masksep.embed import AudioFeatureEmbedder
from masksep.separator import backward, forward, init_model
from masksep.spectral import Waveform

out = sys.argv[1]
assert cli.main(["synth", "--out", out, "--items", "2",
                 "--duration", "4096"]) == 0


def faults_per_call(call, calls):
    for _ in range(3):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


rng = np.random.default_rng(0)
embedder = AudioFeatureEmbedder.load(out + "/audio_embedder.json")
wave = Waveform(rng.standard_normal(65535), 16000)
model = init_model(rng, dtype=np.float32)
grids = [rng.uniform(0.0, 3.0, size=(513, 9)) for _ in range(16)]
query = rng.standard_normal(model.query_dim)


def policy_step():
    caches = [forward(model, grid, query)[1] for grid in grids]
    for cache in caches:
        backward(model, cache, np.ones(cache.grid_shape))


print(faults_per_call(lambda: embedder.embed(wave), 10),
      faults_per_call(policy_step, 5))
"""


class TestAllocator:
    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
    def test_steady_state_calls_do_not_fault(self, tmp_path):
        """After warm-up, neither a full-length embedding nor a policy
        step's 16 cached forwards and their backwards (513 x 9, float32)
        page-faults memory in again: what one call frees, the next reuses.
        Without the allocator setting each embedding took about 600 minor
        faults and each 16-item step about 8000."""
        src = str(Path(masksep.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", _STEADY_STATE_FAULTS, str(tmp_path / "ds")],
            env=env, capture_output=True, text=True, check=True)
        embed_faults, step_faults = map(float, done.stdout.split()[-2:])
        assert embed_faults < 16
        assert step_faults < 16

    @pytest.mark.parametrize("library", [_without_mallopt, _no_c_library])
    def test_without_mallopt_synth_is_unchanged(self, tmp_path, monkeypatch,
                                                library):
        argv = ["synth", "--items", "2", "--duration", "4096"]
        assert main([*argv, "--out", str(tmp_path / "with")]) == 0
        monkeypatch.setattr(ctypes, "CDLL", library)
        assert main([*argv, "--out", str(tmp_path / "without")]) == 0
        assert (tmp_path / "with" / "manifest.jsonl").read_bytes() == (
            tmp_path / "without" / "manifest.jsonl").read_bytes()


_LAZY_SCIPY = """
import sys
import numpy as np
from masksep import cli
from masksep.metrics import optimal_assignment
from masksep.spectral import Waveform
from masksep.wavio import read_wav, write_wav

root = sys.argv[1]


def scipy_modules():
    return [name for name in sys.modules if name.startswith("scipy")]


def subpackages():
    # public scipy subpackages loaded; scipy.version comes with scipy itself
    return sorted({name.split(".")[1] for name in sys.modules
                   if name.startswith("scipy.")
                   and name.split(".")[1][0] != "_"} - {"version"})


assert scipy_modules() == [], scipy_modules()
for argv in (
    ["synth", "--out", root + "/ds", "--items", "8", "--duration", "4096"],
    ["train-rl", "--dataset", root + "/ds", "--run-dir", root + "/rl0",
     "--steps", "0", "--warm-start-steps", "2"],
    ["separate", "--checkpoint", root + "/rl0/checkpoints/init.json",
     "--dataset", root + "/ds", "--out", root + "/sep"],
    ["eval", "--manifest", root + "/sep/eval_manifest.jsonl",
     "--out", root + "/eval", "--with-bss"],
    ["train-align", "--dataset", root + "/ds", "--run-dir", root + "/al",
     "--epochs", "1", "--steps-per-epoch", "2"],
):
    assert cli.main(argv) == 0, argv
    assert scipy_modules() == [], (argv[0], scipy_modules())
assert cli.main(["train-rl", "--dataset", root + "/ds", "--run-dir",
                 root + "/rl1", "--steps", "1", "--warm-start-steps", "2"]) == 0
assert scipy_modules() == [], ("train-rl", scipy_modules())

assert optimal_assignment(np.array([[0.0, 2.0], [1.0, 0.0]])) == (1, 0)
assert "optimize" in subpackages() and "signal" not in subpackages()

rng = np.random.default_rng(0)
write_wav(root + "/r.wav", Waveform(0.3 * rng.standard_normal(2400), 24000))
back = read_wav(root + "/r.wav", 16000, rate_policy="resample")
assert "signal" in subpackages(), subpackages()
from scipy.signal import resample_poly
kept = read_wav(root + "/r.wav", 16000, rate_policy="accept").samples
assert back.sample_rate == 16000
assert back.samples.tobytes() == resample_poly(kept, 2, 3).tobytes()
"""


def test_scipy_loads_only_where_it_runs(tmp_path):
    """In a fresh process, importing the CLI and running synth, train-rl
    (a policy step included), separate, a one-reference eval and
    train-align load no scipy module at all (about 28 MB and 0.25 s of
    every process's start-up); a 2 x 2 assignment loads scipy.optimize
    and returns the optimal permutation, and a resampling read loads
    scipy.signal and returns the polyphase filter's samples."""
    src = str(Path(masksep.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _LAZY_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]


class TestTrainRl:
    def test_zero_steps_initial_checkpoint_only(self, small_dataset, tmp_path):
        run = tmp_path / "run0"
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(run), "--steps", "0", "--warm-start-steps", "5"]) == 0
        assert (run / "checkpoints" / "init.json").exists()
        assert not (run / "checkpoints" / "best.json").exists()
        assert (run / "effective_config.json").exists()
        assert (run / "reports" / "run_summary.json").exists()

    def test_short_run_writes_log_and_checkpoints(self, small_dataset, tmp_path):
        run = tmp_path / "run1"
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(run), "--steps", "4", "--batch-size", "4",
                     "--val-interval", "2", "--warm-start-steps", "5"]) == 0
        log = (run / "logs" / "train.jsonl").read_text().splitlines()
        steps = [json.loads(l) for l in log if "mean_reward" in l]
        assert len(steps) == 4
        load_model(run / "checkpoints" / "best.json")
        load_model(run / "checkpoints" / "last.json")

    def test_reward_mode_flag(self, small_dataset, tmp_path):
        run = tmp_path / "run2"
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(run), "--steps", "1", "--batch-size", "2",
                     "--reward-mode", "audio", "--warm-start-steps", "5"]) == 0
        cfg = json.loads((run / "effective_config.json").read_text())
        assert cfg["reward_mode"] == "audio"

    def test_config_file_precedence(self, small_dataset, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 1, "batch_size": 2,
                                        "lr": 0.123}))
        run = tmp_path / "run3"
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(run), "--config", str(cfg_file), "--steps", "2",
                     "--warm-start-steps", "5"]) == 0
        effective = json.loads((run / "effective_config.json").read_text())
        assert effective["steps"] == 2      # flag beats file
        assert effective["lr"] == 0.123     # file beats default

    def test_unknown_config_key_rejected(self, small_dataset, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"nonsense": 1}))
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(tmp_path / "run4"), "--config", str(cfg_file)]) == 2

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert main(["train-rl", "--run-dir", str(tmp_path / "r")]) == 2

    def test_dataset_must_be_a_path(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"dataset": 5}))
        code = main(["train-rl", "--run-dir", str(tmp_path / "run"),
                     "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "config key 'dataset' must be a string, got 5" in err
        assert not (tmp_path / "run").exists()

    def test_empty_val_split_leaves_no_run_dir(self, tmp_path, capsys):
        # 4 items split 3 train, 0 val, 1 test: best.json would be chosen
        # against a constant validation reward
        dataset = tmp_path / "ds"
        assert main(["synth", "--out", str(dataset), "--items", "4",
                     "--duration", "4096"]) == 0
        capsys.readouterr()
        code = main(["train-rl", "--dataset", str(dataset), "--run-dir",
                     str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "split 'val' names no record" in err
        assert "its splits are: test, train" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, named", [
        keyed({"steps": "x"}, "config key 'steps' must be an integer >= 0, got 'x'"),
        ({"batch_size": 2.5}, "config key 'batch_size' must be an integer"),
        keyed({"lr": True},
              "config key 'lr' must be a positive finite number, got True"),
        keyed({"seed": False},
              "config key 'seed' must be an integer >= 0, got False"),
        ({"reward_mode": None}, "config key 'reward_mode' must be a string"),
    ])
    def test_config_value_of_wrong_type_is_config_error(
            self, small_dataset, tmp_path, capsys, bad, named):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(bad))
        code = main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(tmp_path / "run"), "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("bad, named", [
        # advantages are always normalized within the batch, with no EMA
        # baseline, so neither key configures anything
        ({"ema_beta": 0.92}, "unknown config key 'ema_beta'"),
        ({"grpo_enabled": True}, "unknown config key 'grpo_enabled'"),
        ({"query_modality": "smell"}, "unknown query_modality 'smell'"),
        # the clip is the trust region: there is no KL penalty to weigh
        ({"kl_coef": 0.01}, "unknown config key 'kl_coef'"),
        # values that would otherwise fail only once training has started
        ({"val_interval": 0}, "config key 'val_interval' must be an integer >= 1, got 0"),
        ({"seed": -1}, "config key 'seed' must be an integer >= 0, got -1"),
        ({"sample_clamp": 0.7},
         "config key 'sample_clamp' must be a number in (0, 0.5), got 0.7"),
        ({"kappa_start": -1},
         "config key 'kappa_start' must be a positive finite number, got -1"),
        # legal alone, but shorter than the STFT window
        ({"segment_samples": 512}, "segment_samples is shorter than the STFT"),
        *STFT_KEYS,
        keyed({"lr": float("nan")},
              "config key 'lr' must be a positive finite number, got nan"),
    ])
    def test_rejected_config_leaves_no_run_dir(self, small_dataset, tmp_path,
                                               capsys, bad, named):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(bad))
        code = main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(tmp_path / "run"), "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, named", [
        # each would otherwise train: ascend the loss, skip the warm start,
        # stop at the first validation or turn clipping off
        (["--lr", "-0.1"], "config key 'lr' must be a positive finite number, got -0.1"),
        ({"warm_start_lr": -0.01},
         "config key 'warm_start_lr' must be a positive finite number, got -0.01"),
        ({"weight_decay": -0.5}, "config key 'weight_decay' must be a number >= 0, got -0.5"),
        (["--warm-start-steps", "-3"],
         "config key 'warm_start_steps' must be an integer >= 0, got -3"),
        ({"patience": 0}, "config key 'patience' must be an integer >= 1, got 0"),
        ({"clip_norm": -1}, "config key 'clip_norm' must be a number >= 0, got -1"),
        ({"kappa_ramp_frac": -1},
         "config key 'kappa_ramp_frac' must be a number >= 0, got -1"),
        (["--entropy-coef", "-1"], "config key 'entropy_coef' must be a number >= 0, got -1.0"),
        (["--mc-samples", "0"], "config key 'mc_samples' must be an integer >= 1, got 0"),
        ({"steps": -1}, "config key 'steps' must be an integer >= 0, got -1"),
        (["--batch-size", "0"], "config key 'batch_size' must be an integer >= 1, got 0"),
        ({"grpo_eps": 0}, "config key 'grpo_eps' must be a positive finite number, got 0"),
        ({"clip_epsilon": 1.5},
         "config key 'clip_epsilon' must be a number in (0, 1), got 1.5"),
        ({"kappa_end": 0}, "config key 'kappa_end' must be a positive finite number, got 0"),
        (["--segment-samples", "-5"],
         "config key 'segment_samples' must be an integer >= 1, got -5"),
        # beyond policy.KAPPA_MAX the log-gamma table would overflow
        keyed({"kappa_end": 1e7},
              "config key 'kappa_end' must be a number in (0, 1000000], "
              "got 10000000.0"),
    ])
    def test_out_of_range_rl_key_is_named(self, small_dataset, tmp_path, capsys,
                                          bad, named):
        argv = ["train-rl", "--dataset", str(small_dataset), "--run-dir",
                str(tmp_path / "run")]
        if isinstance(bad, dict):
            cfg_file = tmp_path / "bad.json"
            cfg_file.write_text(json.dumps(bad))
            bad = ["--config", str(cfg_file)]
        code = main(argv + bad)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    def test_short_segment_or_mixture_is_named(self, small_dataset, tmp_path,
                                               capsys):
        # a segment shorter than the window names both keys and values; a
        # mixture shorter than it names the manifest and the item, not the
        # segment, which is legal
        short = tmp_path / "short"
        assert main(["synth", "--out", str(short), "--items", "12",
                     "--duration", "600"]) == 0
        capsys.readouterr()
        for dataset, extra, named in [
            (small_dataset, ["--segment-samples", "512"],
             "segment_samples 512 < window_size 1024"),
            (short, [], f"{short / 'manifest.jsonl'}: item 'item_0000': "
                        f"waveform too short: 600 samples < window_size 1024"),
        ]:
            code = main(["train-rl", "--dataset", str(dataset), "--run-dir",
                         str(tmp_path / "run"), "--steps", "1", *extra])
            err = capsys.readouterr().err
            assert code == 2
            assert "Traceback" not in err and len(err.splitlines()) == 1
            assert named in err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["clip_norm", "entropy_coef", "weight_decay"])
    def test_zero_stays_legal(self, key):
        assert getattr(RlConfig(**{key: 0.0}), key) == 0.0


@pytest.mark.parametrize("config", [RlConfig, StageConfig, StftConfig])
def test_every_config_key_has_a_bound(config):
    assert set(config.BOUNDS) == {f.name for f in fields(config)}


@pytest.mark.parametrize("bound, inside, outside", [
    ("(0, 1]", [1e-9, 1, 1.0], [0, 0.0, 1.5]),
    ("[0, 1)", [0, 0.0, 0.999], [1, 1.0, -1e-9]),
])
def test_interval_bound_ends(bound, inside, outside):
    for value in inside:
        check_value("k", value, 0.5, bound)
    for value in outside:
        with pytest.raises(ConfigError, match=re.escape(
                f"config key 'k' must be a number in {bound}, got {value!r}")):
            check_value("k", value, 0.5, bound)


@pytest.mark.parametrize("argv, named", [
    (["separate", "--query-modality", "smell"], "invalid choice: 'smell'"),
    (["train-rl", "--steps", "x"], "invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    (["separate", "--rate-policy", "accept"], "invalid choice: 'accept'"),
])
def test_bad_flag_is_one_line(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ") and named in err


@pytest.mark.parametrize("content, named", [
    (b'{"seed": 1 "x": 2}', "not JSON (Expecting ',' delimiter"),
    (b"\xff\xfe{\x00}\x00", "not UTF-8 text (byte 0)"),
])
@pytest.mark.parametrize("flag", ["--config", "--query"])
def test_unreadable_json_file_is_named(corrupt_case, tmp_path, capsys, flag,
                                       content, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = ["separate", "--checkpoint", str(corrupt_case["checkpoint"]),
            "--dataset", str(corrupt_case["dataset"]),
            "--mixture", str(corrupt_case["mixture"]),
            "--query", corrupt_case["query"], "--out", str(tmp_path / "o.wav")]
    code = main(argv + [flag, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert f"{bad}: {named}" in err
    assert not (tmp_path / "o.wav").exists()


def test_help_keeps_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-rl", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: masksep train-rl")


@pytest.mark.parametrize("command", ["train-rl", "train-align"])
def test_corrupt_dataset_leaves_no_run_dir(small_dataset, tmp_path,
                                           capsys, command):
    embedder = dataset_with_embedder(
        small_dataset, tmp_path / "ds", lambda p: p["hparams"].pop("dim"))
    code = main([command, "--dataset", str(embedder.parent), "--run-dir",
                 str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert f"{embedder}: audio embedder checkpoint has no hparam dim" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-rl", "train-align"])
def test_missing_dataset_wav_names_manifest_and_item(small_dataset, tmp_path,
                                                     capsys, command):
    # as separate --dataset and eval answer it: exit 2, one line naming the
    # manifest, the item and the file, and no run directory
    dataset = tmp_path / "ds"
    shutil.copytree(small_dataset, dataset)
    rec = next(json.loads(line) for line in
               (dataset / "manifest.jsonl").read_text().splitlines()
               if json.loads(line)["split"] == "train")
    (dataset / rec["mixture"]).unlink()
    code = main([command, "--dataset", str(dataset), "--run-dir",
                 str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert f"{dataset / 'manifest.jsonl'}: item {rec['item_id']!r}: " in err
    assert "No such file or directory" in err
    assert str(dataset / rec["mixture"]) in err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained_run(small_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("cli_run") / "run"
    assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                 str(run), "--steps", "2", "--batch-size", "4",
                 "--warm-start-steps", "5"]) == 0
    return run


@pytest.fixture(scope="module")
def set_24k(tmp_path_factory):
    """A 10-item synthetic set at 24 kHz, with a test split."""
    root = tmp_path_factory.mktemp("set_24k")
    rate_file = root / "rate.json"
    rate_file.write_text(json.dumps({"sample_rate": 24000}))
    assert main(["synth", "--out", str(root / "ds"), "--items", "10",
                 "--duration", "4096", "--config", str(rate_file)]) == 0
    return root / "ds"


class TestSeparate:
    def test_split_mode_writes_estimates_and_manifest(self, small_dataset,
                                                      trained_run, tmp_path):
        out = tmp_path / "sep"
        assert main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset), "--split", "test",
                     "--out", str(out)]) == 0
        manifest = out / "eval_manifest.jsonl"
        records = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert records
        for rec in records:
            assert Path(rec["estimates"][0]).exists()

    def test_single_file_mode_with_store_query(self, small_dataset,
                                               trained_run, tmp_path):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        out = tmp_path / "single.wav"
        assert main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--query", f"store:text:{rec['item_id']}",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_dataset_at_another_rate_writes_nothing(self, trained_run,
                                                    set_24k, tmp_path, capsys):
        ckpt = trained_run / "checkpoints" / "best.json"
        code = main(["separate", "--checkpoint", str(ckpt), "--dataset",
                     str(set_24k), "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert (f"{ckpt}: sample_rate 16000 is not the rate 24000 of "
                f"{set_24k / 'manifest.jsonl'}") in err
        assert not (tmp_path / "est").exists()

    def test_mixture_at_another_rate_is_rejected_or_resampled(
            self, small_dataset, trained_run, set_24k, tmp_path, capsys):
        # the message advises the resampling flag where there is one:
        # separate --mixture has it; train-rl and separate --dataset do not
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(list(np.ones(16) / 4.0)))
        mixture = set_24k / "items" / "item_0000_mix.wav"
        out = tmp_path / "est.wav"
        ckpt = trained_run / "checkpoints" / "best.json"
        separate = ["separate", "--checkpoint", str(ckpt), "--mixture",
                    str(mixture), "--query", str(qfile), "--out", str(out)]
        assert main(separate) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.rstrip().endswith(
            f"{mixture}: sample rate 24000 != expected 16000 "
            "(pass --rate-policy resample to convert)")
        assert not out.exists()
        assert main([*separate, "--rate-policy", "resample"]) == 0
        est = read_wav(out, expected_rate=16000)
        assert len(est.samples) == 2731  # ceil(4096 x 16 / 24)

        # a 16 kHz set whose every mixture WAV holds 24 kHz audio
        ds = tmp_path / "ds"
        shutil.copytree(small_dataset, ds)
        for line in (ds / "manifest.jsonl").read_text().splitlines():
            shutil.copyfile(mixture, ds / json.loads(line)["mixture"])
        for argv in (["train-rl", "--dataset", str(ds), "--run-dir",
                      str(tmp_path / "run"), "--steps", "1",
                      "--warm-start-steps", "1"],
                     ["separate", "--checkpoint", str(ckpt), "--dataset",
                      str(ds), "--out", str(tmp_path / "sep")]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err and len(err.splitlines()) == 1
            assert err.rstrip().endswith(
                "_mix.wav: sample rate 24000 != expected 16000"), err
            assert "pass" not in err and "resample" not in err, err
        assert not (tmp_path / "sep").exists()

    def test_checkpoint_trained_at_24k_separates_its_set(self, set_24k,
                                                         tmp_path):
        run = tmp_path / "run"
        assert main(["train-rl", "--dataset", str(set_24k), "--run-dir",
                     str(run), "--steps", "1", "--batch-size", "2",
                     "--warm-start-steps", "1"]) == 0
        ckpt = run / "checkpoints" / "last.json"
        assert json.loads(ckpt.read_text())["hparams"]["sample_rate"] == 24000
        out = tmp_path / "est"
        assert main(["separate", "--checkpoint", str(ckpt), "--dataset",
                     str(set_24k), "--out", str(out)]) == 0
        ests = sorted(out.glob("*_est.wav"))
        assert ests
        for path in ests:
            assert read_wav(path, expected_rate=24000).sample_rate == 24000

    def test_single_file_mode_with_vector_file(self, small_dataset,
                                               trained_run, tmp_path):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"vector": list(np.ones(16) / 4.0)}))
        out = tmp_path / "single2.wav"
        assert main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--query", str(qfile), "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_query_is_config_error(self, small_dataset, trained_run,
                                           tmp_path):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        assert main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--out", str(tmp_path / "x.wav")]) == 2

    def test_query_from_config_file(self, small_dataset, trained_run,
                                    tmp_path, capsys):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        config = tmp_path / "q.json"
        config.write_text(json.dumps({"query": f"store:text:{rec['item_id']}"}))
        out = tmp_path / "from_config.wav"
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--config", str(config), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.exists()

    def test_non_string_query_in_config_is_config_error(
            self, small_dataset, trained_run, tmp_path, capsys):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        config = tmp_path / "q.json"
        config.write_text(json.dumps({"query": 5}))
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--config", str(config), "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("payload", [
        {"vec": [0.25] * 16},
        {"vector": [[0.25] * 16]},
        {"vector": [0.25, "x"]},
        {"vector": [0.25, None]},
        {"vector": []},
        "not a vector",
    ])
    def test_bad_query_file_is_config_error(self, small_dataset, trained_run,
                                            tmp_path, capsys, payload):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(payload))
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--query", str(qfile), "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert str(qfile) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "query", ["store:text:nope", "store:bogus:item_0000", "store:text"]
    )
    def test_bad_store_query_is_config_error(self, small_dataset, trained_run,
                                             tmp_path, capsys, query):
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--query", query, "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert query in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["file header", "record header", "id",
                                       "vector"])
    def test_truncated_store_is_config_error(self, small_dataset, trained_run,
                                             tmp_path, capsys, where):
        data = (small_dataset / "embeddings.embd").read_bytes()
        # magic (4) + version, dimension, count (14), then the first record:
        # modality (1), id length (2), id
        (id_len,) = struct.unpack_from("<H", data, 19)
        cut = {"file header": 10, "record header": 20,
               "id": 21 + id_len // 2, "vector": len(data) - 6}[where]
        dataset = tmp_path / "cut"
        dataset.mkdir()
        for name in ("manifest.jsonl", "audio_embedder.json"):
            shutil.copy(small_dataset / name, dataset / name)
        (dataset / "embeddings.embd").write_bytes(data[:cut])
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(dataset), "--out", str(tmp_path / "sep")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "embeddings.embd" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("section, key, value, named", [
        ("hparams", "context", 3, "array w1"),
        ("hparams", "query_dim", 8, "array w1"),
        ("hparams", "hidden_width", 4, "array w1"),
        ("hparams", "k_sources", 2, "hparam k_sources is 2, not 1"),
        ("arrays", "b2", None, "array b2"),
        ("hparams", "context", None, "hparam context"),
        ("hparams", "context", -5, "hparam context is -5"),
        ("hparams", "sample_rate", None, "has no hparam sample_rate"),
        ("hparams", "sample_rate", 0, "hparam sample_rate is 0,"),
        ("hparams", "sample_rate", 16000.5, "hparam sample_rate is 16000.5"),
        ("hparams", "sample_rate", -1, "hparam sample_rate is -1"),
    ])
    def test_checkpoint_disagreeing_with_hparams_is_config_error(
            self, small_dataset, trained_run, tmp_path, capsys, section, key,
            value, named):
        payload = json.loads(
            (trained_run / "checkpoints" / "best.json").read_text()
        )
        if value is None:
            del payload[section][key]
        else:
            payload[section][key] = value
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(payload))
        code = main(["separate", "--checkpoint", str(ckpt),
                     "--dataset", str(small_dataset), "--out",
                     str(tmp_path / "sep")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert str(ckpt) in err and named in err
        assert not (tmp_path / "sep").exists()

    @pytest.mark.parametrize("mode", ["dataset", "mixture"])
    def test_query_dim_mismatch_writes_nothing(self, small_dataset,
                                               trained_run, tmp_path, capsys,
                                               mode):
        if mode == "dataset":
            # an 8-dim checkpoint on the 16-dim store
            ckpt = tmp_path / "q8.json"
            save_model(ckpt, init_model(np.random.default_rng(0), context=3,
                                        hidden_width=4, query_dim=8))
            source = small_dataset / "embeddings.embd"
            inputs = ["--dataset", str(small_dataset)]
        else:
            rec = json.loads(
                (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
            )
            ckpt = trained_run / "checkpoints" / "best.json"
            source = tmp_path / "query.json"
            source.write_text(json.dumps([0.5] * 5))
            inputs = ["--mixture", str(small_dataset / rec["mixture"]),
                      "--query", str(source)]
        out = tmp_path / "est"
        code = main(["separate", "--checkpoint", str(ckpt), *inputs,
                     "--out", str(out if mode == "dataset" else out / "x.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert str(ckpt) in err and str(source) in err and "query_dim" in err
        assert not out.exists()

    def test_unknown_query_modality_writes_nothing(self, small_dataset,
                                                   trained_run, tmp_path,
                                                   capsys):
        cfg_file = tmp_path / "smell.json"
        cfg_file.write_text(json.dumps({"query_modality": "smell"}))
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset), "--config",
                     str(cfg_file), "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "unknown query_modality 'smell'" in err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("bad, named", [
        # split so that the positional case keeps its index, and its id
        *STFT_KEYS[:2],
        ({"rate_policy": "loose"}, "unknown rate_policy 'loose'"),
        *STFT_KEYS[2:],
        # it would separate at a rate the checkpoint was not trained at
        keyed({"rate_policy": "accept"}, "unknown rate_policy 'accept'"),
    ])
    def test_bad_config_value_writes_nothing(self, small_dataset, trained_run,
                                             tmp_path, capsys, bad, named):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(bad))
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset), "--config",
                     str(cfg_file), "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "est").exists()

    def test_unknown_split_writes_nothing(self, small_dataset, trained_run,
                                          tmp_path, capsys):
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(small_dataset), "--split", "bogus",
                     "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "split 'bogus' names no record" in err
        assert "its splits are: test, train, val" in err
        assert not (tmp_path / "est").exists()

    def test_unknown_query_modality_flag_rejected(self, small_dataset,
                                                  trained_run, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--checkpoint",
                  str(trained_run / "checkpoints" / "best.json"),
                  "--dataset", str(small_dataset), "--query-modality",
                  "smell", "--out", str(tmp_path / "est")])
        assert exc.value.code == 2
        assert "invalid choice: 'smell'" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p["hparams"].pop("dim"), "has no hparam dim"),
        (lambda p: p["hparams"].update(n_bands="24"), "hparam n_bands is '24'"),
        (lambda p: p["hparams"].update(fmin=float("nan")), "hparam fmin is nan"),
        (lambda p: p["hparams"].update(hop=0), "hparam hop is 0"),
        (lambda p: p["hparams"].update(hop=1024), "need hop <= window_size"),
        (lambda p: p["arrays"].pop("projection"), "has no array projection"),
        (lambda p: p["hparams"].update(dim=8), "array projection has shape"),
        (lambda p: p["hparams"].update(n_bands=23), "array projection has shape"),
        (lambda p: p["arrays"]["projection"].update(
            data=base64.b64encode(np.full(16 * 27, np.inf).tobytes()).decode()),
         "array projection holds non-finite values"),
    ])
    def test_corrupt_audio_embedder_is_named(self, small_dataset, trained_run,
                                             tmp_path, capsys, edit, named):
        embedder = dataset_with_embedder(small_dataset, tmp_path / "ds", edit)
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(embedder.parent),
                     "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert str(embedder) in err and named in err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("damage, named", [
        *[(f"no {key}", f"record has no {key!r}") for key in (
            "item_id", "split", "mixture", "target_class", "sample_rate",
            "references")],
        ("sample_rate 16000.0", "'sample_rate' is 16000.0, not an integer"),
        ("references []", "'references' is [], not a non-empty list"),
        ("list line", "not a JSON object"),
        ("cut line", "not a JSON record"),
        ("non-UTF-8 byte", "not UTF-8 text"),
    ])
    def test_bad_manifest_record_writes_nothing(self, small_dataset,
                                                trained_run, tmp_path, capsys,
                                                damage, named):
        dataset = tmp_path / "ds"
        dataset.mkdir()
        for name in ("embeddings.embd", "audio_embedder.json"):
            shutil.copy(small_dataset / name, dataset / name)
        lines = (small_dataset / "manifest.jsonl").read_bytes().splitlines()
        rec = json.loads(lines[1])
        if damage.startswith("no "):
            del rec[damage[3:]]
        elif damage.startswith(("sample_rate", "references")):
            key, value = damage.split(" ")
            rec[key] = json.loads(value)
        lines[1] = {"list line": b"[1, 2]", "cut line": lines[1][:40],
                    "non-UTF-8 byte": lines[1].replace(b"train", b"tr\xffin")
                    }.get(damage, json.dumps(rec).encode())
        manifest = dataset / "manifest.jsonl"
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(dataset), "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: line 2: {named}" in err
        assert not (tmp_path / "est").exists()

    def test_too_short_mixture_is_named(self, trained_run, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, Waveform(np.full(300, 0.1), 16000))
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps({"vector": [0.25] * 16}))
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--mixture", str(short), "--query", str(qfile),
                     "--out", str(tmp_path / "x.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{short}: waveform too short: 300 samples" in err

    @pytest.mark.parametrize("damage, named", [
        (lambda wav: wav.write_bytes(wav.read_bytes()[:1000]),
         "truncated WAV file"),
        (lambda wav: write_wav(wav, Waveform(np.full(300, 0.1), 16000)),
         "waveform too short: 300 samples"),
    ])
    def test_bad_mixture_mid_split_writes_nothing(self, small_dataset,
                                                  trained_run, tmp_path,
                                                  capsys, damage, named):
        dataset = tmp_path / "ds"
        shutil.copytree(small_dataset, dataset)
        records = [json.loads(line) for line in
                   (dataset / "manifest.jsonl").read_text().splitlines()]
        train = [r for r in records if r["split"] == "train"]
        wav = dataset / train[len(train) // 2]["mixture"]
        damage(wav)
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(dataset), "--split", "train",
                     "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{wav}: {named}" in err
        assert not (tmp_path / "est").exists()

    def test_missing_mixture_mid_split_is_named(self, small_dataset,
                                                trained_run, tmp_path, capsys):
        dataset = tmp_path / "ds"
        shutil.copytree(small_dataset, dataset)
        rec = next(json.loads(line) for line in
                   (dataset / "manifest.jsonl").read_text().splitlines()
                   if json.loads(line)["split"] == "test")
        (dataset / rec["mixture"]).unlink()
        code = main(["separate", "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json"),
                     "--dataset", str(dataset), "--out", str(tmp_path / "est")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{dataset / 'manifest.jsonl'}: item {rec['item_id']!r}: " in err
        assert "No such file or directory" in err
        assert str(dataset / rec["mixture"]) in err
        assert not (tmp_path / "est").exists()

    def test_identity_like_checkpoint_on_all_ones_proposal(self, small_dataset,
                                                           tmp_path):
        # saturate the output bias so the proposal is ~1 everywhere: the
        # separation then reproduces the mixture
        from masksep import separator
        from masksep.wavio import read_wav

        model = separator.init_model(np.random.default_rng(0), query_dim=16)
        model.w1[:] = 0; model.b1[:] = 0; model.w2[:] = 0; model.b2[:] = 40.0
        ckpt = tmp_path / "ones.json"
        separator.save_model(ckpt, model)
        rec = json.loads(
            (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
        )
        out = tmp_path / "identity.wav"
        assert main(["separate", "--checkpoint", str(ckpt),
                     "--dataset", str(small_dataset),
                     "--mixture", str(small_dataset / rec["mixture"]),
                     "--query", f"store:text:{rec['item_id']}",
                     "--out", str(out)]) == 0
        mix = read_wav(small_dataset / rec["mixture"])
        est = read_wav(out)
        err = np.linalg.norm(est.samples - mix.samples) / np.linalg.norm(
            mix.samples
        )
        assert err <= 1e-4  # float32 wav quantization dominates


@pytest.fixture(scope="module")
def corrupt_case(small_dataset, trained_run, tmp_path_factory):
    """Inputs of single-file ``separate`` on the first record, and a place
    for corrupted copies of them."""
    rec = json.loads(
        (small_dataset / "manifest.jsonl").read_text().splitlines()[0]
    )
    return {
        "dataset": small_dataset,
        "query": f"store:text:{rec['item_id']}",
        "mixture": small_dataset / rec["mixture"],
        "checkpoint": trained_run / "checkpoints" / "best.json",
        "dir": tmp_path_factory.mktemp("corrupt"),
    }


def separate_with(case, **paths):
    """(exit code, stderr) of single-file ``separate``, with ``paths``
    replacing the case's mixture or checkpoint."""
    files = {"mixture": case["mixture"], "checkpoint": case["checkpoint"],
             **paths}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["separate", "--checkpoint", str(files["checkpoint"]),
                     "--dataset", str(case["dataset"]),
                     "--mixture", str(files["mixture"]),
                     "--query", case["query"],
                     "--out", str(case["dir"] / "out.wav")])
    return code, err.getvalue()


def assert_clean_or_named(code, err, path):
    """A clean run, or exit 2 with one stderr line naming ``path``."""
    assert "Traceback" not in err
    if code != 0:
        assert code == 2, err
        assert len(err.splitlines()) == 1 and str(path) in err, err


def corrupted(data: bytes, cut, flips) -> bytes:
    """``data`` cut to ``cut`` bytes (None: whole), then each (position,
    byte) of ``flips`` written, positions taken modulo the length."""
    out = bytearray(data if cut is None else data[: cut % (len(data) + 1)])
    for pos, value in flips:
        if out:
            out[pos % len(out)] = value
    return bytes(out)


# small, derandomized budget: under 1 s of tier-1 for both file formats;
# positions favour the headers (WAV: the first 64 bytes; checkpoint JSON,
# keys sorted: the hparams, kind and version in the last 400)
FUZZ = settings(max_examples=50, derandomize=True, database=None,
                deadline=None)
WAV_POS = st.one_of(st.integers(0, 63), st.integers(0, 1 << 20))
CKPT_POS = st.one_of(st.integers(-400, -1), st.integers(0, 1 << 20))


class TestCorruptFiles:
    @pytest.mark.parametrize("cut", [0, 20, 30, 44, 1000])
    def test_truncated_mixture_is_named(self, corrupt_case, cut):
        wav = corrupt_case["dir"] / f"cut{cut}.wav"
        wav.write_bytes(corrupt_case["mixture"].read_bytes()[:cut])
        code, err = separate_with(corrupt_case, mixture=wav)
        assert code == 2
        assert_clean_or_named(code, err, wav)

    def test_non_finite_sample_is_named(self, corrupt_case):
        data = bytearray(corrupt_case["mixture"].read_bytes())
        data[-4:] = struct.pack("<f", np.inf)
        wav = corrupt_case["dir"] / "inf.wav"
        wav.write_bytes(bytes(data))
        code, err = separate_with(corrupt_case, mixture=wav)
        assert code == 2 and "non-finite" in err
        assert_clean_or_named(code, err, wav)

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p.pop("kind"), "no 'kind'"),
        (lambda p: p.pop("arrays"), "no 'arrays'"),
        (lambda p: p["arrays"]["w1"].update(data="not base64!"), "'w1' is corrupt"),
        (lambda p: p["arrays"]["b1"].update(dtype="<f5"), "'b1' is corrupt"),
        (lambda p: p["arrays"]["b1"].update(dtype="<i4"), "b1 has dtype int32"),
        (lambda p: p["arrays"]["w2"].update(shape=[-1, 1]), "'w2' is corrupt"),
        (lambda p: p["arrays"]["w2"].update(shape=[3, 1]), "'w2' is corrupt"),
        (lambda p: p["hparams"].update(context="5"), "hparam context is '5'"),
    ])
    def test_corrupt_checkpoint_is_named(self, corrupt_case, edit, named):
        payload = json.loads(corrupt_case["checkpoint"].read_text())
        edit(payload)
        ckpt = corrupt_case["dir"] / "edited.json"
        ckpt.write_text(json.dumps(payload))
        code, err = separate_with(corrupt_case, checkpoint=ckpt)
        assert code == 2 and named in err
        assert_clean_or_named(code, err, ckpt)

    def test_non_finite_weight_is_named(self, corrupt_case):
        model = load_model(corrupt_case["checkpoint"])
        model.b2[0] = np.nan
        ckpt = corrupt_case["dir"] / "nan.json"
        save_model(ckpt, model)
        code, err = separate_with(corrupt_case, checkpoint=ckpt)
        assert code == 2 and "array b2 holds non-finite values" in err
        assert_clean_or_named(code, err, ckpt)

    def test_truncated_checkpoint_json_is_named(self, corrupt_case):
        ckpt = corrupt_case["dir"] / "cut.json"
        ckpt.write_text('{"kind": "separator", ')
        code, err = separate_with(corrupt_case, checkpoint=ckpt)
        assert code == 2 and "malformed checkpoint JSON" in err
        assert_clean_or_named(code, err, ckpt)

    @FUZZ
    @given(cut=st.none() | WAV_POS,
           flips=st.lists(st.tuples(WAV_POS, st.integers(0, 255)),
                          max_size=3))
    def test_fuzzed_mixture(self, corrupt_case, cut, flips):
        wav = corrupt_case["dir"] / "fuzz.wav"
        wav.write_bytes(
            corrupted(corrupt_case["mixture"].read_bytes(), cut, flips))
        code, err = separate_with(corrupt_case, mixture=wav)
        event(f"exit {code}")
        assert_clean_or_named(code, err, wav)

    @FUZZ
    @given(cut=st.none() | CKPT_POS,
           flips=st.lists(st.tuples(CKPT_POS, st.integers(0, 255)),
                          max_size=3))
    def test_fuzzed_checkpoint(self, corrupt_case, cut, flips):
        ckpt = corrupt_case["dir"] / "fuzz.json"
        ckpt.write_bytes(
            corrupted(corrupt_case["checkpoint"].read_bytes(), cut, flips))
        code, err = separate_with(corrupt_case, checkpoint=ckpt)
        event(f"exit {code}")
        assert_clean_or_named(code, err, ckpt)


def _unknown_item(path):
    path.write_text(path.read_text().replace('"item_0000"', '"item_9999"', 1))


def _narrow_embedder(path):
    embedder = AudioFeatureEmbedder.load(path)
    embedder.dim, embedder.projection = 8, embedder.projection[:8]
    embedder.save(path)


def _other_rate(path):
    path.write_text(path.read_text().replace('"sample_rate": 16000',
                                             '"sample_rate": 24000', 1))


def _zero_dimension(path):
    data = path.read_bytes()
    path.write_bytes(data[:6] + struct.pack("<I", 0) + data[10:])


def _nan_text_vectors(path):
    store = load_store(path)
    edited = EmbeddingStore(store.dimension)
    for modality, item_id, label, vec in store.items():
        edited.add(modality, item_id, label,
                   vec * np.nan if modality == "text" else vec)
    save_store(edited, path)


DATASET_DAMAGE = {
    "unknown item": ("manifest.jsonl", _unknown_item,
                     "line 1: {ds}/embeddings.embd has no audio vector for "
                     "item 'item_9999'"),
    "embedder dim": ("audio_embedder.json", _narrow_embedder,
                     "embedder dim 8 is not the dimension 16 of "
                     "{ds}/embeddings.embd"),
    "zero dimension": ("embeddings.embd", _zero_dimension,
                       "store dimension is 0"),
    "nan vector": ("embeddings.embd", _nan_text_vectors,
                   "record 1 vector holds non-finite values"),
    # train-rl would reward it with an embedder calibrated at 16 kHz
    "record rate": ("manifest.jsonl", _other_rate,
                    "line 1: sample_rate 24000 is not the rate 16000 of "
                    "{ds}/audio_embedder.json"),
}


@pytest.mark.parametrize("damage", DATASET_DAMAGE)
@pytest.mark.parametrize("command", ["train-rl", "train-align", "separate"])
def test_unusable_dataset_is_rejected_at_load(small_dataset, trained_run,
                                              tmp_path, capsys, command,
                                              damage):
    name, edit, named = DATASET_DAMAGE[damage]
    ds = tmp_path / "ds"
    shutil.copytree(small_dataset, ds)
    edit(ds / name)
    out = tmp_path / "out"
    argv = {
        "train-rl": ["train-rl", "--run-dir", str(out)],
        "train-align": ["train-align", "--run-dir", str(out)],
        "separate": ["separate", "--out", str(out), "--checkpoint",
                     str(trained_run / "checkpoints" / "best.json")],
    }[command]
    code = main(argv + ["--dataset", str(ds)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert f"{ds / name}: " in err and named.format(ds=ds) in err
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dataset(small_dataset, tmp_path_factory):
    """A copy of the dataset whose files a fuzz example may overwrite and
    must restore."""
    root = tmp_path_factory.mktemp("fuzz_ds") / "ds"
    shutil.copytree(small_dataset, root)
    return root


# manifest: anywhere; store: favour its first 64 bytes, the header and the
# first record; embedder
# checkpoint JSON, keys sorted: favour the hparams in its last 400 bytes
DATASET_POS = {
    "manifest.jsonl": st.integers(0, 1 << 20),
    "embeddings.embd": WAV_POS,
    "audio_embedder.json": CKPT_POS,
}


@pytest.mark.parametrize("name", DATASET_POS)
@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_file(fuzz_dataset, trained_run, name, data):
    pos = DATASET_POS[name]
    cut = data.draw(st.none() | pos, label="cut")
    flips = data.draw(st.lists(st.tuples(pos, st.integers(0, 255)),
                               max_size=3), label="flips")
    path = fuzz_dataset / name
    original = path.read_bytes()
    out = fuzz_dataset.parent / "out"
    path.write_bytes(corrupted(original, cut, flips))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["separate", "--checkpoint",
                         str(trained_run / "checkpoints" / "best.json"),
                         "--dataset", str(fuzz_dataset), "--out", str(out)])
        event(f"exit {code}")
        assert_clean_or_named(code, err.getvalue(), path)
        assert code == 0 or not out.exists()
    finally:
        path.write_bytes(original)
        shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="module")
def sep_out(small_dataset, trained_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_eval") / "sep"
    assert main(["separate", "--checkpoint",
                 str(trained_run / "checkpoints" / "best.json"),
                 "--dataset", str(small_dataset), "--split", "test",
                 "--out", str(out)]) == 0
    return out


class TestEval:

    def test_eval_writes_reports(self, sep_out, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--manifest", str(sep_out / "eval_manifest.jsonl"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_scored"] >= 1
        lines = (out / "report.jsonl").read_text().splitlines()
        assert len(lines) == summary["n_scored"] + summary["n_skipped"]

    def test_eval_determinism(self, sep_out, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["eval", "--manifest",
                         str(sep_out / "eval_manifest.jsonl"),
                         "--out", str(out), "--seed", "9"]) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()

    def test_sir_counts_the_rest_of_the_mixture(self, sep_out, tmp_path):
        # separate's manifest lists the target alone; its SIR is then taken
        # against the rest of the mixture, not saturated at the sentinel
        from masksep.metrics import SENTINEL_DB
        from masksep.wavio import read_wav
        from oracles import bss_decompose

        out = tmp_path / "eval"
        assert main(["eval", "--manifest", str(sep_out / "eval_manifest.jsonl"),
                     "--out", str(out), "--with-bss"]) == 0
        rec = json.loads(
            (sep_out / "eval_manifest.jsonl").read_text().splitlines()[0])
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["item_id"] == rec["item_id"]
        est, target, mix = (read_wav(p) for p in (
            rec["estimates"][0], rec["references"][0], rec["mixture"]))
        rest = Waveform(mix.samples - target.samples, mix.sample_rate)
        _, sir, _ = bss_decompose(est, [target, rest], 0)
        assert report["sir"] == [pytest.approx(sir, abs=1e-9)]
        assert abs(sir) < SENTINEL_DB

    def test_all_skipped_is_runtime_error(self, small_dataset, tmp_path):
        silent = tmp_path / "silent.wav"
        write_wav(silent, Waveform(np.zeros(4096), 16000))
        loud = tmp_path / "loud.wav"
        write_wav(loud, Waveform(np.random.default_rng(0).standard_normal(4096) * 0.1,
                                 16000))
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({
            "item_id": "x", "mixture": str(loud),
            "references": [str(silent)], "estimates": [str(loud)],
        }) + "\n")
        assert main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("missing", ["references", "estimates", "mixture"])
    def test_record_missing_a_key_is_config_error(self, sep_out, tmp_path,
                                                  capsys, missing):
        lines = (sep_out / "eval_manifest.jsonl").read_text().splitlines()
        broken = json.loads(lines[0])
        del broken[missing]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join([lines[0], json.dumps(broken)]) + "\n")
        code = main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: line 2" in err and repr(missing) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, named", [
        ({"references": 5}, "'references' is 5, not a non-empty list of"),
        ({"references": []}, "'references' is [], not a non-empty list of"),
        ({"mixture": 3}, "'mixture' is 3, not a string"),
        ({"estimates": [7]}, "'estimates' is [7], not a non-empty list of"),
        ({"category": [1]}, "'category' is [1], not a string or null"),
        ({"category": 7}, "'category' is 7, not a string or null"),
        ({"item_id": None}, "'item_id' is None, not a string"),
        ({"estimates": ["a.wav", "b.wav"]}, "1 references but 2 estimates"),
        ({"mixture": "no-such.wav"}, "No such file or directory"),
    ])
    def test_record_value_of_wrong_kind_is_config_error(self, sep_out,
                                                        tmp_path, capsys,
                                                        bad, named):
        lines = (sep_out / "eval_manifest.jsonl").read_text().splitlines()
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "\n".join([lines[0], json.dumps({**json.loads(lines[0]), **bad})])
            + "\n")
        code = main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: line 2: " in err and named in err
        assert not (tmp_path / "out").exists()

    @FUZZ
    @given(key=st.sampled_from(
               ["item_id", "category", "mixture", "references", "estimates"]),
           value=st.one_of(
               st.none(), st.booleans(), st.integers(), st.floats(),
               st.text(max_size=8),
               st.lists(st.one_of(st.integers(), st.text(max_size=8)),
                        max_size=3),
               st.dictionaries(st.text(max_size=4), st.integers(),
                               max_size=2)))
    def test_fuzzed_record_value(self, sep_out, key, value):
        line = (sep_out / "eval_manifest.jsonl").read_text().splitlines()[0]
        manifest = sep_out.parent / "fuzz.jsonl"
        manifest.write_text(json.dumps({**json.loads(line), key: value}) + "\n")
        out = sep_out.parent / "fuzz_out"
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["eval", "--manifest", str(manifest),
                             "--out", str(out)])
            event(f"exit {code}")
            assert_clean_or_named(code, err.getvalue(), manifest)
            assert code == 0 or not out.exists()
        finally:
            shutil.rmtree(out, ignore_errors=True)


    @pytest.mark.parametrize("bad, named", [
        ({"bootstrap": 0}, "'bootstrap' must be an integer >= 1, got 0"),
        ({"bootstrap": 100.0}, "'bootstrap' must be an integer >= 1"),
        ({"seed": True}, "'seed' must be an integer >= 0, got True"),
        ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
        ({"with_bss": "no"}, "'with_bss' must be true or false, got 'no'"),
    ])
    def test_bad_config_value_writes_nothing(self, sep_out, tmp_path, capsys,
                                             bad, named):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(bad))
        code = main(["eval", "--manifest", str(sep_out / "eval_manifest.jsonl"),
                     "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "out").exists()

    def test_malformed_record_is_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"mixture": "a"\n')
        code = main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: line 1: not a JSON record" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_manifest_without_records_writes_nothing(self, tmp_path, capsys,
                                                     text):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(text)
        code = main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: holds no record" in err
        assert not (tmp_path / "out").exists()


class TestTrainAlign:
    @pytest.mark.parametrize("bad, named", [
        ({"epochs": -1}, "stage 1: config key 'epochs' must be an integer >= 1, got -1"),
        ({"steps_per_epoch": 0},
         "stage 1: config key 'steps_per_epoch' must be an integer >= 1, got 0"),
        ({"stages": {"2": {"epochs": 0}}},
         "stage 2: config key 'epochs' must be an integer >= 1, got 0"),
        # InfoNCE contrasts at least 2 pairs a batch; a negative lr, clip,
        # decay, margin or loss weight would turn its term around
        ({"stages": {"1": {"batch_size": 1}}},
         "stage 1: config key 'batch_size' must be an integer >= 2, got 1"),
        ({"stages": {"3": {"batch_size": 0}}},
         "stage 3: config key 'batch_size' must be an integer >= 2, got 0"),
        ({"stages": {"2": {"lr": -1.0}}},
         "stage 2: config key 'lr' must be a positive finite number, got -1.0"),
        ({"stages": {"1": {"clip_norm": -1.0}}},
         "stage 1: config key 'clip_norm' must be a number >= 0, got -1.0"),
        ({"stages": {"1": {"weight_decay": -5.0}}},
         "stage 1: config key 'weight_decay' must be a number >= 0, got -5.0"),
        ({"stages": {"2": {"margin": -1}}},
         "stage 2: config key 'margin' must be a number >= 0, got -1"),
        ({"stages": {"2": {"lambda1": -1}}},
         "stage 2: config key 'lambda1' must be a number >= 0, got -1"),
        ({"stages": {"2": {"replay_fraction": 1.5}}},
         "stage 2: config key 'replay_fraction' must be a number in [0, 1], got 1.5"),
    ])
    def test_curriculum_without_steps_is_config_error(self, small_dataset,
                                                      tmp_path, capsys, bad,
                                                      named):
        config = tmp_path / "align.json"
        config.write_text(json.dumps(bad))
        code = main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(tmp_path / "run"), "--config",
                     str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stages, named", [
        ({"1": {"lamda1": 2.0}}, "stage 1: unknown config keys: ['lamda1']"),
        ({"3": {"val_fraction": 0.2}}, "stage 3: unknown config keys"),
        ({"2": {"stage": 3}}, "stage 2: unknown config keys: ['stage']"),
        ({"2": [1.0]}, "stage 2: overrides must be a JSON object"),
        ({"4": {}}, "'stages' must be a JSON object"),
        ([{"lambda1": 2.0}], "'stages' must be a JSON object"),
        ({"2": {"lambda1": "x"}},
         "stage 2: config key 'lambda1' must be a number >= 0, got 'x'"),
        ({"2": {"epochs": 1.5}}, "stage 2: config key 'epochs' must be an integer"),
        # a key the stage never reads would be silently ignored
        ({"1": {"margin": 5.0, "lambda1": 7.0}},
         "stage 1: unknown config keys: ['lambda1', 'margin']; it reads "
         "batch_size, clip_norm, epochs, lr, steps_per_epoch, weight_decay"),
        ({"2": {"mu1": 9.0, "mu4": 0.0}},
         "stage 2: unknown config keys: ['mu1', 'mu4']"),
    ])
    def test_bad_stage_overrides_are_config_errors(self, small_dataset,
                                                   tmp_path, capsys, stages,
                                                   named):
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"stages": stages}))
        code = main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(tmp_path / "run"), "--config",
                     str(config), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, named", [
        ({"tau_init": 0}, "'tau_init' must be a positive finite number, got 0"),
        ({"tau_init": -0.5}, "'tau_init' must be a positive finite number"),
        ({"tau_init": float("nan")}, "'tau_init' must be a positive finite"),
        ({"tau_init": float("inf")}, "'tau_init' must be a positive finite"),
        ({"tau_init": "0.5"}, "'tau_init' must be a positive finite number"),
        ({"gap_split": "bogus"}, "split 'bogus' names no record"),
        ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
        # gap_entries stops after its first item when max_items < 1
        ({"gap_items": 0}, "'gap_items' must be an integer >= 1, got 0"),
        ({"gap_items": 2.5}, "'gap_items' must be an integer >= 1, got 2.5"),
    ])
    def test_bad_config_value_leaves_no_run_dir(self, small_dataset, tmp_path,
                                                capsys, bad, named):
        config = tmp_path / "align.json"
        config.write_text(json.dumps(bad))
        code = main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(tmp_path / "run"), "--config",
                     str(config), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("synth, named", [
        # every target of these three items is am_tone
        (["--items", "3", "--seed", "0"],
         "need at least two classes to build negatives"),
        (["--items", "2", "--seed", "1"],
         "no class has two instances; cannot build positives"),
        # the store keeps its vectors, but the manifest names no item
        (None, "need at least one evaluation item"),
    ])
    def test_unusable_dataset_leaves_no_run_dir(self, small_dataset, tmp_path,
                                                capsys, synth, named):
        dataset = tmp_path / "ds"
        if synth is None:
            dataset.mkdir()
            for name in ("embeddings.embd", "audio_embedder.json"):
                shutil.copy(small_dataset / name, dataset / name)
            (dataset / "manifest.jsonl").write_text("")
        else:
            assert main(["synth", "--out", str(dataset), "--duration",
                         "16384", *synth]) == 0
        capsys.readouterr()
        code = main(["train-align", "--dataset", str(dataset), "--run-dir",
                     str(tmp_path / "run"), "--epochs", "1",
                     "--steps-per-epoch", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    def test_stage_override_is_applied(self, small_dataset, tmp_path):
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"stages": {"2": {"epochs": 2}}}))
        run = tmp_path / "run"
        assert main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(run), "--config", str(config),
                     "--epochs", "1", "--steps-per-epoch", "2"]) == 0
        report = (run / "reports" / "curriculum.txt").read_text()
        assert "stage 1: epochs=1 " in report
        assert "stage 2: epochs=2 " in report

    def test_seed_determinism(self, small_dataset, tmp_path):
        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            assert main(["train-align", "--dataset", str(small_dataset),
                         "--run-dir", str(run), "--epochs", "2",
                         "--steps-per-epoch", "5", "--seed", "7"]) == 0
            runs.append(run)
        assert (runs[0] / "checkpoints" / "heads_best.json").read_bytes() == (
            runs[1] / "checkpoints" / "heads_best.json"
        ).read_bytes()
        assert (runs[0] / "reports" / "gap.json").read_bytes() == (
            runs[1] / "reports" / "gap.json"
        ).read_bytes()


def test_train_rl_reproducibility(small_dataset, tmp_path):
    runs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                     str(run), "--steps", "3", "--batch-size", "4",
                     "--seed", "11", "--warm-start-steps", "5"]) == 0
        runs.append(run)
    assert (runs[0] / "logs" / "train.jsonl").read_bytes() == (
        runs[1] / "logs" / "train.jsonl"
    ).read_bytes()
    for ckpt in ("init.json", "best.json", "last.json"):
        assert (runs[0] / "checkpoints" / ckpt).read_bytes() == (
            runs[1] / "checkpoints" / ckpt
        ).read_bytes()
