"""Command-line contracts: flags, exit codes, artifacts, reproducibility."""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from masksep.cli import main
from masksep.separator import load_model


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds") / "ds"
    assert main(["synth", "--out", str(out), "--items", "16", "--seed", "5",
                 "--duration", "16384"]) == 0
    return out


def run_dirs(tmp_path, *names):
    return [tmp_path / n for n in names]


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

    @pytest.mark.parametrize("bad, named", [
        ({"steps": "x"}, "config key 'steps' must be an integer, got 'x'"),
        ({"batch_size": 2.5}, "config key 'batch_size' must be an integer"),
        ({"lr": True}, "config key 'lr' must be a number, got True"),
        ({"grpo_enabled": 1}, "config key 'grpo_enabled' must be true or false"),
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


@pytest.fixture(scope="module")
def trained_run(small_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("cli_run") / "run"
    assert main(["train-rl", "--dataset", str(small_dataset), "--run-dir",
                 str(run), "--steps", "2", "--batch-size", "4",
                 "--warm-start-steps", "5"]) == 0
    return run


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
        for name in ("manifest.jsonl", "audio_embedder.json", "dataset.json"):
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
        ("hparams", "k_sources", 2, "array w2"),
        ("arrays", "b2", None, "array b2"),
        ("hparams", "context", None, "hparam context"),
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

    def test_all_skipped_is_runtime_error(self, small_dataset, tmp_path):
        from masksep.spectral import Waveform
        from masksep.wavio import write_wav

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


    def test_malformed_record_is_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"mixture": "a"\n')
        code = main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"{manifest}: line 1: not a JSON record" in err


class TestTrainAlign:
    def test_zero_epochs_returns_identity_heads(self, small_dataset, tmp_path):
        run = tmp_path / "align0"
        assert main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(run), "--epochs", "0"]) == 0
        from masksep.align import load_heads

        heads = load_heads(run / "checkpoints" / "heads_best.json")
        assert np.array_equal(heads.audio.weight, np.eye(16))
        report = (run / "reports" / "curriculum.txt").read_text()
        assert "discrimination gap" in report

    @pytest.mark.parametrize("stages, named", [
        ({"1": {"lamda1": 2.0}}, "stage 1: unknown config keys: ['lamda1']"),
        ({"3": {"val_fraction": 0.2}}, "stage 3: unknown config keys"),
        ({"2": {"stage": 3}}, "stage 2: unknown config keys: ['stage']"),
        ({"2": [1.0]}, "stage 2: overrides must be a JSON object"),
        ({"4": {}}, "'stages' must be a JSON object"),
        ([{"lambda1": 2.0}], "'stages' must be a JSON object"),
        ({"1": {"lambda1": "x"}},
         "stage 1: config key 'lambda1' must be a number, got 'x'"),
        ({"2": {"epochs": 1.5}}, "stage 2: config key 'epochs' must be an integer"),
    ])
    def test_bad_stage_overrides_are_config_errors(self, small_dataset,
                                                   tmp_path, capsys, stages,
                                                   named):
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"stages": stages}))
        code = main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(tmp_path / "run"), "--config",
                     str(config), "--epochs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert named in err

    def test_stage_override_is_applied(self, small_dataset, tmp_path):
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"stages": {"2": {"epochs": 0}}}))
        run = tmp_path / "run"
        assert main(["train-align", "--dataset", str(small_dataset),
                     "--run-dir", str(run), "--config", str(config),
                     "--epochs", "1", "--steps-per-epoch", "2"]) == 0
        report = (run / "reports" / "curriculum.txt").read_text()
        assert "stage 1: epochs=1 " in report
        assert "stage 2: epochs=0 " in report

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
