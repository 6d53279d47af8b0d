"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 6 and 7 run the real CLI pipeline on the default 4-class
synthetic dataset (200 items, 65535 samples, 16 kHz); expect the full
module to take several minutes of CPU.
"""

import copy
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from masksep import rl
from masksep.cli import main
from masksep.embed import ProjectionHead, project, project_backward
from masksep.metrics import optimal_assignment, si_sdri
from masksep.policy import (
    BetaPolicyParams,
    entropy,
    kl_divergence,
    log_prob_grad,
    params_from_proposal,
)
from masksep.spectral import StftConfig, Waveform, stft
from oracles import bss_decompose, inverse_stft, si_sdr

APPENDIX_STFT = StftConfig(fft_size=1024, hop=256, window_size=1024)


def beta_log_pdf(alpha, beta, m):
    """Elementwise Beta log-density (no reduction), from scipy's
    log-gamma, independent of the package's kernel: the oracle criterion 1
    integrates and samples."""
    from scipy.special import gammaln

    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return (
        (alpha - 1.0) * np.log(m)
        + (beta - 1.0) * np.log1p(-m)
        - (gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta))
    )


def beta_bin(a, b):
    """Beta(a, b), a, b >= 1, as a one-bin policy: kappa = a + b - 2 and the
    proposal is the mode (a - 1) / kappa; Beta(1, 1) is kappa = 0."""
    kappa = a + b - 2.0
    p = 0.5 if kappa == 0.0 else (a - 1.0) / kappa
    return BetaPolicyParams(np.array([p]), kappa)


def announce(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "dataset"
    assert main(["synth", "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def training_run(dataset_dir, tmp_path_factory):
    """The criterion-6 run: defaults, 2000 steps, batch 16, pooled rewards."""
    run = tmp_path_factory.mktemp("accept_run") / "run"
    started = time.perf_counter()
    assert main(["train-rl", "--dataset", str(dataset_dir), "--run-dir",
                 str(run), "--steps", "2000", "--batch-size", "16",
                 "--reward-mode", "pooled", "--seed", "0"]) == 0
    elapsed = time.perf_counter() - started
    return run, elapsed


def test_criterion_1_beta_policy_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)

    # density normalization via endpoint-smoothed Gauss-Legendre quadrature
    nodes, weights = np.polynomial.legendre.leggauss(400)
    u = 0.5 * (nodes + 1.0)
    x = np.sin(np.pi * u / 2.0) ** 2
    jac = (np.pi / 2.0) * np.sin(np.pi * u)
    for _ in range(40):
        a, b = rng.uniform(1.0, 20.0, size=2)
        integral = float(np.sum(0.5 * weights * np.exp(beta_log_pdf(a, b, x)) * jac))
        assert 1.0 - 1e-6 <= integral <= 1.0 + 1e-6

    # entropy and KL against 1e6-draw Monte Carlo
    a, b = 5.5, 5.5
    draws = rng.beta(a, b, size=1_000_000)
    mc_entropy = -float(np.mean(beta_log_pdf(a, b, draws)))
    assert abs(entropy(beta_bin(a, b)) - mc_entropy) <= 1e-2

    ap, bp, aq, bq = 2.0, 2.0, 1.0, 1.0
    draws = rng.beta(ap, bp, size=1_000_000)
    mc_kl = float(np.mean(beta_log_pdf(ap, bp, draws) - beta_log_pdf(aq, bq, draws)))
    kl = kl_divergence(beta_bin(ap, bp), beta_bin(aq, bq))
    assert abs(kl - mc_kl) <= 1e-2

    # KL >= 0 on 1000 random pairs
    pairs = rng.uniform(1.0, 20.0, size=(1000, 4))
    for ap, bp, aq, bq in pairs:
        assert kl_divergence(beta_bin(ap, bp), beta_bin(aq, bq)) >= -1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(1, f"quadrature/MC/KL checks in {elapsed:.1f}s (< 60s)")


def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(1)
    h = 1e-5

    # log_prob gradient in P vs finite differences, <= 1e-4 relative
    from masksep.policy import log_prob

    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(1.05, 15.0, size=2)
        m = np.array([rng.uniform(0.05, 0.95)])
        params = beta_bin(a, b)
        p, kappa = params.proposal[0], params.kappa
        g = log_prob_grad(params, m)
        fd = (
            log_prob(BetaPolicyParams(np.array([p + h]), kappa), m)
            - log_prob(BetaPolicyParams(np.array([p - h]), kappa), m)
        ) / (2 * h)
        worst = max(worst, abs(g[0] - fd) / max(abs(fd), 1e-8))
    assert worst <= 1e-4
    policy_err = worst

    # separator backward vs finite differences, <= 1e-3
    from masksep.separator import backward, forward, init_model

    worst = 0.0
    for seed in range(5):
        model = init_model(np.random.default_rng(seed), context=3,
                           hidden_width=8, query_dim=4)
        log_mag = rng.uniform(0, 2, size=(6, 5))
        query = rng.standard_normal(4)
        upstream = rng.standard_normal((6, 5))
        _, cache = forward(model, log_mag, query)
        grads = backward(model, cache, upstream)
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(model, name)
            analytic = getattr(grads, name)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + 1e-4
                up = float(np.sum(upstream * forward(model, log_mag, query)[0]))
                param[idx] = orig - 1e-4
                down = float(np.sum(upstream * forward(model, log_mag, query)[0]))
                param[idx] = orig
                fd = (up - down) / 2e-4
                worst = max(worst, abs(analytic[idx] - fd) / max(abs(fd), 1e-6))
    assert worst <= 1e-3
    separator_err = worst

    # projection-head gradients over multi-row blocks, <= 1e-4
    worst = 0.0
    for _ in range(10):
        head = ProjectionHead(weight=rng.standard_normal((5, 5)),
                              bias=rng.standard_normal(5))
        e = rng.standard_normal((4, 5))
        up = rng.standard_normal((4, 5))
        d_w, d_b = project_backward(head, e, up)
        for idx in [(0, 0), (2, 3), (4, 4)]:
            plus = head.copy(); plus.weight[idx] += h
            minus = head.copy(); minus.weight[idx] -= h
            fd = (np.sum(up * project(plus, e))
                  - np.sum(up * project(minus, e))) / (2 * h)
            worst = max(worst, abs(d_w[idx] - fd) / max(abs(fd), 1e-8))
    assert worst <= 1e-4

    # all three alignment losses, <= 1e-3 (full stage-3 loss includes the
    # stage-1 and stage-2 replayed objectives)
    from masksep.align import StageConfig, stage3_loss
    from masksep.embed import Temperature

    def unit_rows(n, d):
        mat = rng.standard_normal((n, d))
        return mat / np.linalg.norm(mat, axis=1, keepdims=True)

    za, zv_pos, zv_neg = unit_rows(4, 6), unit_rows(4, 6), unit_rows(4, 6)
    replay_s1 = (unit_rows(3, 6), unit_rows(3, 6))
    replay_s2 = (unit_rows(3, 6), unit_rows(3, 6), unit_rows(3, 6))
    cfg3 = StageConfig(stage=3)
    tau = Temperature(log_tau=float(np.log(0.6)))
    res = stage3_loss(za, zv_pos, zv_neg, tau, cfg3,
                      replay_s1=replay_s1, replay_s2=replay_s2)
    arrays = {"za": za, "zv_pos": zv_pos, "zv_neg": zv_neg,
              "replay_audio": replay_s1[0], "replay_text": replay_s1[1],
              "replay_z1": replay_s2[0], "replay_z2": replay_s2[1],
              "replay_zn": replay_s2[2]}
    worst = 0.0
    for key, arr in arrays.items():
        grad = res.d_inputs[key]
        for idx in [(0, 0), (1, 3), (2, 5)]:
            arr[idx] += 1e-6
            up = stage3_loss(za, zv_pos, zv_neg, tau, cfg3,
                             replay_s1=replay_s1, replay_s2=replay_s2).loss
            arr[idx] -= 2e-6
            down = stage3_loss(za, zv_pos, zv_neg, tau, cfg3,
                               replay_s1=replay_s1, replay_s2=replay_s2).loss
            arr[idx] += 1e-6
            fd = (up - down) / 2e-6
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-6))
    assert worst <= 1e-3

    # end-to-end policy-step gradient on a 4-bin toy, <= 1e-3
    from masksep.policy import sample
    from masksep.rl import RlConfig, Rollout, TrainItem, objective_and_grads

    cfg = RlConfig(entropy_coef=0.1)
    model = init_model(np.random.default_rng(7), context=1, hidden_width=3,
                       query_dim=2)
    old = copy.deepcopy(model)
    for name in ("w1", "b1", "w2", "b2"):
        getattr(old, name)[...] += 0.05 * rng.standard_normal(
            getattr(old, name).shape
        )
    items, olds, stacks, adv = [], [], [], []
    for i in range(2):
        item = TrainItem(item_id=f"fd{i}", category="x", mix_spec=None,
                         log_mag=rng.uniform(0, 2, (2, 2)),
                         query=rng.standard_normal(2), reward_target=None,
                         ideal_mask=None)
        proposal_old, _ = forward(old, item.log_mag, item.query)
        params_old = params_from_proposal(proposal_old, 9.0)
        (masks,) = sample([params_old], np.random.default_rng(10 + i))
        items.append(item)
        olds.append(params_old)
        stacks.append(masks)
        adv.append([rng.normal()])
    # no forward cache: the objective forwards the live model and scores
    # each mask under both policies; the rewards are the advantages
    adv = np.array(adv)
    ro = Rollout(items, 9.0, olds, stacks, adv, [None, None])
    result = objective_and_grads(model, ro, adv, cfg)
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        analytic = getattr(result.grads, name)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + 1e-6
            up = objective_and_grads(model, ro, adv, cfg).objective
            param[idx] = orig - 1e-6
            down = objective_and_grads(model, ro, adv, cfg).objective
            param[idx] = orig
            fd_loss = -(up - down) / 2e-6
            worst = max(worst, abs(analytic[idx] - fd_loss) / max(abs(fd_loss), 1e-6))
    assert worst <= 1e-3
    announce(2, f"policy {policy_err:.1e} (<=1e-4), separator "
                f"{separator_err:.1e}, alignment+step <= 1e-3")


def test_criterion_3_ppo_mechanics(monkeypatch):
    from masksep.rl import (
        RlConfig,
        clipped_surrogate,
        normalize_advantages,
        train_step,
    )
    from masksep.optim import AdamWState
    from masksep.separator import init_model
    from masksep.spectral import log_compress

    rng = np.random.default_rng(3)
    oracle_vec = rng.standard_normal(4)
    items = []
    toy_cfg = StftConfig(256, 64, 256)
    for i in range(4):
        wav = Waveform(rng.standard_normal(2048) * 0.1, 16000)
        spec = stft(wav, toy_cfg)
        items.append(rl.TrainItem(item_id=f"m{i}", category="c", mix_spec=spec,
                                  log_mag=log_compress(spec),
                                  query=rng.standard_normal(4),
                                  reward_target=None, ideal_mask=None))

    def fixed_rewards(values):
        values = list(values)
        return lambda embedder, items, masks: np.array(
            [values.pop(0) for stack in masks for _ in stack])

    # ratio exactly 1 and zero clipping at a single-pass gradient step,
    # where the live policy still equals the sampled one
    model = init_model(np.random.default_rng(4), context=3, hidden_width=8,
                       query_dim=4)
    cfg = RlConfig(batch_size=4, steps=10)
    monkeypatch.setattr(rl, "mask_rewards", fixed_rewards([0.1, 0.5, -0.2, 0.9]))
    result = train_step(model, AdamWState(), items, cfg,
                        np.random.default_rng(5), embedder=None)
    assert result.ratio_mean == 1.0
    assert result.frac_clipped == 0.0

    # clipped branch -> exactly zero ratio-gradient where the clip binds
    assert clipped_surrogate(float(np.log(1.5)), 1.0, 0.2)[1] == 0.0
    assert clipped_surrogate(float(np.log(0.5)), -1.0, 0.2)[1] == 0.0
    value, _, clipped, _ = clipped_surrogate(float(np.log(1.5)), 1.0, 0.2)
    assert clipped and value == pytest.approx(1.2)

    # GRPO batch moments
    arr = np.random.default_rng(6).normal(3.0, 2.0, size=64)
    norm = normalize_advantages(arr, 1e-6)
    assert abs(norm.mean()) <= 1e-6
    assert abs(norm.std() - 1.0) <= 1e-3

    # zero-variance batch: advantages identically zero, zero surrogate update
    model2 = init_model(np.random.default_rng(7), context=3, hidden_width=8,
                        query_dim=4)
    before = {n: getattr(model2, n).copy() for n in ("w1", "b1", "w2", "b2")}
    cfg2 = RlConfig(batch_size=4, steps=10, entropy_coef=0.0,
                    weight_decay=0.0)
    monkeypatch.setattr(rl, "mask_rewards", fixed_rewards([0.5] * 4))
    result = train_step(model2, AdamWState(), items, cfg2,
                        np.random.default_rng(8), embedder=None)
    assert result.grad_norm == 0.0
    for name, arr in before.items():
        assert np.array_equal(getattr(model2, name), arr)
    flat = normalize_advantages(np.array([0.5, 0.5, 0.5, 0.5]), 1e-6)
    assert np.all(flat == 0.0)
    announce(3, "ratio=1/no-clip at the single-pass step, zero bound gradient, "
                "GRPO moments, zero-variance neutrality")


def test_criterion_4_metrics_exactness():
    rng = np.random.default_rng(9)

    # SI-SDR scale invariance to 1e-9 dB
    ref = Waveform(rng.standard_normal(4000), 16000)
    est = Waveform(ref.samples + 0.1 * rng.standard_normal(4000), 16000)
    base = si_sdr(est, ref)
    for c in (0.5, 3.0, -1.7, 1e5):
        assert abs(si_sdr(Waveform(c * est.samples, 16000), ref) - base) <= 1e-9

    # SI-SDRi exactly zero when estimates equal the mixture
    refs = [Waveform(rng.standard_normal(4000), 16000) for _ in range(2)]
    mix = Waveform(refs[0].samples + refs[1].samples, 16000)
    out = si_sdri([mix, mix], refs, mix)
    assert out.si_sdri == 0.0

    # Hungarian equals brute force for N <= 6 over 100 random matrices
    count = 0
    for n in itertools.cycle(range(1, 7)):
        s = rng.uniform(-20, 20, size=(n, n))
        perm = optimal_assignment(s)
        total = sum(s[k, perm[k]] for k in range(n))
        best = max(
            sum(s[k, p[k]] for k in range(n))
            for p in itertools.permutations(range(n))
        )
        assert total == pytest.approx(best, abs=1e-12)
        count += 1
        if count >= 100:
            break

    # energy-guard skip count reported in aggregation
    from masksep.metrics import aggregate

    silent = Waveform(np.zeros(4000), 16000)
    guarded = si_sdri([refs[0], refs[0]], [refs[0], silent], mix)
    assert guarded.skipped
    assert "guard" in guarded.skip_reason
    scored = si_sdri(refs, refs, mix)
    report = aggregate([guarded, scored])
    assert report.n_skipped == 1 and report.n_scored == 1

    # hand-derived orthogonal-reference case: SIR = 0 dB
    from masksep.metrics import SENTINEL_DB

    t = np.arange(1024)
    r1 = np.sin(2 * np.pi * 8 * t / 1024); r1 /= np.linalg.norm(r1)
    r2 = np.sin(2 * np.pi * 16 * t / 1024); r2 /= np.linalg.norm(r2)
    orefs = [Waveform(r1, 16000), Waveform(r2, 16000)]
    sdr, sir, sar = bss_decompose(Waveform(r1 + r2, 16000), orefs, 0)
    assert sdr == pytest.approx(0.0, abs=1e-9)
    assert sir == pytest.approx(0.0, abs=1e-9)
    assert sar == SENTINEL_DB
    announce(4, "scale invariance 1e-9, mixture-baseline zero, Hungarian = "
                "brute force (100 matrices), guard counted, SIR=0 case exact")


def test_criterion_5_stft_round_trip():
    rng = np.random.default_rng(10)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(APPENDIX_STFT.window_size, 66000))
        w = Waveform(rng.standard_normal(n), 16000)
        rec = inverse_stft(stft(w, APPENDIX_STFT))
        err = np.linalg.norm(rec - w.samples) / np.linalg.norm(w.samples)
        worst = max(worst, err)
    assert worst <= 1e-6
    announce(5, f"100 random round trips at (1024/256/1024), worst "
                f"rel err {worst:.2e} <= 1e-6")


def test_criterion_6_end_to_end_rl_improvement(dataset_dir, training_run,
                                               tmp_path):
    run, elapsed = training_run
    summary = json.loads((run / "reports" / "run_summary.json").read_text())

    # (a) validation composite reward strictly above its step-0 value
    assert summary["best_val_reward"] > summary["initial_val_reward"]

    # (b) test-set SI-SDRi of cmd_separate outputs: trained vs untrained
    gains = {}
    for tag in ("init", "best"):
        sep_out = tmp_path / f"sep_{tag}"
        assert main(["separate", "--checkpoint",
                     str(run / "checkpoints" / f"{tag}.json"),
                     "--dataset", str(dataset_dir), "--split", "test",
                     "--out", str(sep_out)]) == 0
        eval_out = tmp_path / f"eval_{tag}"
        assert main(["eval", "--manifest", str(sep_out / "eval_manifest.jsonl"),
                     "--out", str(eval_out)]) == 0
        gains[tag] = json.loads((eval_out / "summary.json").read_text())[
            "mean_si_sdri"
        ]
    improvement = gains["best"] - gains["init"]
    assert improvement >= 3.0

    # (c) wall clock within the stated budget
    assert elapsed <= 15 * 60
    announce(6, f"val {summary['initial_val_reward']:.4f}->"
                f"{summary['best_val_reward']:.4f}, SI-SDRi {gains['init']:.2f}"
                f"->{gains['best']:.2f} dB (+{improvement:.2f} >= 3), "
                f"{elapsed:.0f}s <= 900s")


def test_criterion_7_curriculum_efficacy(dataset_dir, tmp_path):
    started = time.perf_counter()
    run = tmp_path / "align"
    assert main(["train-align", "--dataset", str(dataset_dir), "--run-dir",
                 str(run), "--seed", "0"]) == 0
    gap = json.loads((run / "reports" / "gap.json").read_text())
    elapsed = time.perf_counter() - started
    assert gap["n_items"] >= 50
    assert gap["gap_after_mean"] > 0.0
    assert gap["gap_after_mean"] > gap["gap_before_mean"]
    assert elapsed <= 5 * 60
    announce(7, f"gap {gap['gap_before_mean']:.4f}->{gap['gap_after_mean']:.4f} "
                f"over {gap['n_items']} items in {elapsed:.0f}s <= 300s")


def test_criterion_8_reproducibility(tmp_path):
    # synth
    for name in ("s1", "s2"):
        assert main(["synth", "--out", str(tmp_path / name), "--items", "12",
                     "--seed", "3", "--duration", "16384"]) == 0
    for rel in ("manifest.jsonl", "embeddings.embd", "dataset.json",
                "items/item_0005_mix.wav", "audio_embedder.json"):
        assert (tmp_path / "s1" / rel).read_bytes() == (
            tmp_path / "s2" / rel
        ).read_bytes(), rel

    # train-rl (logs carry no timestamps, so byte comparison is direct)
    for name in ("r1", "r2"):
        assert main(["train-rl", "--dataset", str(tmp_path / "s1"),
                     "--run-dir", str(tmp_path / name), "--steps", "3",
                     "--batch-size", "4", "--seed", "7",
                     "--warm-start-steps", "5"]) == 0
    for rel in ("logs/train.jsonl", "checkpoints/init.json",
                "checkpoints/best.json", "checkpoints/last.json"):
        assert (tmp_path / "r1" / rel).read_bytes() == (
            tmp_path / "r2" / rel
        ).read_bytes(), rel

    # separate
    for name in ("p1", "p2"):
        assert main(["separate", "--checkpoint",
                     str(tmp_path / "r1" / "checkpoints" / "best.json"),
                     "--dataset", str(tmp_path / "s1"), "--split", "test",
                     "--out", str(tmp_path / name)]) == 0
    manifest = tmp_path / "p1" / "eval_manifest.jsonl"
    first_est = json.loads(manifest.read_text().splitlines()[0])["estimates"][0]
    other_est = first_est.replace("/p1/", "/p2/")
    assert Path(first_est).read_bytes() == Path(other_est).read_bytes()

    # eval
    for name in ("e1", "e2"):
        assert main(["eval", "--manifest", str(manifest), "--out",
                     str(tmp_path / name), "--seed", "4"]) == 0
    assert (tmp_path / "e1" / "summary.json").read_bytes() == (
        tmp_path / "e2" / "summary.json"
    ).read_bytes()
    assert (tmp_path / "e1" / "report.jsonl").read_bytes() == (
        tmp_path / "e2" / "report.jsonl"
    ).read_bytes()

    # train-align
    for name in ("a1", "a2"):
        assert main(["train-align", "--dataset", str(tmp_path / "s1"),
                     "--run-dir", str(tmp_path / name), "--epochs", "2",
                     "--steps-per-epoch", "5", "--seed", "2"]) == 0
    assert (tmp_path / "a1" / "checkpoints" / "heads_best.json").read_bytes() == (
        tmp_path / "a2" / "checkpoints" / "heads_best.json"
    ).read_bytes()
    announce(8, "synth, train-rl, separate, eval, train-align reruns are "
                "byte-identical")
