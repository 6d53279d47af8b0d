"""Trust-region update mechanics: advantage handling, ratio and surrogate
contracts, the end-to-end gradient check, and loop behavior."""

import copy
import json

import numpy as np
import pytest

from masksep.errors import DivergenceError
from masksep.optim import AdamWState
from masksep.policy import params_from_proposal, sample
from masksep.rl import (
    RewardContext,
    RlConfig,
    SampledItem,
    TrainItem,
    clipped_surrogate,
    evaluate_mean_reward,
    normalize_advantages,
    objective_and_grads,
    train_loop,
    train_step,
)
from masksep.reward import modality_vector
from masksep.separator import forward, init_model, load_model
from masksep.spectral import Mask, StftConfig, Waveform, log_compress, stft
from masksep.synthdata import DEFAULT_CLASSES, build_embedder
from oracles import mask_reward, mean_reward_per_item, reconstruct_one, train_step_per_item

TOY_STFT = StftConfig(fft_size=256, hop=64, window_size=256)


@pytest.fixture(scope="module")
def toy_world():
    """A tiny but complete training setup: 6 items, 2 classes, real audio."""
    oracle, audio_embedder = build_embedder(DEFAULT_CLASSES[:2], dim=16, seed=0)
    rng = np.random.default_rng(0)
    items = []
    fs = 16000
    t = np.arange(4096) / fs
    for i in range(6):
        target_cls = i % 2
        f_target = 180.0 if target_cls == 0 else 2200.0
        f_interf = 2200.0 if target_cls == 0 else 180.0
        target = 0.4 * np.sin(2 * np.pi * f_target * t + rng.uniform(0, 6))
        interf = 0.4 * np.sin(2 * np.pi * f_interf * t + rng.uniform(0, 6))
        mix = Waveform(target + interf, fs)
        mix_spec = stft(mix, TOY_STFT)
        from masksep.spectral import ideal_ratio_mask

        irm = ideal_ratio_mask(stft(Waveform(target, fs), TOY_STFT), mix_spec)
        magnitude = np.abs(mix_spec.bins)
        items.append(
            TrainItem(
                item_id=f"toy_{i}",
                category=f"class_{target_cls}",
                mix_spec=mix_spec,
                log_mag=log_compress(mix_spec),
                query=oracle.embed("text", target_cls, instance_seed=i),
                reward_target=modality_vector(
                    "pooled",
                    oracle.embed("audio", target_cls, instance_seed=i),
                    oracle.embed("text", target_cls, instance_seed=i),
                    oracle.embed("video", target_cls, instance_seed=i),
                ),
                ideal_mask=irm.values,
                bce_weight=magnitude / magnitude.sum(),
            )
        )
    reward_ctx = RewardContext(embedder=audio_embedder)
    model = init_model(np.random.default_rng(1), context=3, hidden_width=8,
                       query_dim=16)
    return items, reward_ctx, model


class TestNormalizeAdvantages:
    def test_constant_vector_maps_to_zero(self):
        out = normalize_advantages(np.array([1.0, 1.0, 1.0]), 1e-6)
        assert np.all(out == 0.0)

    def test_two_point_case(self):
        out = normalize_advantages(np.array([0.0, 2.0]), 1e-6)
        assert out[0] == pytest.approx(-1.0, abs=1e-5)
        assert out[1] == pytest.approx(1.0, abs=1e-5)

    def test_moments_on_nondegenerate_batch(self):
        rng = np.random.default_rng(2)
        a = rng.normal(5.0, 3.0, size=64)
        out = normalize_advantages(a, 1e-6)
        assert abs(out.mean()) <= 1e-6
        assert abs(out.std() - 1.0) <= 1e-3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_advantages(np.array([]), 1e-6)


class TestImportanceRatio:
    """The ratio exp(logp_new - logp_old) inside clipped_surrogate."""

    def test_equal_logprobs(self):
        assert clipped_surrogate(0.0, 1.0, 0.2)[3] == 1.0

    def test_log_two(self):
        value, _, _, ratio = clipped_surrogate(np.log(2.0), -1.0, 0.2)
        assert ratio == pytest.approx(2.0)
        assert value == pytest.approx(-2.0)

    def test_clamp(self):
        # the log-space clamp binds: the ratio saturates and the unclipped
        # branch passes no gradient
        value, grad, clipped, ratio = clipped_surrogate(50.0, -1.0, 0.2)
        assert ratio == pytest.approx(np.exp(20.0))
        assert value == pytest.approx(-np.exp(20.0))
        assert (grad, clipped) == (0.0, False)
        value, grad, clipped, ratio = clipped_surrogate(-50.0, 1.0, 0.2)
        assert ratio == pytest.approx(np.exp(-20.0))
        assert (grad, clipped) == (0.0, False)


class TestClippedSurrogate:
    def test_clip_binds_above(self):
        value, _, clipped, _ = clipped_surrogate(np.log(1.5), 1.0, 0.2)
        assert value == pytest.approx(1.2)
        assert clipped

    def test_pessimistic_negative_advantage(self):
        value, _, clipped, _ = clipped_surrogate(np.log(1.5), -1.0, 0.2)
        assert value == pytest.approx(-1.5)
        assert not clipped

    def test_ratio_one_ties_unclipped(self):
        for adv in (2.5, -2.5, 0.0):
            value, _, clipped, _ = clipped_surrogate(0.0, adv, 0.2)
            assert value == adv
            assert not clipped

    def test_monotone_pessimism(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r = rng.uniform(0.0, 3.0)
            adv = rng.normal()
            value = clipped_surrogate(np.log(r), adv, 0.2)[0]
            assert value <= r * adv + 1e-12

    def test_zero_gradient_when_clip_binds(self):
        assert clipped_surrogate(np.log(1.5), 1.0, 0.2)[1] == 0.0
        assert clipped_surrogate(np.log(0.5), -1.0, 0.2)[1] == 0.0

    def test_gradient_when_unclipped(self):
        assert clipped_surrogate(np.log(1.1), 1.0, 0.2)[1] == pytest.approx(1.1)
        assert clipped_surrogate(np.log(1.5), -1.0, 0.2)[1] == pytest.approx(-1.5)


def toy_sampled_batch(model, old, kappa, cfg, seed=0, carry_forward=False):
    """Sample masks/advantages for a 4-bin toy through the real machinery.

    With ``carry_forward`` the items keep the old model's forward cache,
    as the training step's sampler does (``old`` must then be the
    live model)."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(2):
        item = TrainItem(
            item_id=f"fd_{i}",
            category="x",
            mix_spec=None,
            log_mag=rng.uniform(0.0, 2.0, size=(2, 2)),
            query=rng.standard_normal(2),
            reward_target=None,
            ideal_mask=None,
            bce_weight=None,
        )
        items.append(item)
    batch = []
    for item in items:
        proposal_old, cache = forward(old, item.log_mag, item.query)
        params_old = params_from_proposal(proposal_old, kappa)
        (ps,) = sample([params_old], rng)
        batch.append(
            SampledItem(
                item=item,
                params_old=params_old,
                masks=ps.masks,
                advantages=[float(rng.normal())],
                cache=cache if carry_forward else None,
            )
        )
    return batch


class TestRlObjective:
    """How objective_and_grads assembles J from its surrogate and entropy
    terms."""

    @staticmethod
    def toy(cfg, advantage):
        model = init_model(np.random.default_rng(20), context=1, hidden_width=3,
                           query_dim=2)
        old = copy.deepcopy(model)
        batch = toy_sampled_batch(model, old, 9.0, cfg, seed=21)
        for sampled in batch:
            sampled.advantages = [advantage]
        return objective_and_grads(model, batch, cfg, 9.0)

    def test_single_sample_ratio_one(self):
        result = self.toy(RlConfig(entropy_coef=0.0), 0.7)
        assert result.ratio_mean == 1.0
        assert result.surrogate == pytest.approx(0.7)
        assert result.objective == pytest.approx(0.7)

    def test_entropy_only_regime(self):
        result = self.toy(RlConfig(entropy_coef=0.1), 0.0)
        assert result.surrogate == 0.0
        assert result.objective == pytest.approx(0.1 * result.entropy)


class TestEndToEndGradient:
    def test_matches_finite_differences_on_four_bin_toy(self):
        # generic point: the old policy differs from the live one, so the
        # ratio and clip paths are exercised away from their stationary
        # point
        cfg = RlConfig(entropy_coef=0.1, clip_epsilon=0.2)
        kappa = 9.0
        model = init_model(np.random.default_rng(4), context=1, hidden_width=3,
                           query_dim=2)
        old = copy.deepcopy(model)
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(old, name)
            arr += 0.05 * np.random.default_rng(5).standard_normal(arr.shape)
        batch = toy_sampled_batch(model, old, kappa, cfg, seed=6)

        result = objective_and_grads(model, batch, cfg, kappa)
        h = 1e-6
        worst = 0.0
        for name in ("w1", "b1", "w2", "b2"):
            param = getattr(model, name)
            analytic = getattr(result.grads, name)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = objective_and_grads(model, batch, cfg, kappa).objective
                param[idx] = orig - h
                down = objective_and_grads(model, batch, cfg, kappa).objective
                param[idx] = orig
                fd_loss = -(up - down) / (2 * h)  # grads are of the loss -J
                rel = abs(analytic[idx] - fd_loss) / max(abs(fd_loss), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-3

    def test_zero_advantage_entropy_free_gradients_vanish(self):
        cfg = RlConfig(entropy_coef=0.0)
        model = init_model(np.random.default_rng(7), context=1, hidden_width=3,
                           query_dim=2)
        old = copy.deepcopy(model)
        batch = toy_sampled_batch(model, old, 9.0, cfg, seed=8)
        for s in batch:
            s.advantages = [0.0]
        result = objective_and_grads(model, batch, cfg, 9.0)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(getattr(result.grads, name) == 0.0)

    def test_carried_forward_matches_fresh_forward_bitwise(self):
        # at old == live, reusing the sampler's forward and tables is the
        # same computation as forwarding the live model again
        cfg = RlConfig(entropy_coef=0.1)
        model = init_model(np.random.default_rng(11), context=1, hidden_width=3,
                           query_dim=2)
        carried = toy_sampled_batch(model, model, 9.0, cfg, seed=12,
                                    carry_forward=True)
        fresh = toy_sampled_batch(model, model, 9.0, cfg, seed=12)
        a = objective_and_grads(model, carried, cfg, 9.0)
        b = objective_and_grads(model, fresh, cfg, 9.0)
        assert a.objective == b.objective
        for result in (a, b):
            assert result.ratio_mean == 1.0
            assert result.frac_clipped == 0.0
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a.grads, name), getattr(b.grads, name))


class _ConstantReward:
    def __init__(self, value=0.5):
        self.value = value

    def rewards(self, items, masks):
        return np.full(sum(len(stack) for stack in masks), self.value)


class TestTrainStep:
    def test_ratio_one_and_no_clipping_after_snapshot(self, toy_world):
        items, reward_ctx, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        result = train_step(
            model, AdamWState(), items[:4], cfg,
            np.random.default_rng(0), reward_ctx,
        )
        assert result.ratio_mean == 1.0
        assert result.frac_clipped == 0.0

    def test_constant_rewards_freeze_surrogate(self, toy_world):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        before = {n: getattr(model, n).copy() for n in ("w1", "b1", "w2", "b2")}
        cfg = RlConfig(batch_size=4, steps=10, entropy_coef=0.0,
                       weight_decay=0.0)
        result = train_step(
            model, AdamWState(), items[:4], cfg,
            np.random.default_rng(2), _ConstantReward(),
        )
        assert result.grad_norm == 0.0
        for name, arr in before.items():
            assert np.array_equal(getattr(model, name), arr)

    def test_entropy_still_moves_parameters_with_flat_rewards(self, toy_world):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        before = model.w1.copy()
        cfg = RlConfig(batch_size=4, steps=10, entropy_coef=0.1)
        train_step(model, AdamWState(), items[:4], cfg,
                   np.random.default_rng(3), _ConstantReward())
        assert not np.array_equal(model.w1, before)

    def test_nonfinite_reward_raises_divergence(self, toy_world):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        with pytest.raises(DivergenceError):
            train_step(model, AdamWState(), items[:4], cfg,
                       np.random.default_rng(4), _ConstantReward(np.nan))

    def test_one_table_set_per_item_plus_probe(self, toy_world, monkeypatch):
        # each item's tables serve its sampling, objective and gradients;
        # the kl_post probe builds one more set and reuses the lead item's
        # log-normalizer
        from masksep import policy

        items, reward_ctx, model = toy_world
        model = copy.deepcopy(model)
        calls = {}
        for name in ("log_gamma", "digamma", "trigamma"):
            def counted(x, _fn=getattr(policy, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(x)
            monkeypatch.setattr(policy, name, counted)
        b = 4
        train_step(model, AdamWState(), items[:b], RlConfig(batch_size=b),
                   np.random.default_rng(6), reward_ctx)
        assert calls == {"log_gamma": b + 1, "digamma": b + 1, "trigamma": b}

    def test_one_log_prob_per_mask_and_no_kl_gradient(self, toy_world,
                                                      monkeypatch):
        # sampling does not score its masks, and the objective reuses the
        # sampler's forward, where every log-ratio is 0, so no mask is
        # scored; the objective has no KL term, so only the kl_post probe
        # evaluates a KL
        from masksep import policy, rl

        items, reward_ctx, model = toy_world
        model = copy.deepcopy(model)
        calls = {}

        def counted(name):
            fn = getattr(policy, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        for name in ("log_prob", "kl_divergence"):
            wrapper = counted(name)
            monkeypatch.setattr(policy, name, wrapper)
            monkeypatch.setattr(rl, name, wrapper)
        b = 4
        train_step(model, AdamWState(), items[:b], RlConfig(batch_size=b),
                   np.random.default_rng(7), reward_ctx)
        assert calls == {"kl_divergence": 1}

    def test_report_fields_finite(self, toy_world):
        items, reward_ctx, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        result = train_step(model, AdamWState(), items[:4], cfg,
                            np.random.default_rng(5), reward_ctx)
        for value in result.to_dict().values():
            assert np.isfinite(value)


class TestTrainLoop:
    def run(self, tmp_path, steps, seed=0, name="run", **cfg_kw):
        items, reward_ctx, model = TestTrainLoop._world
        model = copy.deepcopy(model)
        cfg_kw.setdefault("warm_start_steps", 5)
        cfg = RlConfig(batch_size=3, steps=steps, seed=seed, val_interval=5,
                       **cfg_kw)
        run_dir = tmp_path / name
        run_dir.mkdir()
        result = train_loop(
            model, items[:4], items[4:], cfg, reward_ctx,
            log_path=run_dir / "train.jsonl",
            checkpoint_dir=run_dir / "ckpt",
        )
        return result, run_dir

    @pytest.fixture(autouse=True)
    def _bind_world(self, toy_world):
        TestTrainLoop._world = toy_world

    def test_empty_validation_set_rejected(self, tmp_path):
        items, reward_ctx, model = TestTrainLoop._world
        with pytest.raises(ValueError, match="must be nonempty"):
            train_loop(model, items[:4], [], RlConfig(steps=1), reward_ctx,
                       log_path=tmp_path / "train.jsonl",
                       checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_zero_steps_emits_initial_checkpoint_only(self, tmp_path):
        result, run_dir = self.run(tmp_path, steps=0)
        assert (run_dir / "ckpt" / "init.json").exists()
        assert not (run_dir / "ckpt" / "best.json").exists()
        assert not (run_dir / "ckpt" / "last.json").exists()
        assert result.steps_run == 0

    def test_checkpoints_written(self, tmp_path):
        result, run_dir = self.run(tmp_path, steps=6)
        for name in ("init.json", "best.json", "last.json"):
            assert (run_dir / "ckpt" / name).exists()
        load_model(run_dir / "ckpt" / "best.json")
        log_lines = (run_dir / "train.jsonl").read_text().splitlines()
        step_lines = [l for l in log_lines if "mean_reward" in l]
        assert len(step_lines) == 6

    def test_seed_determinism_byte_identical(self, tmp_path):
        _, run_a = self.run(tmp_path, steps=5, seed=11, name="a")
        _, run_b = self.run(tmp_path, steps=5, seed=11, name="b")
        assert (run_a / "train.jsonl").read_bytes() == (
            run_b / "train.jsonl"
        ).read_bytes()
        assert (run_a / "ckpt" / "last.json").read_bytes() == (
            run_b / "ckpt" / "last.json"
        ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        _, run_a = self.run(tmp_path, steps=5, seed=1, name="c")
        _, run_b = self.run(tmp_path, steps=5, seed=2, name="d")
        assert (run_a / "train.jsonl").read_bytes() != (
            run_b / "train.jsonl"
        ).read_bytes()

    def test_log_is_valid_jsonl_without_timestamps(self, tmp_path):
        _, run_dir = self.run(tmp_path, steps=3)
        for line in (run_dir / "train.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert "time" not in rec and "timestamp" not in rec

    def test_kl_post_logged_and_bounded(self, tmp_path):
        _, run_dir = self.run(tmp_path, steps=8, lr=1e-2)
        kls = [
            json.loads(l)["kl_post"]
            for l in (run_dir / "train.jsonl").read_text().splitlines()
            if "kl_post" in l
        ]
        assert len(kls) == 8
        assert all(np.isfinite(k) for k in kls)
        med = np.median(kls)
        if med > 0:
            assert max(kls) <= 10 * med


def test_evaluate_mean_reward_deterministic(toy_world):
    items, reward_ctx, model = toy_world
    a = evaluate_mean_reward(model, items, reward_ctx)
    b = evaluate_mean_reward(model, items, reward_ctx)
    assert a == b
    assert -1.0 <= a <= 1.0


PARAMS = ("w1", "b1", "w2", "b2")


class TestBatchedRollout:
    """The step samples, reconstructs and embeds every mask of the batch
    together; the per-item loop in ``oracles`` is the reference."""

    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_step_matches_per_item_loop_bitwise(self, toy_world, mc_samples):
        items, reward_ctx, model = toy_world
        cfg = RlConfig(batch_size=4, mc_samples=mc_samples, steps=8)
        runs = []
        for step, ctx in ((train_step, reward_ctx),
                          (train_step_per_item, reward_ctx.embedder)):
            live, opt = copy.deepcopy(model), AdamWState()
            rng = np.random.default_rng(8)
            reports = [step(live, opt, items[k : k + 4], cfg, rng, ctx,
                            step_index=k) for k in range(2)]
            runs.append((reports, rng.bit_generator.state, live))
        (reports, state, live), (ref_reports, ref_state, ref_live) = runs
        assert reports == ref_reports
        assert state == ref_state
        for name in PARAMS:
            assert getattr(live, name).tobytes() == getattr(ref_live, name).tobytes()

    def test_live_path_matches_per_item_loop_bitwise(self, toy_world):
        # without the sampler's forward cache, the objective forwards the
        # live model again and scores each mask under the old and the new
        # policy; at a single pass that is the cached step, bit for bit
        items, reward_ctx, model = toy_world
        cfg = RlConfig(batch_size=4, mc_samples=2, steps=8)
        runs = []
        for step, ctx, kw in ((train_step, reward_ctx, {}),
                              (train_step_per_item, reward_ctx.embedder,
                               {"carry_forward": False})):
            live, opt = copy.deepcopy(model), AdamWState()
            rng = np.random.default_rng(13)
            reports = [step(live, opt, items[k : k + 4], cfg, rng, ctx,
                            step_index=k, **kw) for k in range(2)]
            runs.append((reports, live))
        (reports, live), (ref_reports, ref_live) = runs
        assert reports == ref_reports
        for name in PARAMS:
            assert getattr(live, name).tobytes() == getattr(ref_live, name).tobytes()

    def test_validation_matches_per_item_sum_bitwise(self, toy_world):
        items, reward_ctx, model = toy_world
        assert evaluate_mean_reward(model, items, reward_ctx) == \
            mean_reward_per_item(model, items, reward_ctx.embedder)

    def test_silent_mask_scores_minus_one_alone(self, toy_world):
        items, reward_ctx, _ = toy_world
        rng = np.random.default_rng(9)
        masks = [rng.uniform(0.05, 0.95, (2, *item.mix_spec.bins.shape))
                 for item in items[:3]]
        masks[1][0] = 0.0
        rewards = reward_ctx.rewards(items[:3], masks)
        assert rewards.shape == (6,)
        assert rewards[2] == -1.0
        silent = [np.zeros((1, *item.mix_spec.bins.shape)) for item in items[:2]]
        assert reward_ctx.rewards(items[:2], silent).tolist() == [-1.0, -1.0]
        for k, (item, stack) in enumerate(zip(items[:3], masks)):
            for g, mask in enumerate(stack):
                wav = reconstruct_one(item.mix_spec, Mask(mask))
                assert rewards[2 * k + g] == mask_reward(reward_ctx.embedder,
                                                         item, wav)

    @pytest.mark.parametrize("budget,batches", [(None, [6]), (2, [2, 2, 2]),
                                                (4, [4, 2]), (0.5, [1] * 6)])
    def test_batches_split_at_the_bin_budget(self, toy_world, monkeypatch,
                                             budget, batches):
        from masksep import rl

        items, reward_ctx, _ = toy_world
        f, t = items[0].mix_spec.bins.shape
        if budget is not None:
            monkeypatch.setattr(rl, "REWARD_BATCH_BINS", int(budget * f * t))
        sizes = []
        real = rl.reconstruct
        monkeypatch.setattr(rl, "reconstruct",
                            lambda mixes, masks: sizes.append(len(masks))
                            or real(mixes, masks))
        rng = np.random.default_rng(12)
        masks = [rng.uniform(0.05, 0.95, (2, f, t)) for _ in items[:3]]
        rewards = reward_ctx.rewards(items[:3], masks)
        assert sizes == batches
        for k, (item, stack) in enumerate(zip(items[:3], masks)):
            for g, mask in enumerate(stack):
                wav = reconstruct_one(item.mix_spec, Mask(mask))
                assert rewards[2 * k + g] == mask_reward(reward_ctx.embedder,
                                                         item, wav)

    def test_crops_of_different_lengths_in_one_call(self, toy_world):
        items, reward_ctx, _ = toy_world
        short = copy.copy(items[0])
        wave = Waveform(np.random.default_rng(10).standard_normal(3000), 16000)
        short.mix_spec = stft(wave, TOY_STFT)
        batch = [items[1], short, items[2]]
        masks = [np.full((1, *item.mix_spec.bins.shape), 0.5) for item in batch]
        rewards = reward_ctx.rewards(batch, masks)
        for r, item, stack in zip(rewards, batch, masks):
            wav = reconstruct_one(item.mix_spec, Mask(stack[0]))
            assert r == mask_reward(reward_ctx.embedder, item, wav)

    @pytest.mark.parametrize("bad,match", [
        (np.nan, "non-finite"),
        (1.5, r"\[0, 1\]"),
        (-0.5, r"\[0, 1\]"),
    ])
    def test_bad_mask_in_a_batch_rejected(self, toy_world, bad, match):
        items, reward_ctx, _ = toy_world
        masks = [np.full((2, *item.mix_spec.bins.shape), 0.5)
                 for item in items[:3]]
        masks[2][1, 3, 4] = bad
        with pytest.raises(ValueError, match=match):
            reward_ctx.rewards(items[:3], masks)

    def test_mask_of_another_shape_rejected(self, toy_world):
        items, reward_ctx, _ = toy_world
        f, t = items[0].mix_spec.bins.shape
        masks = [np.full((1, f, t), 0.5), np.full((1, f, t - 1), 0.5)]
        with pytest.raises(ValueError, match="does not match"):
            reward_ctx.rewards(items[:2], masks)

    def test_crop_too_short_for_the_embedder_rejected(self, toy_world):
        items, reward_ctx, _ = toy_world
        short = copy.copy(items[0])
        wave = Waveform(np.random.default_rng(11).standard_normal(300), 16000)
        short.mix_spec = stft(wave, TOY_STFT)
        masks = [np.full((1, *item.mix_spec.bins.shape), 0.5)
                 for item in (items[1], short)]
        with pytest.raises(ValueError, match="too short for the embedder"):
            reward_ctx.rewards([items[1], short], masks)
