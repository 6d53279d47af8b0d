"""Trust-region update mechanics: advantage handling, ratio and surrogate
contracts, the end-to-end gradient check, and loop behavior."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from masksep.errors import DivergenceError
from masksep.optim import AdamWState
from masksep.policy import params_from_proposal, sample
from masksep.rl import (
    RlConfig,
    Rollout,
    TrainItem,
    clipped_surrogate,
    evaluate_mean_reward,
    normalize_advantages,
    objective_and_grads,
    rollout,
    train_loop,
    train_step,
    update,
    warm_start,
)
from masksep.reward import mask_rewards, modality_vector
from masksep.separator import forward, init_model, load_model
from masksep.spectral import (
    StftConfig,
    Waveform,
    ideal_ratio_mask,
    log_compress,
    stft,
)
from masksep.synthdata import DEFAULT_CLASSES, build_embedder
from oracles import (
    mask_reward,
    mean_reward_per_item,
    reconstruct_one,
    rollout_per_mask,
    warm_start_upfront,
)

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
        irm = ideal_ratio_mask(stft(Waveform(target, fs), TOY_STFT), mix_spec)
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
                ideal_mask=irm,
            )
        )
    model = init_model(np.random.default_rng(1), context=3, hidden_width=8,
                       query_dim=16)
    return items, audio_embedder, model


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


def toy_rollout(old, kappa, seed=0, carry_forward=False):
    """A rollout of one mask per item from ``old`` on a 4-bin toy, through
    the real sampler, and a (B, 1) advantage array drawn beside it (the
    toy's rewards are those advantages).

    With ``carry_forward`` the items keep the old model's forward cache,
    as rl.rollout does (``old`` must then be the live model)."""
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
        )
        items.append(item)
    policies, stacks, advantages, caches = [], [], [], []
    for item in items:
        proposal_old, cache = forward(old, item.log_mag, item.query)
        params_old = params_from_proposal(proposal_old, kappa)
        (masks,) = sample([params_old], rng)
        policies.append(params_old)
        stacks.append(masks)
        advantages.append([rng.normal()])
        caches.append(cache if carry_forward else None)
    adv = np.array(advantages)
    return Rollout(items, kappa, policies, stacks, adv, caches), adv


class TestRlObjective:
    """How objective_and_grads assembles J from its surrogate and entropy
    terms."""

    @staticmethod
    def toy(cfg, advantage):
        model = init_model(np.random.default_rng(20), context=1, hidden_width=3,
                           query_dim=2)
        old = copy.deepcopy(model)
        ro, _ = toy_rollout(old, 9.0, seed=21)
        return objective_and_grads(model, ro, np.full((2, 1), advantage), cfg)

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
        ro, adv = toy_rollout(old, kappa, seed=6)

        result = objective_and_grads(model, ro, adv, cfg)
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
                up = objective_and_grads(model, ro, adv, cfg).objective
                param[idx] = orig - h
                down = objective_and_grads(model, ro, adv, cfg).objective
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
        ro, _ = toy_rollout(old, 9.0, seed=8)
        result = objective_and_grads(model, ro, np.zeros((2, 1)), cfg)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(getattr(result.grads, name) == 0.0)

    def test_carried_forward_matches_fresh_forward_bitwise(self):
        # at old == live, reusing the rollout's forward and tables is the
        # same computation as forwarding the live model again
        cfg = RlConfig(entropy_coef=0.1)
        model = init_model(np.random.default_rng(11), context=1, hidden_width=3,
                           query_dim=2)
        carried, adv = toy_rollout(model, 9.0, seed=12, carry_forward=True)
        fresh, _ = toy_rollout(model, 9.0, seed=12)
        a = objective_and_grads(model, carried, adv, cfg)
        b = objective_and_grads(model, fresh, adv, cfg)
        assert a.objective == b.objective
        for result in (a, b):
            assert result.ratio_mean == 1.0
            assert result.frac_clipped == 0.0
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a.grads, name), getattr(b.grads, name))


def constant_rewards(monkeypatch, value=0.5):
    """Make the rollout score every mask ``value``, whatever its embedder."""
    from masksep import rl

    monkeypatch.setattr(rl, "mask_rewards", lambda embedder, items, masks:
                        np.full(sum(len(stack) for stack in masks), value))


class TestTrainStep:
    def test_ratio_one_and_no_clipping_after_snapshot(self, toy_world):
        items, embedder, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        result = train_step(
            model, AdamWState(), items[:4], cfg,
            np.random.default_rng(0), embedder,
        )
        assert result.ratio_mean == 1.0
        assert result.frac_clipped == 0.0

    def test_constant_rewards_freeze_surrogate(self, toy_world, monkeypatch):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        before = {n: getattr(model, n).copy() for n in ("w1", "b1", "w2", "b2")}
        cfg = RlConfig(batch_size=4, steps=10, entropy_coef=0.0,
                       weight_decay=0.0)
        constant_rewards(monkeypatch)
        result = train_step(
            model, AdamWState(), items[:4], cfg,
            np.random.default_rng(2), embedder=None,
        )
        assert result.grad_norm == 0.0
        for name, arr in before.items():
            assert np.array_equal(getattr(model, name), arr)

    def test_entropy_still_moves_parameters_with_flat_rewards(self, toy_world,
                                                             monkeypatch):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        before = model.w1.copy()
        cfg = RlConfig(batch_size=4, steps=10, entropy_coef=0.1)
        constant_rewards(monkeypatch)
        train_step(model, AdamWState(), items[:4], cfg,
                   np.random.default_rng(3), embedder=None)
        assert not np.array_equal(model.w1, before)

    def test_nonfinite_reward_raises_divergence(self, toy_world, monkeypatch):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        constant_rewards(monkeypatch, np.nan)
        with pytest.raises(DivergenceError):
            train_step(model, AdamWState(), items[:4], cfg,
                       np.random.default_rng(4), embedder=None)

    def test_one_table_set_per_item_plus_probe(self, toy_world, monkeypatch):
        # each item's tables serve its sampling, objective and gradients;
        # the kl_post probe builds one more set (a trigamma table with its
        # digamma, unread) and reuses the lead item's log-normalizer. Every
        # argument the tables see is finite and >= 1, which is why the
        # special functions check none
        from masksep import policy

        items, embedder, model = toy_world
        model = copy.deepcopy(model)
        calls = {}
        for name in ("log_gamma", "digamma_trigamma"):
            def counted(x, _fn=getattr(policy, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                assert np.all(np.isfinite(x)) and np.min(x) >= 1.0
                return _fn(x)
            monkeypatch.setattr(policy, name, counted)
        b = 4
        train_step(model, AdamWState(), items[:b], RlConfig(batch_size=b),
                   np.random.default_rng(6), embedder)
        assert calls == {"log_gamma": b + 1, "digamma_trigamma": b + 1}

    def test_one_log_prob_per_mask_and_no_kl_gradient(self, toy_world,
                                                      monkeypatch):
        # sampling does not score its masks, and the objective reuses the
        # rollout's forward, where every log-ratio is 0, so no mask is
        # scored; the objective has no KL term, so only the kl_post probe
        # evaluates a KL
        from masksep import policy, rl

        items, embedder, model = toy_world
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
                   np.random.default_rng(7), embedder)
        assert calls == {"kl_divergence": 1}

    def test_report_fields_finite(self, toy_world):
        items, embedder, model = toy_world
        model = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, steps=10)
        result = train_step(model, AdamWState(), items[:4], cfg,
                            np.random.default_rng(5), embedder)
        for value in result.to_dict().values():
            assert np.isfinite(value)


class TestTrainLoop:
    def run(self, tmp_path, steps, seed=0, name="run", **cfg_kw):
        items, embedder, model = TestTrainLoop._world
        model = copy.deepcopy(model)
        cfg_kw.setdefault("warm_start_steps", 5)
        cfg = RlConfig(batch_size=3, steps=steps, seed=seed, val_interval=5,
                       **cfg_kw)
        run_dir = tmp_path / name
        run_dir.mkdir()
        result = train_loop(
            model, items[:4], items[4:], cfg, embedder,
            log_path=run_dir / "train.jsonl",
            checkpoint_dir=run_dir / "ckpt",
        )
        return result, run_dir

    @pytest.fixture(autouse=True)
    def _bind_world(self, toy_world):
        TestTrainLoop._world = toy_world

    def test_empty_validation_set_rejected(self, tmp_path):
        items, embedder, model = TestTrainLoop._world
        with pytest.raises(ValueError, match="must be nonempty"):
            train_loop(model, items[:4], [], RlConfig(steps=1), embedder,
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


def noise_items(n, seed):
    """``n`` train items of noise mixtures whose target is one of two
    noise sources, with the query width of ``small_model``."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        target = 0.1 * rng.standard_normal(2048)
        mix_spec = stft(Waveform(target + 0.1 * rng.standard_normal(2048),
                                 16000), TOY_STFT)
        irm = ideal_ratio_mask(stft(Waveform(target, 16000), TOY_STFT),
                               mix_spec)
        items.append(TrainItem(
            item_id=f"n{i}", category="c", mix_spec=mix_spec,
            log_mag=log_compress(mix_spec), query=rng.standard_normal(4),
            reward_target=None, ideal_mask=irm))
    return items


def small_model(dtype=np.float64):
    return init_model(np.random.default_rng(3), context=3, hidden_width=8,
                      query_dim=4, dtype=dtype)


def weighted_bce(model, items) -> float:
    """Mean over ``items`` of the binary cross-entropy of the proposal
    toward the ideal ratio mask, each bin weighted by its share of the
    mixture magnitude."""
    total = 0.0
    for it in items:
        magnitude = np.abs(it.mix_spec.bins)
        weight = magnitude / magnitude.sum()
        proposal, _ = forward(model, it.log_mag, it.query, keep_cache=False)
        p = np.clip(proposal, 1e-7, 1.0 - 1e-7)
        total -= float(np.sum(weight * (it.ideal_mask * np.log(p)
                                        + (1.0 - it.ideal_mask)
                                        * np.log1p(-p))))
    return total / len(items)


class TestWarmStart:
    # 10 items draw 8 a step; 5 items draw all 5 each step
    @pytest.mark.parametrize("n_items", [10, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_upfront_oracle_bitwise(self, dtype, n_items):
        items = noise_items(n_items, seed=n_items)
        cfg = RlConfig(warm_start_steps=4)
        model, oracle = small_model(dtype), small_model(dtype)
        rng, oracle_rng = (np.random.default_rng(9) for _ in range(2))
        assert warm_start(model, items, cfg, rng) is None
        warm_start_upfront(oracle, items, cfg, oracle_rng)
        for name, value in model.params().items():
            assert value.dtype == dtype, name
            assert np.array_equal(value, getattr(oracle, name)), name
        assert rng.random() == oracle_rng.random()

    def test_zero_steps_change_nothing(self):
        items = noise_items(3, seed=0)
        model = small_model()
        rng = np.random.default_rng(9)
        warm_start(model, items, RlConfig(warm_start_steps=0), rng)
        untouched = small_model()
        assert model.version == 0
        for name, value in model.params().items():
            assert np.array_equal(value, getattr(untouched, name)), name
        assert rng.random() == np.random.default_rng(9).random()

    def test_warm_start_reduces_weighted_bce(self, toy_world):
        items, _, model = toy_world
        model = copy.deepcopy(model)
        before = weighted_bce(model, items)
        warm_start(model, items, RlConfig(warm_start_steps=60),
                   np.random.default_rng(20))
        assert weighted_bce(model, items) < before


def test_evaluate_mean_reward_deterministic(toy_world):
    items, embedder, model = toy_world
    a = evaluate_mean_reward(model, items, embedder)
    b = evaluate_mean_reward(model, items, embedder)
    assert a == b
    assert -1.0 <= a <= 1.0


PARAMS = ("w1", "b1", "w2", "b2")


def assert_same_rollout(ro, ref):
    """Every field of two rollouts, bit for bit; a forward cache is
    compared by whether it is there."""
    assert ro.items == ref.items and ro.kappa == ref.kappa
    for old, ref_old in zip(ro.old_policies, ref.old_policies, strict=True):
        assert old.kappa == ref_old.kappa
        assert old.proposal.tobytes() == ref_old.proposal.tobytes()
    for masks, ref_masks in zip(ro.masks, ref.masks, strict=True):
        assert masks.shape == ref_masks.shape
        assert masks.tobytes() == ref_masks.tobytes()
    assert ro.rewards.shape == ref.rewards.shape
    assert ro.rewards.tobytes() == ref.rewards.tobytes()
    assert [c is None for c in ro.caches] == [c is None for c in ref.caches]


class TestBatchedRollout:
    """The step samples, reconstructs and embeds every mask of the batch
    together; the per-mask rollout in ``oracles`` is the reference. Both
    rollouts feed the same update."""

    @staticmethod
    def two_steps(model, items, cfg, seed, roll, embedder, **kw):
        live, opt, rng = copy.deepcopy(model), AdamWState(), np.random.default_rng(seed)
        rollouts, reports = [], []
        for k in range(2):
            ro = roll(live, items[k : k + 4], cfg, rng, embedder, cfg.kappa_at(k),
                      **kw)
            rollouts.append(ro)
            reports.append(update(live, opt, ro, cfg, k))
        return rollouts, reports, rng.bit_generator.state, live

    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_step_matches_per_item_loop_bitwise(self, toy_world, mc_samples):
        items, embedder, model = toy_world
        cfg = RlConfig(batch_size=4, mc_samples=mc_samples, steps=8)
        rollouts, reports, state, live = self.two_steps(
            model, items, cfg, 8, rollout, embedder)
        ref_rollouts, ref_reports, ref_state, ref_live = self.two_steps(
            model, items, cfg, 8, rollout_per_mask, embedder)
        for ro, ref in zip(rollouts, ref_rollouts):
            assert_same_rollout(ro, ref)
        assert reports == ref_reports
        assert state == ref_state
        for name in PARAMS:
            assert getattr(live, name).tobytes() == getattr(ref_live, name).tobytes()
        # train_step is one rollout and one update
        step_live, opt, rng = copy.deepcopy(model), AdamWState(), np.random.default_rng(8)
        assert [train_step(step_live, opt, items[k : k + 4], cfg, rng, embedder,
                           step_index=k) for k in range(2)] == reports
        for name in PARAMS:
            assert getattr(step_live, name).tobytes() == getattr(live, name).tobytes()

    def test_live_path_matches_per_item_loop_bitwise(self, toy_world):
        # without the rollout's forward cache, the update forwards the live
        # model again and scores each mask under the old and the new
        # policy; at a single pass that is the cached step, bit for bit
        items, embedder, model = toy_world
        cfg = RlConfig(batch_size=4, mc_samples=2, steps=8)
        rollouts, reports, _, live = self.two_steps(
            model, items, cfg, 13, rollout, embedder)
        ref_rollouts, ref_reports, _, ref_live = self.two_steps(
            model, items, cfg, 13, rollout_per_mask, embedder,
            carry_forward=False)
        for ro, ref in zip(rollouts, ref_rollouts):
            assert all(c is None for c in ref.caches)
            assert_same_rollout(ro, replace(ref, caches=ro.caches))
        assert reports == ref_reports
        for name in PARAMS:
            assert getattr(live, name).tobytes() == getattr(ref_live, name).tobytes()

    def test_update_drops_each_cache_and_a_second_pass_runs_live(self,
                                                                 toy_world):
        # update drops each item's forward cache once its backward has run;
        # a second pass over the same rollout then forwards the updated
        # model, as a rollout that never carried a cache does, where a kept
        # cache would be stale
        items, embedder, model = toy_world
        live = copy.deepcopy(model)
        cfg = RlConfig(batch_size=4, mc_samples=2, steps=8)
        ro = rollout(live, items[:4], cfg, np.random.default_rng(15), embedder,
                     cfg.kappa_at(0))
        assert all(c is not None for c in ro.caches)
        update(live, AdamWState(), ro, cfg, 0)
        assert ro.caches == [None] * 4
        adv = normalize_advantages(ro.rewards.ravel(), cfg.grpo_eps)
        adv = adv.reshape(ro.rewards.shape)
        second = objective_and_grads(live, ro, adv, cfg)
        ref = objective_and_grads(live, replace(ro, caches=[None] * 4), adv,
                                  cfg)
        assert second.ratio_mean != 1.0
        for field in ("objective", "surrogate", "entropy", "ratio_mean",
                      "frac_clipped"):
            assert getattr(second, field) == getattr(ref, field), field
        for name in PARAMS:
            assert getattr(second.grads, name).tobytes() == \
                getattr(ref.grads, name).tobytes(), name

    def test_rollout_has_no_side_effects(self, toy_world):
        # the model keeps its parameters and version, and the generator
        # moves by exactly one rng.beta call over every mask's bins
        items, embedder, model = toy_world
        model = copy.deepcopy(model)
        before = {n: getattr(model, n).tobytes() for n in PARAMS}
        version = model.version
        cfg = RlConfig(batch_size=4, mc_samples=2, steps=8)
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        ro = rollout(model, items[:4], cfg, rng, embedder, cfg.kappa_at(0))
        assert {n: getattr(model, n).tobytes() for n in PARAMS} == before
        assert model.version == version
        g = cfg.mc_samples
        draws = ref_rng.beta(
            np.concatenate([np.tile(p.alpha.ravel(), g) for p in ro.old_policies]),
            np.concatenate([np.tile(p.beta.ravel(), g) for p in ro.old_policies]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        clipped = np.clip(draws, cfg.sample_clamp, 1.0 - cfg.sample_clamp)
        assert np.concatenate([m.ravel() for m in ro.masks]).tobytes() == \
            clipped.tobytes()

    def test_validation_matches_per_item_sum_bitwise(self, toy_world):
        items, embedder, model = toy_world
        assert evaluate_mean_reward(model, items, embedder) == \
            mean_reward_per_item(model, items, embedder)

    def test_silent_mask_scores_minus_one_alone(self, toy_world):
        items, embedder, _ = toy_world
        rng = np.random.default_rng(9)
        masks = [rng.uniform(0.05, 0.95, (2, *item.mix_spec.bins.shape))
                 for item in items[:3]]
        masks[1][0] = 0.0
        rewards = mask_rewards(embedder, items[:3], masks)
        assert rewards.shape == (6,)
        assert rewards[2] == -1.0
        silent = [np.zeros((1, *item.mix_spec.bins.shape)) for item in items[:2]]
        assert mask_rewards(embedder, items[:2], silent).tolist() == [-1.0, -1.0]
        for k, (item, stack) in enumerate(zip(items[:3], masks)):
            for g, mask in enumerate(stack):
                wav = reconstruct_one(item.mix_spec, mask)
                assert rewards[2 * k + g] == mask_reward(embedder, item, wav)

    @pytest.mark.parametrize("budget,batches", [(None, [6]), (2, [2, 2, 2]),
                                                (4, [4, 2]), (0.5, [1] * 6)])
    def test_batches_split_at_the_bin_budget(self, toy_world, monkeypatch,
                                             budget, batches):
        from masksep import reward

        items, embedder, _ = toy_world
        f, t = items[0].mix_spec.bins.shape
        if budget is not None:
            monkeypatch.setattr(reward, "REWARD_BATCH_BINS", int(budget * f * t))
        sizes = []
        real = reward.reconstruct
        monkeypatch.setattr(reward, "reconstruct",
                            lambda mixes, masks: sizes.append(len(masks))
                            or real(mixes, masks))
        rng = np.random.default_rng(12)
        masks = [rng.uniform(0.05, 0.95, (2, f, t)) for _ in items[:3]]
        rewards = mask_rewards(embedder, items[:3], masks)
        assert sizes == batches
        for k, (item, stack) in enumerate(zip(items[:3], masks)):
            for g, mask in enumerate(stack):
                wav = reconstruct_one(item.mix_spec, mask)
                assert rewards[2 * k + g] == mask_reward(embedder, item, wav)

    def test_crops_of_different_lengths_in_one_call(self, toy_world):
        items, embedder, _ = toy_world
        short = copy.copy(items[0])
        wave = Waveform(np.random.default_rng(10).standard_normal(3000), 16000)
        short.mix_spec = stft(wave, TOY_STFT)
        batch = [items[1], short, items[2]]
        masks = [np.full((1, *item.mix_spec.bins.shape), 0.5) for item in batch]
        rewards = mask_rewards(embedder, batch, masks)
        for r, item, stack in zip(rewards, batch, masks):
            wav = reconstruct_one(item.mix_spec, stack[0])
            assert r == mask_reward(embedder, item, wav)

    @pytest.mark.parametrize("bad,match", [
        (np.nan, "non-finite"),
        (1.5, r"\[0, 1\]"),
        (-0.5, r"\[0, 1\]"),
    ])
    def test_bad_mask_in_a_batch_rejected(self, toy_world, bad, match):
        items, embedder, _ = toy_world
        masks = [np.full((2, *item.mix_spec.bins.shape), 0.5)
                 for item in items[:3]]
        masks[2][1, 3, 4] = bad
        with pytest.raises(ValueError, match=match):
            mask_rewards(embedder, items[:3], masks)

    def test_mask_of_another_shape_rejected(self, toy_world):
        items, embedder, _ = toy_world
        f, t = items[0].mix_spec.bins.shape
        masks = [np.full((1, f, t), 0.5), np.full((1, f, t - 1), 0.5)]
        with pytest.raises(ValueError, match="does not match"):
            mask_rewards(embedder, items[:2], masks)

    def test_crop_too_short_for_the_embedder_rejected(self, toy_world):
        items, embedder, _ = toy_world
        short = copy.copy(items[0])
        wave = Waveform(np.random.default_rng(11).standard_normal(300), 16000)
        short.mix_spec = stft(wave, TOY_STFT)
        masks = [np.full((1, *item.mix_spec.bins.shape), 0.5)
                 for item in (items[1], short)]
        with pytest.raises(ValueError, match="too short for the embedder"):
            mask_rewards(embedder, [items[1], short], masks)
