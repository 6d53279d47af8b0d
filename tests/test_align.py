"""Alignment losses (closed-form and finite-difference oracles), pair
construction constraints, and curriculum mechanics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masksep import checkpoint
from masksep.align import (
    GapEntry,
    HeadSet,
    StageConfig,
    build_pairs,
    discrimination_gap,
    info_nce_symmetric,
    load_heads,
    run_curriculum,
    save_heads,
    stage2_loss,
    stage3_loss,
    triplet_cosine,
    _stage_batch_loss,
)
from masksep.embed import EmbeddingStore, OracleEmbedder, Temperature
from masksep.errors import ConfigError


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def tau(value=1.0):
    return Temperature(log_tau=float(np.log(value)))


class TestInfoNce:
    def test_closed_form_two_orthonormal_pairs(self):
        # za = zt = {e1, e2}, tau = 1: every row softmax puts e/(e+1) on the
        # diagonal, so the loss is -ln(e/(e+1)) = ln(1 + 1/e)
        za = np.eye(2)
        res = info_nce_symmetric(za, za.copy(), tau())
        assert res.loss == pytest.approx(0.31326168751822286, abs=1e-12)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(0)
        za = unit_rows(rng, 6, 8)
        zt = unit_rows(rng, 6, 8)
        base = info_nce_symmetric(za, zt, tau(0.5)).loss
        perm = rng.permutation(6)
        permuted = info_nce_symmetric(za[perm], zt[perm], tau(0.5)).loss
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_loss_positive_on_finite_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            za = unit_rows(rng, 4, 8)
            zt = unit_rows(rng, 4, 8)
            assert info_nce_symmetric(za, zt, tau(0.3)).loss > 0.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            info_nce_symmetric(np.ones((1, 4)), np.ones((1, 4)), tau())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        za = unit_rows(rng, 4, 6)
        zt = unit_rows(rng, 4, 6)
        t = tau(0.7)
        res = info_nce_symmetric(za, zt, t)
        h = 1e-6

        for arr, grad in ((za, res.d_a), (zt, res.d_b)):
            for idx in [(0, 0), (1, 3), (3, 5)]:
                arr[idx] += h
                up = info_nce_symmetric(za, zt, t).loss
                arr[idx] -= 2 * h
                down = info_nce_symmetric(za, zt, t).loss
                arr[idx] += h
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)

        up = info_nce_symmetric(za, zt, Temperature(t.log_tau + h)).loss
        down = info_nce_symmetric(za, zt, Temperature(t.log_tau - h)).loss
        fd = (up - down) / (2 * h)
        assert res.d_log_tau == pytest.approx(fd, rel=1e-4)


class TestTriplet:
    def test_zero_when_positive_dominates(self):
        z1 = np.array([[1.0, 0.0]])
        zn = np.array([[0.0, 1.0]])
        res = triplet_cosine(z1, z1.copy(), zn, margin=0.2)
        # cos(a,p)=1, cos(a,n)=0: hinge = max(0, 0 - 1 + 0.2) = 0
        assert res.loss == 0.0
        assert np.all(res.d_anchor == 0.0)

    def test_worst_case_value(self):
        # positive orthogonal, negative identical: max(0, 1 - 0 + 0.2) = 1.2
        z1 = np.array([[1.0, 0.0]])
        z2 = np.array([[0.0, 1.0]])
        res = triplet_cosine(z1, z2, z1.copy(), margin=0.2)
        assert res.loss == pytest.approx(1.2)

    def test_inactive_exactly_when_margin_satisfied(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z1 = unit_rows(rng, 1, 4)
            z2 = unit_rows(rng, 1, 4)
            zn = unit_rows(rng, 1, 4)
            m = 0.2
            res = triplet_cosine(z1, z2, zn, m)
            cos_p = float(z1[0] @ z2[0])
            cos_n = float(z1[0] @ zn[0])
            if cos_p >= cos_n + m:
                assert res.loss == 0.0
            else:
                assert res.loss > 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        z1 = unit_rows(rng, 5, 6)
        z2 = unit_rows(rng, 5, 6)
        zn = unit_rows(rng, 5, 6)
        res = triplet_cosine(z1, z2, zn, margin=0.4)
        h = 1e-6
        for arr, grad in ((z1, res.d_anchor), (z2, res.d_pos), (zn, res.d_neg)):
            for idx in [(0, 0), (2, 3), (4, 5)]:
                arr[idx] += h
                up = triplet_cosine(z1, z2, zn, 0.4).loss
                arr[idx] -= 2 * h
                down = triplet_cosine(z1, z2, zn, 0.4).loss
                arr[idx] += h
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-9)


class TestStage2Loss:
    def cfg(self, **kw):
        return StageConfig(stage=2, **kw)

    def test_identical_pair_orthogonal_negative(self):
        rng = np.random.default_rng(5)
        z1 = np.eye(4)[:2]
        zn = np.eye(4)[2:4]
        res = stage2_loss(z1, z1.copy(), zn, tau(), self.cfg())
        # triplet and consistency terms vanish; only InfoNCE remains
        nce = info_nce_symmetric(z1, z1.copy(), tau()).loss
        assert res.loss == pytest.approx(nce, abs=1e-12)

    def test_pure_consistency_configuration(self):
        cfg = self.cfg(lambda1=0.0, lambda2=0.0, lambda3=1.0)
        z1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.sqrt(0.5)
        z2 = np.array([[c, c], [c, c]])  # cos = c with each z1 row
        zn = unit_rows(np.random.default_rng(6), 2, 2)
        res = stage2_loss(z1, z2, zn, tau(), cfg)
        # ||z1 - z2||^2 = 2 - 2 cos = 2 - sqrt(2), averaged over rows
        assert res.loss == pytest.approx(2.0 - 2.0 * c, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        z1 = unit_rows(rng, 4, 6)
        z2 = unit_rows(rng, 4, 6)
        zn = unit_rows(rng, 4, 6)
        cfg = self.cfg()
        t = tau(0.5)
        res = stage2_loss(z1, z2, zn, t, cfg)
        h = 1e-6
        arrays = {"z1": z1, "z2": z2, "zn": zn}
        for key, arr in arrays.items():
            grad = res.d_inputs[key]
            for idx in [(0, 0), (1, 2), (3, 5)]:
                arr[idx] += h
                up = stage2_loss(z1, z2, zn, t, cfg).loss
                arr[idx] -= 2 * h
                down = stage2_loss(z1, z2, zn, t, cfg).loss
                arr[idx] += h
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-8), key


class TestStage3Loss:
    def cfg(self, **kw):
        return StageConfig(stage=3, **kw)

    def batch(self, seed, n=4, d=6):
        rng = np.random.default_rng(seed)
        return (unit_rows(rng, n, d), unit_rows(rng, n, d), unit_rows(rng, n, d))

    def test_reduces_to_infonce(self):
        za, zv, _ = self.batch(8)
        cfg = self.cfg(mu1=1.0, mu2=0.0, mu3=0.0, mu4=0.0)
        res = stage3_loss(za, zv, zv, tau(), cfg)
        assert res.loss == pytest.approx(
            info_nce_symmetric(za, zv, tau()).loss, abs=1e-12
        )

    def test_no_replay_needed_when_coefficients_zero(self):
        za, zv_pos, zv_neg = self.batch(9)
        cfg = self.cfg(mu3=0.0, mu4=0.0)
        res = stage3_loss(za, zv_pos, zv_neg, tau(), cfg)
        assert np.isfinite(res.loss)

    def test_missing_replay_rejected(self):
        za, zv_pos, zv_neg = self.batch(10)
        with pytest.raises(ValueError, match="replay"):
            stage3_loss(za, zv_pos, zv_neg, tau(), self.cfg(mu3=0.5, mu4=0.0))
        with pytest.raises(ValueError, match="replay"):
            stage3_loss(za, zv_pos, zv_neg, tau(), self.cfg(mu3=0.0, mu4=0.5))

    def test_full_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        za, zv_pos, zv_neg = self.batch(12)
        replay_s1 = (unit_rows(rng, 3, 6), unit_rows(rng, 3, 6))
        replay_s2 = (unit_rows(rng, 3, 6), unit_rows(rng, 3, 6),
                     unit_rows(rng, 3, 6))
        cfg = self.cfg()
        t = tau(0.6)

        def full_loss():
            return stage3_loss(za, zv_pos, zv_neg, t, cfg,
                               replay_s1=replay_s1, replay_s2=replay_s2).loss

        res = stage3_loss(za, zv_pos, zv_neg, t, cfg,
                          replay_s1=replay_s1, replay_s2=replay_s2)
        h = 1e-6
        arrays = {
            "za": za, "zv_pos": zv_pos, "zv_neg": zv_neg,
            "replay_audio": replay_s1[0], "replay_text": replay_s1[1],
            "replay_z1": replay_s2[0], "replay_z2": replay_s2[1],
            "replay_zn": replay_s2[2],
        }
        worst = 0.0
        for key, arr in arrays.items():
            grad = res.d_inputs[key]
            for idx in [(0, 0), (1, 3), (2, 5)]:
                arr[idx] += h
                up = full_loss()
                arr[idx] -= 2 * h
                down = full_loss()
                arr[idx] += h
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-6)
                worst = max(worst, abs(grad[idx] - fd) / denom)
        assert worst <= 1e-3

        up = stage3_loss(za, zv_pos, zv_neg, Temperature(t.log_tau + h), cfg,
                         replay_s1=replay_s1, replay_s2=replay_s2).loss
        down = stage3_loss(za, zv_pos, zv_neg, Temperature(t.log_tau - h), cfg,
                           replay_s1=replay_s1, replay_s2=replay_s2).loss
        assert res.d_log_tau == pytest.approx((up - down) / (2 * h), rel=1e-3)


def toy_store(n_items=12, n_classes=3, dim=8, seed=0, modalities=("audio", "text",
                                                                  "video")):
    oracle = OracleEmbedder(num_classes=n_classes, dim=dim, seed=seed)
    store = EmbeddingStore(dim)
    for i in range(n_items):
        cls = i % n_classes
        for m in modalities:
            store.add(m, f"item_{i:03d}", f"class_{cls}",
                      oracle.embed(m, cls, instance_seed=i).astype(np.float32))
    return store


class TestBuildPairs:
    def test_stage1_pairs_share_item_and_class(self):
        store = toy_store()
        batch = build_pairs(store, 1, np.random.default_rng(0), 16)
        assert batch.negatives is None
        for (ma, ia), (mp, ip) in zip(batch.anchors, batch.positives):
            assert (ma, mp) == ("audio", "text")
            assert ia == ip

    def test_stage2_constraints(self):
        store = toy_store()
        batch = build_pairs(store, 2, np.random.default_rng(1), 32)
        for (_, ia), (_, ip), (_, i_neg) in zip(
            batch.anchors, batch.positives, batch.negatives
        ):
            assert ia != ip
            assert store.label("audio", ia) == store.label("audio", ip)
            assert store.label("audio", ia) != store.label("audio", i_neg)

    def test_stage3_negative_never_shares_item(self):
        store = toy_store()
        batch = build_pairs(store, 3, np.random.default_rng(2), 32)
        for (_, ia), (mp, ip), (mn, i_neg) in zip(
            batch.anchors, batch.positives, batch.negatives
        ):
            assert (mp, mn) == ("video", "video")
            assert ip == ia
            assert i_neg != ia  # other item = other alignment window

    def test_single_class_store_rejected_for_stage2(self):
        store = toy_store(n_items=6, n_classes=1)
        with pytest.raises(ValueError, match="classes"):
            build_pairs(store, 2, np.random.default_rng(3), 8)

    def test_seeded_determinism(self):
        store = toy_store()
        a = build_pairs(store, 2, np.random.default_rng(7), 16)
        b = build_pairs(store, 2, np.random.default_rng(7), 16)
        assert a.anchors == b.anchors and a.negatives == b.negatives


class TestStageBatchLoss:
    """Head gradients that a curriculum step feeds to the optimizer,
    against central differences of the same batch loss."""

    @staticmethod
    def random_heads(dim, seed):
        rng = np.random.default_rng(seed)
        heads = HeadSet.identity(dim, tau_init=0.4)
        for name in ("audio", "text", "vision"):
            head = getattr(heads, name)
            head.weight += 0.3 * rng.standard_normal((dim, dim))
            head.bias += 0.1 * rng.standard_normal(dim)
        return heads

    @pytest.mark.parametrize("stage,trained", [
        (1, {"audio", "text"}),
        (2, {"audio"}),
        (3, {"audio", "text", "vision"}),  # stage 3 replays stage-1 text
    ])
    def test_head_gradients_match_finite_differences(self, stage, trained):
        store = toy_store(n_items=12, dim=6)
        heads = self.random_heads(6, seed=stage)
        cfg = StageConfig(stage=stage, batch_size=6)
        batch = build_pairs(store, stage, np.random.default_rng(20 + stage), 6)

        def run(hs, backward=False):
            # a fresh rng per evaluation: stage 3 replays the same pairs
            return _stage_batch_loss(store, hs, batch, cfg,
                                     np.random.default_rng(99),
                                     backward=backward)

        _, d_log_tau, grads = run(heads, backward=True)
        assert set(grads) == trained
        h = 1e-6
        for name in trained:
            for param, grad in zip(("weight", "bias"), grads[name]):
                for idx in np.ndindex(grad.shape):
                    plus, minus = heads.copy(), heads.copy()
                    getattr(getattr(plus, name), param)[idx] += h
                    getattr(getattr(minus, name), param)[idx] -= h
                    fd = (run(plus)[0] - run(minus)[0]) / (2 * h)
                    assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        plus, minus = heads.copy(), heads.copy()
        plus.temperature.log_tau += h
        minus.temperature.log_tau -= h
        fd = (run(plus)[0] - run(minus)[0]) / (2 * h)
        assert d_log_tau == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_loss_without_backward_is_the_same(self):
        store = toy_store(n_items=12, dim=6)
        heads = self.random_heads(6, seed=4)
        cfg = StageConfig(stage=3, batch_size=6)
        batch = build_pairs(store, 3, np.random.default_rng(5), 6)
        loss, d_log_tau, grads = _stage_batch_loss(
            store, heads, batch, cfg, np.random.default_rng(6), backward=True)
        again = _stage_batch_loss(store, heads, batch, cfg,
                                  np.random.default_rng(6))
        assert again == (loss, d_log_tau, None)


class TestCurriculum:
    def configs(self, epochs, steps=10):
        return [
            StageConfig(stage=1, epochs=epochs, steps_per_epoch=steps,
                        batch_size=8),
            StageConfig(stage=2, epochs=epochs, steps_per_epoch=steps,
                        batch_size=8),
            StageConfig(stage=3, epochs=epochs, steps_per_epoch=steps,
                        batch_size=8),
        ]

    @pytest.mark.parametrize("key", ["epochs", "steps_per_epoch"])
    def test_stage_without_steps_is_rejected(self, key):
        with pytest.raises(ConfigError, match=f"stage 2: config key '{key}' "
                                              "must be an integer >= 1, got 0"):
            StageConfig(stage=2, **{key: 0})

    def test_carry_over_is_bit_exact(self):
        store = toy_store(n_items=18)
        state = run_curriculum(store, self.configs(epochs=2),
                               np.random.default_rng(1))
        for stage in (2, 3):
            prev_best = state.stage_best[stage - 1]
            initial = state.stage_initial[stage]
            assert np.array_equal(initial.audio.weight, prev_best.audio.weight)
            assert np.array_equal(initial.text.weight, prev_best.text.weight)
            assert np.array_equal(initial.vision.weight, prev_best.vision.weight)
            assert initial.temperature.log_tau == prev_best.temperature.log_tau

    def test_stage2_does_not_touch_text_or_vision_heads(self):
        store = toy_store(n_items=18)
        state = run_curriculum(store, self.configs(epochs=2),
                               np.random.default_rng(2))
        s2_initial = state.stage_initial[2]
        s2_best = state.stage_best[2]
        assert np.array_equal(s2_initial.text.weight, s2_best.text.weight)
        assert np.array_equal(s2_initial.vision.weight, s2_best.vision.weight)
        assert not np.array_equal(s2_initial.audio.weight, s2_best.audio.weight)

    def test_final_val_loss_is_the_last_epoch_score(self, monkeypatch):
        # one validation before the first epoch and one after each; the
        # report reuses the last, taken on the heads the stage ends with
        from masksep import align

        seen = []

        def counted(*args, _fn=align._validation_loss):
            seen.append(_fn(*args))
            return seen[-1]

        monkeypatch.setattr(align, "_validation_loss", counted)
        epochs = 3
        state = run_curriculum(toy_store(n_items=18), self.configs(epochs, 2),
                               np.random.default_rng(3))
        assert len(seen) == 3 * (epochs + 1)
        for report, last in zip(state.stage_reports, seen[epochs::epochs + 1]):
            assert report.epochs_run == epochs
            assert report.final_val_loss == last

    def test_determinism(self):
        store = toy_store()
        a = run_curriculum(store, self.configs(epochs=1),
                           np.random.default_rng(5))
        b = run_curriculum(store, self.configs(epochs=1),
                           np.random.default_rng(5))
        assert np.array_equal(a.heads.audio.weight, b.heads.audio.weight)
        assert a.heads.temperature.log_tau == b.heads.temperature.log_tau


class TestHeadCheckpoint:
    def test_round_trip(self, tmp_path):
        heads = HeadSet.identity(6, tau_init=0.2)
        heads.audio.weight[0, 1] = 0.5
        heads.temperature.log_tau = -1.7
        save_heads(tmp_path / "heads.json", heads)
        loaded = load_heads(tmp_path / "heads.json")
        assert np.array_equal(loaded.audio.weight, heads.audio.weight)
        assert loaded.temperature.log_tau == heads.temperature.log_tau

    @pytest.mark.parametrize("name", ["text_bias", "log_tau"])
    def test_missing_array_is_named(self, tmp_path, name):
        path = tmp_path / "heads.json"
        save_heads(path, HeadSet.identity(6))
        payload = json.loads(path.read_text())
        del payload["arrays"][name]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"heads.json: .* no array {name}"):
            load_heads(path)

    @pytest.mark.parametrize("name, value, named", [
        ("text_weight", np.eye(5), "text_weight has shape (5, 5), expected "
                                   "(6, 6)"),
        ("vision_bias", np.zeros(7), "vision_bias has shape (7,), expected "
                                     "(6,)"),
        ("audio_bias", np.zeros((6, 1)), "audio_bias has shape (6, 1), "
                                         "expected (6,)"),
        ("audio_bias", np.zeros(5), "audio_bias has shape (5,), expected "
                                    "(6,)"),
        ("log_tau", np.array([0.1, 0.2]), "log_tau has shape (2,), expected "
                                          "(1,)"),
        ("log_tau", np.array([[0.1]]), "log_tau has shape (1, 1), expected "
                                       "(1,)"),
        ("audio_weight", np.eye(6, dtype=np.int64),
         "audio_weight has dtype int64, not float32 or float64"),
        ("text_bias", np.full(6, np.nan), "text_bias holds non-finite"),
        ("log_tau", np.array([np.inf]), "log_tau holds non-finite"),
    ])
    def test_unusable_array_is_named(self, tmp_path, name, value, named):
        path = tmp_path / "heads.json"
        save_heads(path, HeadSet.identity(6))
        _, hparams, arrays = checkpoint.load_checkpoint(path)
        checkpoint.save_checkpoint(path, "alignment_heads", hparams,
                                   {**arrays, name: value})
        with pytest.raises(ValueError) as err:
            load_heads(path)
        assert str(err.value).startswith(f"{path}: array {named}")

    # positions favour the last 400 bytes, where the sorted keys put the
    # container, hparams, kind and version
    @settings(max_examples=50, derandomize=True, database=None,
              deadline=None)
    @given(cut=st.none() | st.integers(-400, 1 << 16),
           flips=st.lists(st.tuples(st.integers(-400, 1 << 16),
                                    st.integers(0, 255)), max_size=3))
    def test_fuzzed_heads_load_or_are_named(self, heads_file, cut, flips):
        data = heads_file.read_bytes()
        out = bytearray(data if cut is None else data[: cut % (len(data) + 1)])
        for pos, value in flips:
            if out:
                out[pos % len(out)] = value
        path = heads_file.with_name("fuzz.json")
        path.write_bytes(bytes(out))
        try:
            heads = load_heads(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            dim = heads.audio.bias.shape
            for head in (heads.audio, heads.text, heads.vision):
                assert head.weight.shape == dim * 2 and head.bias.shape == dim
                assert np.isfinite(head.weight).all()
                assert np.isfinite(head.bias).all()
            assert np.isfinite(heads.temperature.log_tau)


@pytest.fixture(scope="module")
def heads_file(tmp_path_factory):
    heads = HeadSet.identity(4, tau_init=0.3)
    heads.text.weight[1, 2] = -0.25
    path = tmp_path_factory.mktemp("heads") / "heads.json"
    save_heads(path, heads)
    return path


class TestDiscriminationGap:
    def test_identical_target_and_mixture_give_zero(self):
        # the same samples, held as float32 and as float64
        from masksep.synthdata import DEFAULT_CLASSES, build_embedder

        oracle, audio = build_embedder(DEFAULT_CLASSES, dim=16, seed=0)
        rng = np.random.default_rng(6)
        w = (rng.standard_normal(8192) * 0.2).astype(np.float32)
        entries = [
            GapEntry(text_vector=oracle.embed("text", 0, 1), target=w,
                     mixture=w.astype(np.float64), sample_rate=16000)
        ]
        res = discrimination_gap(entries, audio, HeadSet.identity(16))
        assert res.mean == 0.0

    def test_empty_entries_rejected(self):
        from masksep.synthdata import DEFAULT_CLASSES, build_embedder

        _, audio = build_embedder(DEFAULT_CLASSES, dim=16, seed=0)
        with pytest.raises(ValueError):
            discrimination_gap([], audio, HeadSet.identity(16))
