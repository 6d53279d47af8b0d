"""Cosine rewards, the mixup and pooled-anchor vectors, the modality
choice, and the batched mask -> waveform -> embedding path."""

from types import SimpleNamespace

import numpy as np
import pytest

from masksep import reward
from masksep.policy import params_from_proposal, sample
from masksep.reward import cosine_sim, modality_vector
from masksep.separator import forward, init_model
from masksep.spectral import StftConfig, Waveform, log_compress, stft
from masksep.synthdata import DEFAULT_CLASSES, build_embedder


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_sim(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_sim(3.0 * u, v) == pytest.approx(cosine_sim(u, v), abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_sim(np.zeros(4), np.ones(4))

    def test_clamped_into_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u, v = rng.standard_normal(16), rng.standard_normal(16)
            assert -1.0 <= cosine_sim(u, v) <= 1.0


class TestUnimodal:
    def test_perfect_audio_match(self):
        e = unit(np.arange(1, 9, dtype=float))
        assert cosine_sim(e, e) == 1.0

    def test_all_orthogonal(self):
        e = np.array([1.0, 0, 0, 0])
        t = np.array([0, 1.0, 0, 0])
        v = np.array([0, 0, 1.0, 0])
        a = np.array([0, 0, 0, 1.0])
        assert [cosine_sim(e, x) for x in (a, t, v)] == [0.0, 0.0, 0.0]

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e, *targets = (rng.standard_normal(16) for _ in range(4))
            assert all(-1.0 <= cosine_sim(e, x) <= 1.0 for x in targets)


class TestQueryMixup:
    def test_equal_inputs(self):
        q = np.array([0.5, -0.5, 1.0])
        assert np.allclose(modality_vector("mixup", q, q, q), q)

    def test_convex_hull(self):
        rng = np.random.default_rng(4)
        qa, qv, qt = (rng.standard_normal(8) for _ in range(3))
        out = modality_vector("mixup", qa, qt, qv)
        coeffs = np.linalg.lstsq(np.stack([qa, qv, qt]).T, out, rcond=None)[0]
        assert np.allclose(coeffs, 1.0 / 3.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="video"):
            modality_vector("mixup", np.ones(3), np.ones(3),
                            np.array([1.0, np.nan, 0.0]))


def _fused_anchor_oracle(audio, text, video):
    """General bilinear fusion z = W_o (hadamard_k W_k x_k) + b with
    identity projections and a zero bias: the pooled anchor must equal it
    bit for bit."""
    eye = np.eye(len(audio))
    fused = np.ones(len(audio))
    for x in (audio, text, video):
        fused = fused * (eye @ x)
    return eye @ fused + np.zeros(len(audio))


def _weighted_mixup_oracle(q_a, q_v, q_t, w_a=1.0, w_v=1.0, w_t=1.0):
    """Weighted query mixup at weights (1, 1, 1): the unweighted mixup must
    equal it bit for bit."""
    return (w_a * q_a + w_v * q_v + w_t * q_t) / (w_a + w_v + w_t)


class TestAgainstGeneralForms:
    def draws(self, seed, n=2000, d=16):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield tuple(rng.standard_normal(d) for _ in range(4))

    def test_pooled_reward_bitwise(self):
        for e, a, t, v in self.draws(13):
            got = cosine_sim(e, modality_vector("pooled", a, t, v))
            want = cosine_sim(e, _fused_anchor_oracle(a, t, v))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_mixup_reward_and_query_bitwise(self):
        for e, a, t, v in self.draws(14):
            want_q = _weighted_mixup_oracle(a, v, t)
            got_q = modality_vector("mixup", a, t, v)
            assert got_q.tobytes() == want_q.tobytes()
            got = cosine_sim(e, got_q)
            want = cosine_sim(e, want_q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCompositeReward:
    def vectors(self, d=8, seed=7):
        rng = np.random.default_rng(seed)
        return tuple(unit(rng.standard_normal(d)) for _ in range(3))

    def test_audio_mode_reduces_to_unimodal(self):
        a, t, v = self.vectors()
        for name, want in (("audio", a), ("text", t), ("video", v)):
            assert modality_vector(name, a, t, v).tobytes() == want.tobytes()

    def test_pooled_symmetric_uniform_case(self):
        # all targets equal to e_sep = uniform positive unit vector: the
        # Hadamard cube is proportional to the vector itself, cosine 1
        d = 16
        e = np.full(d, 1.0 / np.sqrt(d))
        assert cosine_sim(e, modality_vector("pooled", e, e, e)) == \
            pytest.approx(1.0)

    def test_pooled_scale_invariant_in_estimate(self):
        target = modality_vector("pooled", *self.vectors())
        e = unit(np.random.default_rng(9).standard_normal(8))
        assert cosine_sim(e, target) == pytest.approx(
            cosine_sim(7.3 * e, target), abs=1e-12)

    def test_mixup_mode(self):
        a, t, v = self.vectors()
        e = unit(np.random.default_rng(10).standard_normal(8))
        assert np.allclose(modality_vector("mixup", a, t, v), (a + t + v) / 3)
        assert cosine_sim(e, modality_vector("mixup", a, t, v)) == \
            pytest.approx(cosine_sim(e, (a + t + v) / 3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            modality_vector("loudness", *self.vectors())

    def test_all_modes_in_range(self):
        rng = np.random.default_rng(11)
        vectors = self.vectors(seed=12)
        for mode in ("audio", "text", "video", "mixup", "pooled"):
            target = modality_vector(mode, *vectors)
            for _ in range(20):
                r = cosine_sim(rng.standard_normal(8), target)
                assert -1.0 <= r <= 1.0


class TestBatchSplits:
    """The bins-per-batch rule serves the rollout, validation and item
    preparation alike because a row's bits do not depend on its batch."""

    @pytest.fixture(scope="class")
    def world(self):
        oracle, embedder = build_embedder(DEFAULT_CLASSES[:2], dim=16, seed=0)
        rng = np.random.default_rng(20)
        items = [SimpleNamespace(
            mix_spec=stft(Waveform(0.1 * rng.standard_normal(4096), 16000),
                          StftConfig(256, 64, 256)),
            query=oracle.embed("text", k % 2, instance_seed=k),
            reward_target=oracle.embed("audio", k % 2, instance_seed=k))
            for k in range(5)]
        return embedder, items

    @staticmethod
    def sampled_stack(items):
        # one item's five float64 masks, drawn as the rollout draws them
        model = init_model(np.random.default_rng(21), context=3,
                           hidden_width=8, query_dim=16)
        proposal, _ = forward(model, log_compress(items[0].mix_spec),
                              items[0].query, keep_cache=False)
        return items[:1], sample([params_from_proposal(proposal, 4.0)],
                                 np.random.default_rng(22), 5)

    @staticmethod
    def proposal_stacks(items):
        # five items' float32 proposals, as validation scores them
        model = init_model(np.random.default_rng(23), context=3,
                           hidden_width=8, query_dim=16, dtype=np.float32)
        return items, [forward(model, log_compress(it.mix_spec), it.query,
                               keep_cache=False)[0][None] for it in items]

    @pytest.mark.parametrize("build,dtype", [("sampled_stack", np.float64),
                                             ("proposal_stacks", np.float32)])
    def test_two_two_one_split_matches_one_batch_bitwise(self, world,
                                                         monkeypatch, build,
                                                         dtype):
        embedder, items = world
        items, masks = getattr(self, build)(items)
        flat = [m for stack in masks for m in stack]
        assert len(flat) == 5 and {m.dtype for m in flat} == {np.dtype(dtype)}
        mixes = [it.mix_spec for it, stack in zip(items, masks) for _ in stack]

        def run():
            return (reward.mask_rewards(embedder, items, masks),
                    reward.embed_reconstructions(embedder, mixes, flat))

        sizes = []
        real = reward.reconstruct
        monkeypatch.setattr(reward, "reconstruct",
                            lambda mixes, masks: sizes.append(len(masks))
                            or real(mixes, masks))
        rewards, embeds = run()
        f, t = items[0].mix_spec.bins.shape
        monkeypatch.setattr(reward, "REWARD_BATCH_BINS", 2 * f * t + 1)
        split_rewards, split_embeds = run()
        assert sizes == [5, 5, 2, 2, 1, 2, 2, 1]
        assert split_rewards.tobytes() == rewards.tobytes()
        assert all(e is not None for e in embeds)
        for a, b in zip(split_embeds, embeds, strict=True):
            assert a.tobytes() == b.tobytes()
