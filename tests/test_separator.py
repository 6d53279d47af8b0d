"""Mask-proposal network: forward contracts, exact gradients, model
copies, optimizer behavior and checkpoint round trips."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import masksep
from masksep.errors import NonFiniteGradientError
from masksep.optim import AdamWState, adamw_step, clip_by_global_norm
from masksep.separator import (
    ParamGrads,
    _slab_rows,
    _softplus,
    apply_adamw_step,
    backward,
    forward,
    init_model,
    load_model,
    save_model,
)


def small_model(seed=0, context=3, hidden=8, query_dim=4):
    return init_model(np.random.default_rng(seed), context=context,
                      hidden_width=hidden, query_dim=query_dim)


def rand_input(seed, f=6, t=5, query_dim=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 2, size=(f, t)), rng.standard_normal(query_dim)


class TestForward:
    def test_zero_weights_give_half(self):
        m = small_model()
        for name in ("w1", "b1", "w2", "b2"):
            getattr(m, name)[:] = 0.0
        log_mag, query = rand_input(1)
        proposal, _ = forward(m, log_mag, query)
        assert np.allclose(proposal, 0.5)

    def test_saturated_output_bias(self):
        m = small_model()
        m.w2[:] = 0.0
        m.b2[:] = 10.0
        proposal, _ = forward(m, *rand_input(2))
        assert proposal.min() >= 0.9999

    def test_query_conditioning_is_live(self):
        m = small_model(seed=3)
        log_mag, query = rand_input(3)
        p1, _ = forward(m, log_mag, query)
        p2, _ = forward(m, log_mag, 2.0 * query)
        assert np.abs(p1 - p2).max() > 0.0

    def test_output_in_open_unit_interval(self):
        m = small_model(seed=4)
        proposal, _ = forward(m, *rand_input(4))
        assert proposal.min() > 0.0 and proposal.max() < 1.0

    def test_dimension_mismatch(self):
        m = small_model()
        log_mag, _ = rand_input(5)
        with pytest.raises(ValueError, match="query"):
            forward(m, log_mag, np.zeros(7))

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("shape", [(0, 9), (513, 0)], ids=["0x9", "513x0"])
    def test_empty_grid_is_named(self, shape, keep_cache):
        with pytest.raises(ValueError) as err:
            forward(small_model(), np.zeros(shape), np.zeros(4),
                    keep_cache=keep_cache)
        assert str(err.value) == (f"log_mag must be a non-empty F x T grid, "
                                  f"got shape {shape}")

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128])
    def test_init_rejects_other_dtypes(self, dtype):
        # the parameter dtypes load_model accepts are the only ones
        with pytest.raises(ValueError, match="float32 or float64"):
            init_model(np.random.default_rng(0), dtype=dtype)

    def test_determinism(self):
        m = small_model(seed=6)
        log_mag, query = rand_input(6)
        a, _ = forward(m, log_mag, query)
        b, _ = forward(m, log_mag, query)
        assert np.array_equal(a, b)


# grid width T, then a height F that splits into two or more slabs with a
# remainder (whole-row slabs hold 4096 bins or a little more); every grid
# holds at least 16,400 bins, so a BLAS kernel chosen by the size of the
# call can differ between the whole grid and a slab
SLAB_GRIDS = [(1, 16400), (9, 2000), (65, 300), (257, 150)]
# the seeds the compared models are drawn from
SLAB_SEEDS = [1]

_COMPARE_SLABS = """
import json, sys
import numpy as np
from masksep.separator import forward, init_model
out = {}
for t, f, dtype, seed in json.loads(sys.argv[1]):
    model = init_model(np.random.default_rng(seed), dtype=np.dtype(dtype))
    rng = np.random.default_rng(t)
    log_mag = rng.uniform(0.0, 3.0, size=(f, t))
    query = rng.standard_normal(model.query_dim)
    cached, _ = forward(model, log_mag, query)
    free, cache = forward(model, log_mag, query, keep_cache=False)
    out[f"{t}-{dtype}-{seed}"] = [cache is None, free.dtype == cached.dtype,
                                  free.tobytes() == cached.tobytes()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def slab_comparison():
    """Cache-free against cached forward on every SLAB_GRIDS case, float32
    and float64, for each SLAB_SEEDS model, run under one BLAS thread: a
    threaded BLAS splits the rows of a call among its threads and rounds
    the rows at a split as it rounds a call's last rows, so the bits would
    then depend on the thread count as well."""
    cases = [(t, f, dtype, seed) for t, f in SLAB_GRIDS
             for dtype in ("float32", "float64") for seed in SLAB_SEEDS]
    src = str(Path(masksep.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _COMPARE_SLABS, json.dumps(cases)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestCacheFreeForward:
    @pytest.mark.parametrize("seed", SLAB_SEEDS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("t, f", SLAB_GRIDS)
    def test_bitwise_equal_to_cached(self, slab_comparison, t, f, dtype, seed):
        slab = _slab_rows(f, t)
        assert f // slab >= 2 and f % slab and (slab * t) % 64 == 0
        no_cache, same_dtype, same_bits = slab_comparison[
            f"{t}-{dtype}-{seed}"]
        assert no_cache and same_dtype and same_bits

    def test_peak_allocation_under_a_quarter(self):
        # 513 x 256 is the grid separate sees for a 65535-sample mixture
        # (16-row slabs); an odd frame count such as 257 is the worst case,
        # whose slabs are 64 rows
        model = init_model(np.random.default_rng(0), dtype=np.float32)
        for t in (257, 256):
            rng = np.random.default_rng(1)
            log_mag = rng.uniform(0.0, 3.0, size=(513, t)).astype(np.float32)
            query = rng.standard_normal(model.query_dim)
            peaks = {}
            for keep_cache in (True, False):
                tracemalloc.start()
                try:
                    result = forward(model, log_mag, query,
                                     keep_cache=keep_cache)
                    peaks[keep_cache] = tracemalloc.get_traced_memory()[1]
                    del result
                finally:
                    tracemalloc.stop()
            assert peaks[False] < peaks[True] / 4, t


def loss_and_grads(model, log_mag, query, weights):
    """Scalar loss sum(weights * proposal) and its parameter gradients."""
    proposal, cache = forward(model, log_mag, query)
    grads = backward(model, cache, weights)
    return float(np.sum(weights * proposal)), grads


class TestBackward:
    def test_matches_finite_differences(self):
        # criterion: rel err <= 1e-3 on every parameter of a width-8 model
        h = 1e-4
        worst = 0.0
        for seed in range(20):
            model = small_model(seed=seed)
            log_mag, query = rand_input(100 + seed)
            weights = np.random.default_rng(200 + seed).standard_normal(
                log_mag.shape
            )
            _, grads = loss_and_grads(model, log_mag, query, weights)
            for name in ("w1", "b1", "w2", "b2"):
                param = getattr(model, name)
                analytic = getattr(grads, name)
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + h
                    up, _ = loss_and_grads(model, log_mag, query, weights)
                    param[idx] = orig - h
                    down, _ = loss_and_grads(model, log_mag, query, weights)
                    param[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(analytic[idx] - fd) / max(abs(fd), 1e-6)
                    worst = max(worst, rel)
        assert worst <= 1e-3

    def test_zero_upstream_gives_zero_grads(self):
        model = small_model(seed=7)
        log_mag, query = rand_input(7)
        _, cache = forward(model, log_mag, query)
        grads = backward(model, cache, np.zeros(log_mag.shape))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(getattr(grads, name) == 0.0)

    def test_gradient_linearity(self):
        model = small_model(seed=8)
        log_mag, query = rand_input(8)
        rng = np.random.default_rng(9)
        u1 = rng.standard_normal(log_mag.shape)
        u2 = rng.standard_normal(log_mag.shape)
        _, cache = forward(model, log_mag, query)
        g1 = backward(model, cache, u1)
        g2 = backward(model, cache, u2)
        g_sum = backward(model, cache, u1 + u2)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(
                getattr(g_sum, name),
                getattr(g1, name) + getattr(g2, name),
                rtol=1e-12, atol=1e-12,
            )

    def test_stale_cache_rejected(self):
        model = small_model(seed=10)
        log_mag, query = rand_input(10)
        _, cache = forward(model, log_mag, query)
        grads = backward(model, cache, np.ones(log_mag.shape))
        apply_adamw_step(model, grads, AdamWState())
        with pytest.raises(ValueError, match="stale"):
            backward(model, cache, np.ones(log_mag.shape))



def _patches(model, log_mag):
    """Bin-major flattened context x context patches and the frequency
    coordinate of every bin, in the parameter dtype."""
    dtype = model.w1.dtype
    log_mag = np.asarray(log_mag, dtype=dtype)
    f, t = log_mag.shape
    c = model.context
    padded = np.pad(log_mag, c // 2, mode="constant")
    patches = np.lib.stride_tricks.sliding_window_view(padded, (c, c))
    freq = np.repeat(np.arange(f, dtype=dtype) / max(f - 1, 1), t)
    return patches.reshape(f * t, c * c), freq


def _head(model, hidden):
    pre2 = hidden @ model.w2[:, 0] + model.b2
    return 1.0 / (1.0 + np.exp(-pre2))


def plain_forward(model, log_mag, query):
    """The straightforward formulas the in-place forward() must reproduce
    bit for bit: (proposal, features, hidden), with features bin-major
    [patch, frequency, 1] and the query folded into the bias row."""
    dtype = model.w1.dtype
    patches, freq = _patches(model, log_mag)
    n_fixed = patches.shape[1] + 1
    features = np.column_stack([patches, freq, np.ones_like(freq)])
    q = np.asarray(query, dtype=dtype)
    w_eff = np.vstack([model.w1[:n_fixed],
                       q @ model.w1[n_fixed:] + model.b1])
    pre1 = features @ w_eff
    cap = dtype.type(np.log(np.finfo(dtype).max) - 1.0)
    hidden = np.maximum(np.log1p(np.exp(np.minimum(pre1, cap))), pre1)
    proposal = _head(model, hidden)
    return proposal.reshape(np.shape(log_mag)), features, hidden


def plain_backward(model, features, hidden, proposal, query, upstream):
    """The straightforward gradients backward() must reproduce bit for bit:
    the sigmoid is -expm1(-hidden), whose rank-1 factor d_pre2 x w2 is
    split between the features (rows) and the product's columns; d_b1 is
    the constant-1 row of that product and the query rows are
    outer(query, d_b1)."""
    dtype = model.w1.dtype
    up = np.asarray(upstream, dtype=dtype).reshape(-1)
    p = proposal.reshape(-1)
    d_pre2 = up * p * (1.0 - p)
    d_fixed = ((features.T * d_pre2) @ np.expm1(-hidden)) * -model.w2[:, 0]
    d_b1 = d_fixed[-1]
    d_w1 = np.vstack([d_fixed[:-1],
                      np.outer(np.asarray(query, dtype=dtype), d_b1)])
    return {"w1": d_w1, "b1": d_b1,
            "w2": (hidden.T @ d_pre2)[:, None], "b2": d_pre2.sum(keepdims=True)}


def all_inputs_forward_backward(model, log_mag, query, upstream):
    """The first layer over all of [patch, frequency, query] plus a bias
    pass, and its sigmoid from the pre-activation: the same function,
    rounded another way. Returns the proposal and the gradients."""
    dtype = model.w1.dtype
    patches, freq = _patches(model, log_mag)
    q = np.broadcast_to(np.asarray(query, dtype=dtype),
                        (freq.size, model.query_dim))
    features = np.column_stack([patches, freq, q])
    pre1 = features @ model.w1 + model.b1
    hidden = np.maximum(pre1, 0.0) + np.log1p(np.exp(-np.abs(pre1)))
    proposal = _head(model, hidden)
    d_pre2 = (np.asarray(upstream, dtype=dtype).reshape(-1)
              * proposal * (1.0 - proposal))
    d_pre1 = d_pre2[:, None] * model.w2[:, 0] * (1.0 / (1.0 + np.exp(-pre1)))
    return proposal.reshape(np.shape(log_mag)), {
        "w1": features.T @ d_pre1, "b1": d_pre1.sum(axis=0),
        "w2": (hidden.T @ d_pre2)[:, None], "b2": d_pre2.sum(keepdims=True)}


def training_crop(dtype):
    """A 513 x 9 training crop, its query and an upstream gradient, with
    the default architecture."""
    model = init_model(np.random.default_rng(13), dtype=dtype)
    rng = np.random.default_rng(14)
    log_mag = rng.uniform(0.0, 3.0, size=(513, 9))
    query = rng.standard_normal(model.query_dim)
    upstream = rng.standard_normal((513, 9))
    return model, log_mag, query, upstream


class TestKernelsMatchPlainFormulas:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bitwise(self, dtype):
        model, log_mag, query, upstream = training_crop(dtype)
        proposal, cache = forward(model, log_mag, query)
        ref, features, hidden = plain_forward(model, log_mag, query)
        assert proposal.dtype == ref.dtype == dtype
        assert np.array_equal(proposal, ref)
        # input-major storage, read as bins x inputs
        assert cache.features.T.flags.c_contiguous
        assert np.array_equal(cache.features, features)
        assert np.array_equal(cache.hidden, hidden)
        grads = backward(model, cache, upstream).as_dict()
        ref_grads = plain_backward(model, features, hidden, ref, query,
                                   upstream)
        for name in ("w1", "b1", "w2", "b2"):
            assert grads[name].dtype == dtype
            assert grads[name].shape == getattr(model, name).shape
            assert np.array_equal(grads[name], ref_grads[name]), name

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    def test_close_to_the_all_inputs_formulas(self, dtype, rel):
        # folding the query into the bias row and reading the sigmoid off
        # the activation only reorders roundings
        model, log_mag, query, upstream = training_crop(dtype)
        proposal, cache = forward(model, log_mag, query)
        grads = backward(model, cache, upstream).as_dict()
        ref, ref_grads = all_inputs_forward_backward(model, log_mag, query,
                                                     upstream)
        for name, got, want in [("proposal", proposal, ref)] + [
                (name, grads[name], ref_grads[name])
                for name in ("w1", "b1", "w2", "b2")]:
            assert got.dtype == want.dtype == dtype
            assert (np.abs(got - want).max()
                    <= rel * np.abs(want).max()), name

    def test_cache_holds_no_pre_activation(self):
        # a 513 x 9 float32 crop: the cache's arrays hold the [patch,
        # frequency, 1] features, the activation and the proposal, that is
        # context^2 + 2 + hidden_width + 1 values a bin, plus the query
        model, log_mag, query, _ = training_crop(np.float32)
        _, cache = forward(model, log_mag, query)
        buffers = {}
        for value in vars(cache).values():
            if isinstance(value, np.ndarray):
                base = value if value.base is None else value.base
                buffers[id(base)] = base.nbytes
        bins = log_mag.size
        per_bin = model.context ** 2 + 2 + model.hidden_width + 1
        assert sum(buffers.values()) <= (per_bin * bins
                                         + model.query_dim) * 4


# both signs of every scale: underflow, the float32 and float64 exp
# limits (about 88.7 and 709.8), overflow, the infinities and NaN. 88.0
# (float32) and 709.0 (float64) lie above L = ln(dtype max) - 1, where
# softplus returns x, but below the limit, where exp does not overflow
SOFTPLUS_EXTREMES = [-np.inf, -1e4, -200.0, -90.0, -20.0, 0.0, 20.0, 88.0,
                     90.0, 200.0, 709.0, 1e4, np.inf, np.nan]


def four_pass_softplus(x):
    """plain_forward's max(log1p(exp(min(x, L))), x)."""
    cap = x.dtype.type(np.log(np.finfo(x.dtype).max) - 1.0)
    return np.maximum(np.log1p(np.exp(np.minimum(x, cap))), x)


class TestSoftplusExtremes:
    # a RuntimeWarning, such as an overflow in exp, fails these tests

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stable_at_any_magnitude(self, dtype):
        x = np.array(SOFTPLUS_EXTREMES, dtype=dtype)
        arg = x.copy()
        got = _softplus(arg, out=np.empty_like(x))
        assert got.dtype == dtype
        assert np.array_equal(arg, x, equal_nan=True)
        assert got[0] == 0.0 and np.isnan(got[-1])
        ordered = got[:-1]
        assert np.all(ordered >= 0.0) and np.all(np.diff(ordered) >= 0.0)
        above = x > np.log(np.finfo(dtype).max) - 1.0
        assert above.sum() >= 2
        assert np.array_equal(got[above], x[above])

    @pytest.mark.parametrize("dtype, lo, hi", [(np.float32, -120.0, 12.0),
                                               (np.float64, -800.0, 30.0)])
    def test_dense_grid_matches_four_passes(self, dtype, lo, hi):
        # plain_forward's max(log1p(exp(min(x, L))), x), bit for bit, from
        # exp's underflow to where softplus(x) - x is a few ulps
        x = np.linspace(lo, hi, 2_000_001).astype(dtype)
        got = _softplus(x, out=np.empty_like(x))
        assert np.array_equal(got, four_pass_softplus(x))

    @pytest.mark.parametrize("dtype, lo, hi", [(np.float32, -120.0, 12.0),
                                               (np.float64, -800.0, 30.0),
                                               (np.float32, None, None),
                                               (np.float64, None, None)])
    def test_in_place_matches_four_passes(self, dtype, lo, hi):
        # out is x, as forward calls it: the same dense grids, and the
        # extremes (lo None), where x must be kept for the bins above L
        # before the exp overwrites it
        if lo is None:
            x = np.array(SOFTPLUS_EXTREMES, dtype=dtype)
        else:
            x = np.linspace(lo, hi, 2_000_001).astype(dtype)
        arg = x.copy()
        assert _softplus(arg, out=arg) is arg
        assert np.array_equal(arg, four_pass_softplus(x), equal_nan=True)

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_grid_gives_finite_proposals(self, dtype, keep_cache):
        model, log_mag, query, _ = training_crop(dtype)
        proposal, _ = forward(model, log_mag * 1e6, query,
                              keep_cache=keep_cache)
        assert np.all(np.isfinite(proposal))
        assert proposal.min() >= 0.0 and proposal.max() <= 1.0


def params_equal(a, b):
    return all(np.array_equal(getattr(a, n), getattr(b, n))
               for n in ("w1", "b1", "w2", "b2"))


class TestSnapshot:
    def test_snapshot_matches_at_capture(self):
        model = small_model(seed=11)
        snap = copy.deepcopy(model)
        log_mag, query = rand_input(11)
        a, _ = forward(model, log_mag, query)
        b, _ = forward(snap, log_mag, query)
        assert np.array_equal(a, b)

    def test_update_diverges_from_snapshot(self):
        model = small_model(seed=12)
        snap = copy.deepcopy(model)
        log_mag, query = rand_input(12)
        _, cache = forward(model, log_mag, query)
        grads = backward(model, cache, np.ones(log_mag.shape))
        apply_adamw_step(model, grads, AdamWState(), lr=1e-2)
        a, _ = forward(model, log_mag, query)
        b, _ = forward(snap, log_mag, query)
        assert np.abs(a - b).max() > 0.0
        assert not params_equal(model, snap)

    def test_snapshot_isolated_from_mutation(self):
        model = small_model(seed=13)
        snap = copy.deepcopy(model)
        before = snap.w1.copy()
        model.w1[:] += 1.0
        assert np.array_equal(snap.w1, before)


class TestAdamW:
    def test_zero_grads_zero_decay_leave_params(self):
        model = small_model(seed=16)
        before = {n: getattr(model, n).copy() for n in ("w1", "b1", "w2", "b2")}
        zero = ParamGrads(
            w1=np.zeros_like(model.w1), b1=np.zeros_like(model.b1),
            w2=np.zeros_like(model.w2), b2=np.zeros_like(model.b2),
        )
        apply_adamw_step(model, zero, AdamWState(), weight_decay=0.0)
        for name, arr in before.items():
            assert np.array_equal(getattr(model, name), arr)

    def test_global_norm_clipping_scale(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}  # norm 5
        clipped, norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(clipped["a"], np.array([0.6, 0.8]))

    def test_clipping_at_norm_ten(self):
        g = np.zeros(100)
        g[0] = 10.0
        clipped, norm = clip_by_global_norm({"g": g}, 1.0)
        assert norm == pytest.approx(10.0)
        assert clipped["g"][0] == pytest.approx(1.0)

    def test_nonfinite_gradients_abort(self):
        params = {"w": np.ones(3)}
        grads = {"w": np.array([1.0, np.nan, 0.0])}
        state = AdamWState()
        with pytest.raises(NonFiniteGradientError):
            adamw_step(params, grads, state)
        assert np.array_equal(params["w"], np.ones(3))

    def test_decoupled_weight_decay(self):
        params = {"w": np.array([1.0])}
        adamw_step(params, {"w": np.array([0.0])}, AdamWState(),
                   lr=0.1, weight_decay=0.5)
        assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)

    def test_determinism(self):
        results = []
        for _ in range(2):
            model = small_model(seed=17)
            state = AdamWState()
            log_mag, query = rand_input(17)
            for _ in range(3):
                _, cache = forward(model, log_mag, query)
                grads = backward(model, cache, np.ones(log_mag.shape))
                apply_adamw_step(model, grads, state, lr=1e-3)
            results.append(model.w1.copy())
        assert np.array_equal(results[0], results[1])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(seed=18)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert params_equal(model, loaded)
        assert (loaded.context, loaded.hidden_width, loaded.query_dim) == (
            model.context, model.hidden_width, model.query_dim,
        )

    @pytest.mark.parametrize("dtype, sha256", [
        (np.float32,
         "5b4b767bebbf8d1ec1859c7a9f5e4ef81181c7eaf1805b4edb4208857820e1bd"),
        (np.float64,
         "4fb69573090ed49afd109f0c24297fce1ab40c86f3a87a26585380d4a00c8bf9"),
    ])
    def test_format_bytes_are_pinned(self, tmp_path, dtype, sha256):
        """A small model's checkpoint keeps the bytes of the format, whose
        hparams hold ``"k_sources": 1`` and ``"sample_rate": 16000``, and
        load then save gives them back."""
        path = tmp_path / "model.json"
        save_model(path, init_model(np.random.default_rng(0), context=3,
                                    hidden_width=4, query_dim=4, dtype=dtype))
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256
        again = tmp_path / "again.json"
        save_model(again, load_model(path))
        assert again.read_bytes() == data

    def test_container_keeps_every_shape(self, tmp_path):
        from masksep.checkpoint import load_checkpoint, save_checkpoint

        arrays = {"scalar": np.array(0.5), "empty": np.zeros(0, np.float32),
                  "row": np.arange(3, dtype=np.int64),
                  "transposed": np.arange(6.0).reshape(2, 3).T}
        path = tmp_path / "shapes.json"
        save_checkpoint(path, "shapes", {}, arrays)
        _, _, loaded = load_checkpoint(path)
        assert loaded["scalar"].shape == ()
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype, name
            assert loaded[name].shape == arr.shape, name
            assert np.array_equal(loaded[name], arr), name

    def test_kind_mismatch_rejected(self, tmp_path):
        from masksep.checkpoint import save_checkpoint

        path = tmp_path / "other.json"
        save_checkpoint(path, "alignment_heads", {}, {"x": np.zeros(2)})
        with pytest.raises(ValueError, match="separator"):
            load_model(path)

