import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gazeflow.gaze import DatasetSplit, WindowSet
from gazeflow.net import (
    PHASE1_ADAM,
    PHASE2_ADAM,
    AdamConfig,
    AdamState,
    Gradients,
    NetError,
    NetworkParams,
    PhaseConfig,
    TrainConfig,
    TrainingError,
    adam_step,
    backward,
    backward_batch,
    flattened_dim,
    forward,
    forward_batch,
    init_params,
    loss_cross_entropy,
    softmax,
    train,
)


def zero_params(kernel_len=10, input_len=30, pool_factor=5):
    flat = flattened_dim(input_len, kernel_len, pool_factor)
    return NetworkParams(
        conv_w=np.zeros((10, kernel_len, 2)),
        conv_b=np.zeros(10),
        dense_w=np.zeros((3, flat)),
        dense_b=np.zeros(3),
        pool_factor=pool_factor,
        input_len=input_len,
    )


def loop_forward(params, feat):
    """Independent reference forward pass written with explicit loops."""
    F, K, _ = params.conv_w.shape
    L = params.input_len
    positions = L - K + 1
    conv = np.zeros((positions, F))
    for i in range(positions):
        for f in range(F):
            acc = params.conv_b[f]
            for k in range(K):
                for c in range(2):
                    acc += params.conv_w[f, k, c] * feat[i + k, c]
            conv[i, f] = acc
    R = positions // params.pool_factor
    pool = np.zeros((R, F))
    for r in range(R):
        for f in range(F):
            pool[r, f] = max(conv[r * params.pool_factor + j, f] for j in range(params.pool_factor))
    flat = pool.reshape(-1)
    logits = params.dense_w @ flat + params.dense_b
    z = logits - logits.max()
    e = np.exp(z)
    return logits, e / e.sum()


class TestForward:
    def test_zero_params_uniform(self):
        params = zero_params()
        res = forward(params, np.random.default_rng(0).normal(size=(30, 2)))
        assert np.allclose(res.logits, 0.0)
        assert np.allclose(res.probs.probs, 1.0 / 3.0, atol=1e-15)

    def test_shape_chain_defaults(self):
        params = init_params(0)
        cache = forward_batch(params, np.zeros((4, 30, 2)))
        assert cache.cols.shape == (4, 21, 20)
        assert cache.pool_arg.shape == (4, 4, 10)
        assert cache.flat.shape == (4, 40)
        assert cache.logits.shape == (4, 3)
        assert params.flat_dim == 40

    def test_shape_chain_kernel5(self):
        params = init_params(0, kernel_len=5)
        assert params.flat_dim == 10 * (26 // 5)  # 50
        cache = forward_batch(params, np.zeros((1, 30, 2)))
        assert cache.flat.shape == (1, 50)

    def test_delta_filter_routes_input(self):
        # one filter picks channel 0 at tap 0; dense routes pooled max of
        # region 0 straight to class 0
        params = zero_params()
        cw = np.array(params.conv_w)
        cw[0, 0, 0] = 1.0
        dw = np.array(params.dense_w)
        dw[0, 0] = 1.0  # flat index 0 = (region 0, filter 0)
        params = replace(params, conv_w=cw, dense_w=dw)
        feat = np.zeros((30, 2))
        feat[:, 0] = np.arange(30, dtype=float)
        res = forward(params, feat)
        # conv[i, 0] = feat[i, 0] = i; region 0 max over i in 0..4 -> 4
        assert res.logits[0] == pytest.approx(4.0)
        ref_logits, ref_probs = loop_forward(params, feat)
        assert np.allclose(res.logits, ref_logits, atol=1e-12)

    def test_matches_loop_oracle_random(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            params = init_params(trial)
            feat = rng.normal(size=(30, 2))
            res = forward(params, feat)
            ref_logits, ref_probs = loop_forward(params, feat)
            assert np.max(np.abs(res.logits - ref_logits)) < 1e-12
            assert np.max(np.abs(res.probs.probs - ref_probs)) < 1e-12

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(6)
        params = init_params(3)
        feats = np.abs(rng.normal(size=(1000, 30, 2)))
        cache = forward_batch(params, feats)
        assert np.max(np.abs(cache.probs.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_extreme_logits(self):
        big = np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4], [1e4, 1e4, 1e4]])
        p = softmax(big)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NetError):
            forward(init_params(0), np.zeros((29, 2)))


class TestLoss:
    def test_uniform(self):
        assert loss_cross_entropy(np.array([1 / 3, 1 / 3, 1 / 3]), 1) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_confident_correct(self):
        assert loss_cross_entropy(np.array([1.0, 0.0, 0.0]), 0) <= 1e-12

    def test_floor(self):
        val = loss_cross_entropy(np.array([0.0, 1.0, 0.0]), 0)
        assert val == pytest.approx(-np.log(1e-12), abs=1e-9)
        assert val == pytest.approx(27.631021115928547, abs=1e-9)


class TestBackward:
    def test_zero_feature_conv_grads(self):
        params = init_params(1)
        feat = np.zeros((30, 2))
        res = forward(params, feat)
        g = backward(params, feat, 0, res.cache)
        assert np.all(g.conv_w == 0)
        assert np.any(g.conv_b != 0)

    def test_gradcheck_small(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for trial in range(5):
            params = init_params(trial + 10)
            feat = rng.normal(size=(30, 2)) * 2.0
            truth = int(rng.integers(3))
            res = forward(params, feat)
            grads = backward(params, feat, truth, res.cache)
            for name, arr in params.arrays():
                g = getattr(grads, name)
                flat_idx = rng.choice(arr.size, size=min(8, arr.size), replace=False)
                for k in flat_idx:
                    for sign, store in ((+1, "lp"), (-1, "lm")):
                        pert = arr.copy().ravel()
                        pert[k] += sign * h
                        pp = replace(params, **{name: pert.reshape(arr.shape)})
                        val = loss_cross_entropy(forward(pp, feat).probs, truth)
                        if sign > 0:
                            lp = val
                        else:
                            lm = val
                    fd = (lp - lm) / (2 * h)
                    an = g.ravel()[k]
                    assert abs(an - fd) < 1e-4 * max(abs(an), abs(fd), 1e-6)

    def test_logit_shift_invariance(self):
        # adding a constant to every class bias shifts all logits equally,
        # leaving probabilities and hence all weight gradients unchanged
        rng = np.random.default_rng(9)
        params = init_params(21)
        feat = rng.normal(size=(30, 2))
        shifted = replace(params, dense_b=params.dense_b + 3.7)
        g1 = backward(params, feat, 2, forward(params, feat).cache)
        g2 = backward(shifted, feat, 2, forward(shifted, feat).cache)
        for name, _ in params.arrays():
            assert np.max(np.abs(getattr(g1, name) - getattr(g2, name))) < 1e-12

    def test_batch_mean_equals_mean_of_singles(self):
        rng = np.random.default_rng(10)
        params = init_params(2)
        feats = rng.normal(size=(6, 30, 2))
        truths = rng.integers(0, 3, 6)
        gb = backward_batch(params, forward_batch(params, feats), truths, mean=True)
        acc = {name: np.zeros_like(a) for name, a in params.arrays()}
        for i in range(6):
            gi = backward(params, feats[i], int(truths[i]), forward(params, feats[i]).cache)
            for name, a in gi.arrays():
                acc[name] += a / 6
        for name in acc:
            assert np.max(np.abs(getattr(gb, name) - acc[name])) < 1e-12

    def test_pool_gradient_mass_conserved(self):
        # gradient mass entering the pool layer equals what leaves it
        rng = np.random.default_rng(11)
        params = init_params(4)
        feat = rng.normal(size=(30, 2))
        res = forward(params, feat)
        dlogits = res.probs.probs.copy()
        dlogits[1] -= 1.0
        dflat = params.dense_w.T @ dlogits
        g = backward(params, feat, 1, res.cache)
        # conv bias gradient sums the per-position gradient, which is the
        # scattered pool gradient; totals must match
        assert g.conv_b.sum() == pytest.approx(dflat.sum(), abs=1e-12)


class TestAdam:
    def scalar_params(self, theta):
        return NetworkParams(
            conv_w=np.full((10, 10, 2), theta),
            conv_b=np.zeros(10),
            dense_w=np.zeros((3, 40)),
            dense_b=np.zeros(3),
        )

    def scalar_grads(self, g):
        return Gradients(
            conv_w=np.full((10, 10, 2), g),
            conv_b=np.zeros(10),
            dense_w=np.zeros((3, 40)),
            dense_b=np.zeros(3),
        )

    def test_zero_gradient_noop(self):
        params = init_params(0)
        state = AdamState.zeros(params)
        zero = Gradients(**{n: np.zeros_like(a) for n, a in params.arrays()})
        new_params, new_state = adam_step(params, zero, state, PHASE1_ADAM)
        for name, a in params.arrays():
            assert np.array_equal(getattr(new_params, name), a)
        assert new_state.t == 1

    def test_scalar_oracle_phase1(self):
        params = self.scalar_params(1.0)
        state = AdamState.zeros(params)
        new_params, state = adam_step(params, self.scalar_grads(2.0), state, PHASE1_ADAM)
        # hand computation: m=0.2, v=0.04, m_hat=2, v_hat=4,
        # theta' = 1 - 0.001 * 2 / (2 + 1e-8)
        assert new_params.conv_w[0, 0, 0] == pytest.approx(0.999000000005, abs=1e-12)

    def test_scalar_oracle_phase2_beta2_low(self):
        params = self.scalar_params(1.0)
        state = AdamState.zeros(params)
        new_params, state = adam_step(params, self.scalar_grads(2.0), state, PHASE2_ADAM)
        # m=0.3, v=3.6, m_hat=0.3/0.15=2, v_hat=3.6/0.9=4,
        # theta' = 1 - 0.002 * 2 / (2 + 1e-8)
        assert new_params.conv_w[0, 0, 0] == pytest.approx(0.99800000001, abs=1e-12)

    def test_two_steps_tracked_against_hand_loop(self):
        cfg = AdamConfig(alpha=0.01, beta1=0.8, beta2=0.7, epsilon=1e-8)
        params = self.scalar_params(0.5)
        state = AdamState.zeros(params)
        theta, m, v = 0.5, 0.0, 0.0
        for t in range(1, 4):
            g = float(t)  # gradients 1, 2, 3
            params, state = adam_step(params, self.scalar_grads(g), state, cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            theta -= cfg.alpha * (m / (1 - cfg.beta1**t)) / (np.sqrt(v / (1 - cfg.beta2**t)) + cfg.epsilon)
            assert params.conv_w[3, 3, 1] == pytest.approx(theta, abs=1e-15)
            assert state.t == t

    def test_first_step_magnitude_is_alpha(self):
        # exact value is alpha * g / (g + eps): within eps/g of alpha
        for g in (1e-6, 1.0, 1e6):
            params = self.scalar_params(0.0)
            new_params, _ = adam_step(
                params, self.scalar_grads(g), AdamState.zeros(params), PHASE1_ADAM
            )
            step = abs(new_params.conv_w[0, 0, 0])
            assert step == pytest.approx(PHASE1_ADAM.alpha * g / (g + PHASE1_ADAM.epsilon), rel=1e-12)
            assert step == pytest.approx(PHASE1_ADAM.alpha, rel=2 * PHASE1_ADAM.epsilon / g)

    def test_config_validation(self):
        with pytest.raises(NetError):
            AdamConfig(alpha=-1, beta1=0.9, beta2=0.99, epsilon=1e-8)
        with pytest.raises(NetError):
            AdamConfig(alpha=0.1, beta1=1.0, beta2=0.99, epsilon=1e-8)


class TestInitParams:
    def test_deterministic(self):
        a = init_params(123)
        b = init_params(123)
        for name, arr in a.arrays():
            assert np.array_equal(arr, getattr(b, name))

    def test_bounds(self):
        p = init_params(7)
        conv_bound = np.sqrt(6.0 / (10 * 2 + 10))
        dense_bound = np.sqrt(6.0 / (40 + 3))
        assert np.max(np.abs(p.conv_w)) <= conv_bound
        assert np.max(np.abs(p.dense_w)) <= dense_bound
        assert np.all(p.conv_b == 0)
        assert np.all(p.dense_b == 0)

    def test_weight_mean_near_zero(self):
        # ~10^4 uniform draws: mean within 3 sigma of zero
        samples = []
        for seed in range(50):
            p = init_params(seed)
            samples.append(p.conv_w.ravel())
        w = np.concatenate(samples)  # 10000 values
        bound = np.sqrt(6.0 / 30)
        sigma = bound / np.sqrt(3.0)
        assert abs(w.mean()) < 3 * sigma / np.sqrt(w.size)


def toy_separable_split(n=20, seed=0):
    """Windows with energy at distinct frequency bins per class."""
    rng = np.random.default_rng(seed)
    feats = np.zeros((n, 30, 2))
    labels = np.arange(n) % 3
    for i, lab in enumerate(labels):
        bin_ = (2, 7, 13)[lab]
        feats[i, bin_, 0] = 10.0 + rng.uniform(0, 0.5)
        feats[i, 30 - bin_, 0] = feats[i, bin_, 0]
        feats[i] += np.abs(rng.normal(0, 0.05, (30, 2)))
    ws = WindowSet(feats, labels.astype(np.int8), np.zeros(n, dtype=np.int64))
    return DatasetSplit(train=ws, validation=ws, test=ws)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        split = toy_separable_split()
        cfg = TrainConfig(
            phase1=PhaseConfig(0, PHASE1_ADAM), phase2=PhaseConfig(0, PHASE2_ADAM), seed=11
        )
        params, history = train(split, cfg)
        ref = init_params(11)
        for name, arr in ref.arrays():
            assert np.array_equal(arr, getattr(params, name))
        assert history.records == ()
        assert history.best_epoch == -1

    def test_toy_problem_learns(self):
        split = toy_separable_split()
        hot = AdamConfig(alpha=0.02, beta1=0.9, beta2=0.99, epsilon=1e-8)
        cfg = TrainConfig(
            phase1=PhaseConfig(40, hot), phase2=PhaseConfig(0, PHASE2_ADAM), seed=3
        )
        params, history = train(split, cfg)
        losses = [r.train_loss for r in history.records]
        assert all(a > b for a, b in zip(losses[:10], losses[1:10]))  # first 10 epochs
        cache = forward_batch(params, split.train.features)
        assert np.all(cache.probs.argmax(axis=1) == split.train.labels)

    def test_deterministic(self):
        split = toy_separable_split()
        cfg = TrainConfig(
            phase1=PhaseConfig(5, PHASE1_ADAM), phase2=PhaseConfig(5, PHASE2_ADAM), seed=21
        )
        p1, h1 = train(split, cfg)
        p2, h2 = train(split, cfg)
        for name, arr in p1.arrays():
            assert np.array_equal(arr, getattr(p2, name))
        assert h1 == h2

    def test_history_row_count(self):
        split = toy_separable_split()
        cfg = TrainConfig(
            phase1=PhaseConfig(4, PHASE1_ADAM), phase2=PhaseConfig(3, PHASE2_ADAM), seed=2
        )
        _, history = train(split, cfg)
        assert len(history.records) == 7
        assert [r.phase for r in history.records] == [1] * 4 + [2] * 3

    def test_empty_split_rejected(self):
        ws = toy_separable_split().train
        empty = WindowSet(
            np.empty((0, 30, 2)), np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64)
        )
        with pytest.raises(TrainingError):
            train(DatasetSplit(train=ws, validation=empty, test=empty))


# ---------------------------------------------------------------------------
# the earlier array-by-array implementation, kept as the oracle that the
# one-vector, per-batch-im2col code must match bit for bit


def oracle_forward(params, feats):
    """im2col by sliding_window_view, pooling by argmax + take_along_axis."""
    B = feats.shape[0]
    F, K = params.n_filters, params.kernel_len
    R, P = params.n_regions, params.pool_factor
    view = sliding_window_view(feats, K, axis=1)  # (B, positions, C, K)
    cols = np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(B, view.shape[1], K * 2)
    conv = cols @ params.conv_w.reshape(F, K * 2).T + params.conv_b
    regions = conv[:, : R * P].reshape(B, R, P, F)
    pool_arg = regions.argmax(axis=2)
    pool = np.take_along_axis(regions, pool_arg[:, :, None, :], axis=2)[:, :, 0, :]
    flat = pool.reshape(B, R * F)
    logits = flat @ params.dense_w.T + params.dense_b
    return cols, pool_arg, flat, logits, softmax(logits)


def oracle_backward(params, cols, pool_arg, flat, probs, truths):
    """Batch-mean gradient with the pool scatter done by put_along_axis."""
    B = probs.shape[0]
    F, K = params.n_filters, params.kernel_len
    R, P = params.n_regions, params.pool_factor
    dlogits = probs.copy()
    dlogits[np.arange(B), truths] -= 1.0
    dlogits /= B
    d_dense_w = dlogits.T @ flat
    d_dense_b = dlogits.sum(axis=0)
    dpool = (dlogits @ params.dense_w).reshape(B, R, F)
    dconv = np.zeros((B, params.input_len - K + 1, F))
    offsets = (np.arange(R) * P)[None, :, None]
    np.put_along_axis(dconv, pool_arg + offsets, dpool, axis=1)
    d_conv_w = (dconv.reshape(-1, F).T @ cols.reshape(-1, K * 2)).reshape(F, K, 2)
    d_conv_b = dconv.sum(axis=(0, 1))
    return {"conv_w": d_conv_w, "conv_b": d_conv_b, "dense_w": d_dense_w, "dense_b": d_dense_b}


def oracle_adam(theta, m, v, g, t, config):
    """Per-array Adam update, in the same expression order, as dicts by name."""
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    out_theta, out_m, out_v = {}, {}, {}
    for name in theta:
        m_new = b1 * m[name] + (1.0 - b1) * g[name]
        v_new = b2 * v[name] + (1.0 - b2) * g[name] * g[name]
        m_hat = m_new / bc1
        v_hat = v_new / bc2
        out_theta[name] = theta[name] - config.alpha * m_hat / (np.sqrt(v_hat) + config.epsilon)
        out_m[name], out_v[name] = m_new, v_new
    return out_theta, out_m, out_v


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def tied_params(seed, kernel_len, pool_factor):
    """Weights on a coarse grid, so that conv outputs repeat exactly."""
    p = init_params(seed, kernel_len=kernel_len, pool_factor=pool_factor)
    rng = np.random.default_rng(seed)
    return replace(
        p,
        conv_w=np.round(p.conv_w * 4) / 4,
        conv_b=rng.integers(-2, 3, p.conv_b.shape) / 4,
        dense_w=np.round(p.dense_w * 8) / 8,
        dense_b=rng.integers(-2, 3, 3) / 8,
    )


def tied_features(rng, B):
    """Small-integer features, piecewise constant in time, with all-zero windows."""
    steps = rng.integers(0, 3, size=(B, 30, 2)).astype(np.float64)
    hold = rng.random((B, 30, 1)) < 0.6
    for i in range(1, 30):
        steps[:, i] = np.where(hold[:, i], steps[:, i - 1], steps[:, i])
    steps[:: max(B // 4, 1)] = 0.0
    return steps


GEOMETRIES = [
    (B, K, P)
    for B, K, P in itertools.product((1, 64, 1000), (1, 10, 30), (1, 5, 7))
    if flattened_dim(30, K, P) > 0
]


class TestAgainstArrayOracle:
    @pytest.mark.parametrize("B,kernel_len,pool_factor", GEOMETRIES)
    def test_forward_backward_bit_identical(self, B, kernel_len, pool_factor):
        rng = np.random.default_rng([B, kernel_len, pool_factor])
        params = tied_params(B + kernel_len + pool_factor, kernel_len, pool_factor)
        feats = tied_features(rng, B)
        truths = rng.integers(0, 3, B)

        cache = forward_batch(params, feats)
        cols, pool_arg, flat, logits, probs = oracle_forward(params, feats)
        assert np.array_equal(cache.cols, cols)
        assert np.array_equal(cache.pool_arg, pool_arg)
        for got, want in ((cache.flat, flat), (cache.logits, logits), (cache.probs, probs)):
            assert np.array_equal(bits(got), bits(want))

        grads = backward_batch(params, cache, truths, mean=True)
        want = oracle_backward(params, cols, pool_arg, flat, probs, truths)
        for name, arr in grads.arrays():
            assert np.array_equal(bits(arr), bits(want[name])), name

        if pool_factor > 1:
            # the rounded inputs must exercise tied maxima
            conv = cols @ params.conv_w.reshape(params.n_filters, -1).T + params.conv_b
            R = params.n_regions
            regions = conv[:, : R * pool_factor].reshape(B, R, pool_factor, -1)
            at_max = (regions == regions.max(axis=2, keepdims=True)).sum(axis=2)
            assert (at_max > 1).any()

    @pytest.mark.parametrize("config", [PHASE1_ADAM, PHASE2_ADAM], ids=["phase1", "phase2"])
    def test_twenty_adam_steps_bit_identical(self, config):
        rng = np.random.default_rng(77)
        params = init_params(5)
        state = AdamState.zeros(params)
        theta = {name: arr.copy() for name, arr in params.arrays()}
        m = {name: np.zeros_like(arr) for name, arr in params.arrays()}
        v = {name: np.zeros_like(arr) for name, arr in params.arrays()}
        for t in range(1, 21):
            g = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=arr.shape) for name, arr in theta.items()}
            params, state = adam_step(params, Gradients(**g), state, config)
            theta, m, v = oracle_adam(theta, m, v, g, t, config)
            assert state.t == t
            for name in theta:
                assert np.array_equal(bits(getattr(params, name)), bits(theta[name]))
                assert np.array_equal(bits(getattr(state.m, name)), bits(m[name]))
                assert np.array_equal(bits(getattr(state.v, name)), bits(v[name]))

    def test_weight_views_are_read_only(self):
        params = init_params(3)
        grads = backward_batch(params, forward_batch(params, np.ones((2, 30, 2))), np.array([0, 1]))
        for holder in (params, grads, AdamState.zeros(params).m):
            assert not holder.vector.flags.writeable
            for name, arr in holder.arrays():
                assert np.shares_memory(arr, holder.vector), name
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1.0
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
        assert params.vector.shape == (333,)
        assert np.array_equal(params.vector[-3:], params.dense_b)

    def test_constructor_copies_its_inputs(self):
        conv_w = np.zeros((10, 10, 2))
        params = NetworkParams(conv_w=conv_w, conv_b=np.zeros(10), dense_w=np.zeros((3, 40)), dense_b=np.zeros(3))
        conv_w[0, 0, 0] = 5.0
        assert params.conv_w[0, 0, 0] == 0.0

    def test_from_vector_round_trip(self):
        params = init_params(4, kernel_len=5, pool_factor=7)
        back = NetworkParams.from_vector(params.vector, kernel_len=5, pool_factor=7, input_len=30)
        assert np.array_equal(back.vector, params.vector)
        assert not np.shares_memory(back.vector, params.vector)
        with pytest.raises(NetError):
            NetworkParams.from_vector(params.vector[:-1], kernel_len=5, pool_factor=7, input_len=30)


def seeded_split(n_train, n_val, seed=0):
    rng = np.random.default_rng(seed)

    def part(n):
        return WindowSet(
            np.abs(rng.normal(size=(n, 30, 2))),
            rng.integers(0, 3, n).astype(np.int8),
            np.zeros(n, dtype=np.int64),
        )

    return DatasetSplit(train=part(n_train), validation=part(n_val), test=part(1))


class TestTrainResources:
    def test_peak_memory_scales_with_batch_not_training_set(self):
        # im2col of every training window at once would need about 7x the
        # training features; per-batch columns stay well under 3x
        split = seeded_split(20_000, 2_000)
        cfg = TrainConfig(phase1=PhaseConfig(1, PHASE1_ADAM), phase2=PhaseConfig(0, PHASE2_ADAM), seed=4)
        tracemalloc.start()
        try:
            train(split, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * split.train.features.nbytes

    def test_divergence_raises_training_error(self):
        split = seeded_split(256, 64)
        hot = AdamConfig(alpha=1e300, beta1=0.9, beta2=0.99, epsilon=1e-8)
        cfg = TrainConfig(phase1=PhaseConfig(2, hot), phase2=PhaseConfig(1, PHASE2_ADAM), seed=1)
        with pytest.raises(TrainingError, match=r"phase 1, epoch 0, batch \d+"):
            train(split, cfg)

    def test_non_finite_update_names_the_step(self, monkeypatch):
        import gazeflow.net as net

        real_adam_step = net.adam_step
        calls = []

        def poisoned(params, grads, state, config):
            calls.append(1)
            if len(calls) == 7:
                grads = Gradients._wrap(np.full_like(grads.vector, np.nan), params.shapes)
            return real_adam_step(params, grads, state, config)

        monkeypatch.setattr(net, "adam_step", poisoned)
        split = seeded_split(256, 64)
        cfg = TrainConfig(phase1=PhaseConfig(1, PHASE1_ADAM), phase2=PhaseConfig(1, PHASE2_ADAM), seed=1)
        with pytest.raises(TrainingError, match="non-finite weights after phase 2, epoch 0, batch 2"):
            train(split, cfg)

    def test_train_calls_the_module_level_steps(self, monkeypatch):
        import gazeflow.net as net

        seen = {}
        for name in ("forward_batch", "backward_batch", "adam_step", "frame_accuracy"):
            fn = getattr(net, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                seen[_name] = seen.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(net, name, counted)
        split = seeded_split(130, 10)
        cfg = TrainConfig(phase1=PhaseConfig(1, PHASE1_ADAM), phase2=PhaseConfig(1, PHASE2_ADAM), seed=1)
        train(split, cfg)
        assert seen == {"forward_batch": 8, "backward_batch": 6, "adam_step": 6, "frame_accuracy": 2}
