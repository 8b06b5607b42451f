"""The stacked-gate, batch-last LSTM loop against the per-step reference it
replaced: the same predictions and gradients up to the order of float sums;
and training's one step cache per fit, against fresh caches bit for bit and
against its own size in memory."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import lstm

RTOL = 1e-10
ATOL = 1e-13


# --- reference: one (N, 4u) gate block per step, a list of per-step tuples ---


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_forward(params, X, drop_mask=None, keep_cache=False):
    N, T = X.shape
    u = params.units
    h = np.zeros((N, u))
    c = np.zeros((N, u))
    cache = {"steps": [], "X": X, "drop_mask": drop_mask} if keep_cache else None
    Wt, Ut = params.W.T, params.U.T
    for t in range(T):
        x_t = X[:, t:t + 1]
        z = x_t @ Wt + h @ Ut + params.b
        i = _sigmoid(z[:, :u])
        f = _sigmoid(z[:, u:2 * u])
        g = np.tanh(z[:, 2 * u:3 * u])
        o = _sigmoid(z[:, 3 * u:])
        c_prev = c
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h_prev = h
        h = o * tanh_c
        if keep_cache:
            cache["steps"].append((x_t, h_prev, c_prev, i, f, g, o, c, tanh_c))
    h_eff = h if drop_mask is None else h * drop_mask
    if keep_cache:
        cache["h_eff"] = h_eff
    return h_eff @ params.dense_w + params.dense_b, cache


def ref_backward(params, cache, pred, target):
    N, T = cache["X"].shape
    u = params.units
    drop_mask = cache["drop_mask"]
    grads = lstm.LstmParams(u, params.input_dim, np.zeros_like(params.W),
                            np.zeros_like(params.U), np.zeros_like(params.b),
                            np.zeros_like(params.dense_w), 0.0)
    dy = 2.0 * (pred - target) / N
    grads.dense_w = cache["h_eff"].T @ dy
    grads.dense_b = float(dy.sum())
    dh = np.outer(dy, params.dense_w)
    if drop_mask is not None:
        dh = dh * drop_mask
    dc_next = np.zeros((N, u))
    for t in range(T - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, c, tanh_c = cache["steps"][t]
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f),
                             dg * (1.0 - g ** 2), do * o * (1.0 - o)], axis=1)
        grads.W += dz.T @ x_t
        grads.U += dz.T @ h_prev
        grads.b += dz.sum(axis=0)
        dh = dz @ params.U
    return grads


def ref_train(X, y, units, *, num_chunks, batch_size, epochs, learning_rate,
              dropout, seed, forward=ref_forward, backward=ref_backward):
    """train_chunked's schedule (chunks, batches, masks, SGD) on the reference,
    or on another forward and backward pair, with a fresh cache every batch."""
    rng = np.random.default_rng(seed)
    params = lstm.LstmParams.init(units, 1, rng)
    chunk_ids = list(range(num_chunks))
    chunks = np.array_split(np.arange(len(X)), num_chunks)
    keep = 1.0 - dropout
    losses = []
    for _epoch in range(epochs):
        for cid in chunk_ids:
            idx = chunks[cid]
            loss = None
            for lo in range(0, len(idx), batch_size):
                batch = idx[lo:lo + batch_size]
                mask = ((rng.random((len(batch), units)) < keep) / keep
                        if dropout > 0 else None)
                pred, cache = forward(params, X[batch], mask, keep_cache=True)
                loss = lstm.mse_loss(pred, y[batch])
                grads = backward(params, cache, pred, y[batch])
                for name in ("W", "U", "b", "dense_w"):
                    getattr(params, name).__isub__(learning_rate * getattr(grads, name))
                params.dense_b -= learning_rate * grads.dense_b
            if loss is not None:
                losses.append(loss)
        rng.shuffle(chunk_ids)
    return params, losses


def assert_params_close(got, want):
    for name in ("W", "U", "b", "dense_w"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL,
                                   atol=ATOL, err_msg=name)
    assert got.dense_b == pytest.approx(want.dense_b, rel=RTOL, abs=ATOL)


def case(n, t, units, seed, dropout):
    rng = np.random.default_rng(seed)
    params = lstm.LstmParams.init(units, 1, rng)
    params.b += rng.normal(0, 0.5, params.b.shape)
    X = rng.normal(0, 1.5, (n, t))
    y = rng.normal(0, 1, n)
    mask = (rng.random((n, units)) < 0.7) / 0.7 if dropout else None
    return params, X, y, mask


@settings(max_examples=examples(40), deadline=None)
@given(n=st.integers(1, 24), t=st.integers(1, 30), units=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1), dropout=st.booleans())
def test_forward_and_backward_match_per_step_reference(n, t, units, seed, dropout):
    params, X, y, mask = case(n, t, units, seed, dropout)
    want_pred, want_cache = ref_forward(params, X, mask, keep_cache=True)
    pred, cache = lstm.forward(params, X, mask, keep_cache=True)
    np.testing.assert_allclose(pred, want_pred, rtol=RTOL, atol=ATOL)
    # Inference runs on the two-slot ring; it must agree with the cached pass.
    np.testing.assert_allclose(lstm.forward(params, X, mask)[0], pred, rtol=RTOL, atol=ATOL)
    assert_params_close(lstm.backward(params, cache, pred, y),
                        ref_backward(params, want_cache, want_pred, y))


@settings(max_examples=examples(15), deadline=None)
@given(n=st.integers(2, 40), batch_size=st.integers(1, 9), num_chunks=st.integers(2, 4),
       units=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       dropout=st.sampled_from([0.0, 0.25]))
def test_train_chunked_matches_reference_training(n, batch_size, num_chunks, units,
                                                  seed, dropout):
    num_chunks = min(num_chunks, n)
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 5))
    y = 0.5 * X[:, -1] + rng.normal(0, 0.1, n)
    kwargs = dict(num_chunks=num_chunks, batch_size=batch_size, epochs=2,
                  learning_rate=0.05, dropout=dropout, seed=seed)
    params, chunk_losses = lstm.train_chunked(X, y, units, **kwargs)
    want, losses = ref_train(X, y, units, **kwargs)
    assert_params_close(params, want)
    np.testing.assert_allclose(chunk_losses, losses, rtol=RTOL, atol=ATOL)


def test_short_last_batch_and_several_chunks_match_reference():
    # 23 windows in 3 chunks of 8, 8 and 7, batches of 3: every chunk ends in
    # a short batch, and full and short batches all run in one cache.
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (23, 6))
    y = X[:, -1] * 0.3
    kwargs = dict(num_chunks=3, batch_size=3, epochs=3, learning_rate=0.05,
                  dropout=0.2, seed=8)
    params, chunk_losses = lstm.train_chunked(X, y, 4, **kwargs)
    want, losses = ref_train(X, y, 4, **kwargs)
    assert_params_close(params, want)
    np.testing.assert_allclose(chunk_losses, losses, rtol=RTOL, atol=ATOL)


def test_reused_cache_carries_no_state_between_batches():
    rng = np.random.default_rng(4)
    params = lstm.LstmParams.init(3, 1, rng)
    X_a, X_b, X_c = (rng.normal(0, 1, (n, 7)) for n in (5, 2, 5))
    y_b, y_c = rng.normal(0, 1, 2), rng.normal(0, 1, 5)
    mask = (rng.random((5, 3)) < 0.8) / 0.8
    _, shared = lstm.forward(params, X_a, mask, keep_cache=True)
    # A full batch, a short one and a full one again, each in the shared
    # cache after it is filled with NaN: whatever the buffers hold is overwritten.
    for X, y in ((X_a, y_c), (X_b, y_b), (X_c, y_c)):
        for name in ("inputs", "gates", "c", "tanh_c"):
            shared[name].fill(np.nan)
        pred, cache = lstm.forward(params, X, keep_cache=shared)
        assert np.shares_memory(cache["gates"], shared["gates"])
        fresh_pred, fresh = lstm.forward(params, X, keep_cache=True)
        assert np.array_equal(pred, fresh_pred)
        got = lstm.backward(params, cache, pred, y)
        want = lstm.backward(params, fresh, fresh_pred, y)
        for name in ("W", "U", "b", "dense_w"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.dense_b == want.dense_b


def test_cache_of_another_shape_is_refused():
    # A cache made for 4 windows of 6 steps serves 3 windows, not 5 or 7 steps.
    params = lstm.LstmParams.init(2, 1, np.random.default_rng(0))
    _, cache = lstm.forward(params, np.zeros((4, 6)), keep_cache=True)
    _, short = lstm.forward(params, np.ones((3, 6)), keep_cache=cache)
    for name in ("inputs", "gates", "c", "tanh_c"):
        assert short[name].shape[2] == 3 and short[name].flags.c_contiguous, name
    for X in (np.zeros((5, 6)), np.zeros((4, 7))):
        with pytest.raises(ValueError, match="6 steps of 4 windows cannot serve"):
            lstm.forward(params, X, keep_cache=cache)


def test_one_cache_per_fit_is_bit_identical_to_fresh_caches():
    # 53 windows in 3 chunks of 18, 18 and 17, batches of 5: every chunk ends
    # in a short batch (3 or 2 windows) after full ones, over two epochs.
    rng = np.random.default_rng(12)
    X = rng.normal(0, 1, (53, 9))
    y = 0.4 * X[:, -1] + rng.normal(0, 0.1, 53)
    kwargs = dict(num_chunks=3, batch_size=5, epochs=2, learning_rate=0.05,
                  dropout=0.3, seed=12)
    params, chunk_losses = lstm.train_chunked(X, y, 4, **kwargs)
    want, losses = ref_train(X, y, 4, forward=lstm.forward, backward=lstm.backward,
                             **kwargs)
    for name in ("W", "U", "b", "dense_w"):
        assert np.array_equal(getattr(params, name), getattr(want, name)), name
    assert params.dense_b == want.dense_b
    assert np.array_equal(chunk_losses, losses)


def _cache_bytes(units, T, N):
    """8 N [(T + 1)(u + 2) + 4uT + (T + 1)u + uT]: one step cache of N windows."""
    return 8 * N * ((T + 1) * (units + 2) + 4 * units * T + (T + 1) * units + units * T)


@pytest.mark.parametrize("n, num_chunks", [(47, 1), (63, 3)])
def test_training_peaks_near_one_step_cache(n, num_chunks):
    # Batches of 16: 47 windows end in a short batch of 15, and 63 windows in
    # 3 chunks of 21 end each chunk in a short batch of 5. A short batch with
    # a cache of its own beside the full one would peak at 2.04x and 1.41x.
    units, T, batch_size = 4, 200, 16
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (n, T))
    y = rng.normal(0, 1, n)
    assert _cache_bytes(units, T, batch_size) == sum(
        a.nbytes for a in lstm._new_cache(units, T, batch_size).values())
    tracemalloc.start()
    try:
        lstm.train_chunked(X, y, units, num_chunks=num_chunks, batch_size=batch_size,
                           seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * _cache_bytes(units, T, batch_size)
