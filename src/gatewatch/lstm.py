"""Single-layer LSTM regressor implemented directly on numpy.

One feature in, one value out: an LSTM cell of `units` dimensions unrolled
over the window, inverted dropout on the final hidden vector, and a linear
head. Training is plain minibatch SGD on MSE over contiguous chunks of the
window set, with chunk order reshuffled between epochs. Everything is seeded
and single-threaded so runs are bit-reproducible.

The time loop keeps the batch on the last axis, state (u, N), and stacks
every gate's weights into one matrix M = [U | W | b] of shape (4u, u + 2), so
a step is one matmul M @ [h; x_t; 1] (the fused-gate layout of Appleyard et
al., arXiv:1604.01946). Inside the loop M's rows run i, f, o, g, which puts
the three sigmoid gates in one contiguous block; the stored W, U and b, and
so `model.json`, keep the GATES order.

Training holds one step cache per fit, made for its largest batch: a cache
made for at least n windows of T steps serves every batch of n windows, full
or short, as C-contiguous views over the start of its buffers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLoss
from .series import check_count

# Gate order inside stacked weight matrices: input, forget, candidate, output.
GATES = ("i", "f", "g", "o")


def lstm_param_count(units: int, input_dim: int = 1) -> int:
    """Trainable parameters of the LSTM layer alone (no dense head)."""
    check_count("units", units)
    check_count("input_dim", input_dim)
    return 4 * units * (units + input_dim + 1)


def total_param_count(units: int, input_dim: int = 1) -> int:
    """LSTM layer plus the one-unit linear head."""
    return lstm_param_count(units, input_dim) + units + 1


@dataclass
class LstmParams:
    """All trainable arrays. W: (4u, d) input weights, U: (4u, u) recurrent
    weights, b: (4u,) biases, gates stacked in GATES order; dense head (u,) + scalar."""

    units: int
    input_dim: int
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    dense_w: np.ndarray
    dense_b: float

    @classmethod
    def init(cls, units: int, input_dim: int, rng: np.random.Generator) -> "LstmParams":
        def glorot(shape, fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape)

        # One Glorot draw per gate matrix, in a fixed order.
        W = np.vstack([glorot((units, input_dim), input_dim, units) for _ in GATES])
        U = np.vstack([glorot((units, units), units, units) for _ in GATES])
        b = np.zeros(4 * units)
        b[units:2 * units] = 1.0  # forget-gate bias 1 stabilizes early training
        dense_w = glorot((units,), units, 1)
        return cls(units=units, input_dim=input_dim, W=W, U=U, b=b,
                   dense_w=dense_w, dense_b=0.0)

    def count(self) -> int:
        return self.W.size + self.U.size + self.b.size + self.dense_w.size + 1

    def to_json_obj(self) -> dict:
        return {
            "units": self.units,
            "input_dim": self.input_dim,
            "W": self.W.tolist(),
            "U": self.U.tolist(),
            "b": self.b.tolist(),
            "dense_w": self.dense_w.tolist(),
            "dense_b": self.dense_b,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LstmParams":
        """The inverse of `to_json_obj`. A field that does not fit `units`
        raises ValueError naming it; input_dim must be 1, since every window
        is one feature per step."""
        units = obj["units"]
        check_count("units", units)
        if obj["input_dim"] != 1:
            raise ValueError(f"lstm input_dim must be 1, not {obj['input_dim']!r}")
        arrays = {}
        for name, shape in (("W", (4 * units, 1)), ("U", (4 * units, units)),
                            ("b", (4 * units,)), ("dense_w", (units,))):
            try:
                arr = np.array(obj[name], dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"lstm {name} is not a numeric array") from None
            if arr.shape != shape:
                raise ValueError(f"lstm {name} has shape {arr.shape}, "
                                 f"want {shape} for {units} units")
            arrays[name] = arr
        return cls(units=units, input_dim=1, dense_b=float(obj["dense_b"]), **arrays)


def _loop_rows(units: int) -> np.ndarray:
    """Row order of the stacked gate matrix in the time loop: i, f, o, g, so
    the three sigmoid gates are one block of 3u rows. It swaps the last two
    GATES blocks, so the same index maps loop order back to GATES order."""
    block = np.arange(units)
    return np.concatenate([block + k * units for k in (0, 1, 3, 2)])


def _stacked(params: LstmParams) -> np.ndarray:
    """M = [U | W | b], (4u, u + 2), rows in loop order: one step's gate
    pre-activations are M @ [h; x_t; 1]."""
    return np.hstack([params.U, params.W, params.b[:, None]])[_loop_rows(params.units)]


def _new_cache(units: int, T: int, N: int) -> dict:
    """Buffers of one forward pass over T steps of N windows, batch on the last
    axis: inputs[t] = [h_t; x_t; 1], the loop-order gate activations, the cell
    state c_t and tanh(c_{t+1})."""
    return {"inputs": np.empty((T + 1, units + 2, N)),
            "gates": np.empty((T, 4 * units, N)),
            "c": np.empty((T + 1, units, N)),
            "tanh_c": np.empty((T, units, N))}


def _cache_views(cache: dict, T: int, N: int) -> dict:
    """The step arrays of N windows of T steps in a cache made for at least N
    windows of T steps: each a C-contiguous (steps, rows, N) view over the
    first elements of its buffer, so every call sees the layout, and so the
    bits, of a fresh cache of exactly N windows."""
    steps, _, windows = cache["gates"].shape
    if steps != T or windows < N:
        raise ValueError(f"a cache of {steps} steps of {windows} windows cannot "
                         f"serve {T} steps of {N} windows")
    views = {}
    for name in ("inputs", "gates", "c", "tanh_c"):
        buf = cache[name]
        shape = (buf.shape[0], buf.shape[1], N)
        views[name] = buf.reshape(-1)[:shape[0] * shape[1] * N].reshape(shape)
    return views


def forward(params: LstmParams, X: np.ndarray, drop_mask: np.ndarray | None = None,
            keep_cache: bool | dict = False):
    """Run the network over a batch of windows X (N, T).

    drop_mask, when given, is the (N, units) inverted-dropout multiplier for
    the final hidden vector (train time only). keep_cache=True keeps every
    step for `backward` in a fresh cache of exactly N windows. A cache made
    for at least N windows of T steps, such as one an earlier call returned,
    is refilled in place instead, and the cache returned holds views of its
    buffers. Without a cache the state runs in two-slot rings. Returns
    (predictions (N,), cache).
    """
    N, T = X.shape
    u = params.units
    if isinstance(keep_cache, dict):
        cache = _cache_views(keep_cache, T, N)
    else:
        cache = _new_cache(u, T if keep_cache else 1, N)
    inputs, gates, cells, tanh_cs = (cache["inputs"], cache["gates"], cache["c"],
                                     cache["tanh_c"])
    slots = len(inputs)  # T + 1 with a cache, else 2: slot t % slots
    inputs[0, :u] = 0.0
    inputs[:, u + 1] = 1.0
    cells[0] = 0.0
    M = _stacked(params)
    # Negated sigmoid rows: exp then reads -z straight from the matmul.
    M[:3 * u] *= -1.0
    XT = X.T
    ig = np.empty((u, N))
    for t in range(T):
        cur, nxt, k = t % slots, (t + 1) % slots, t % len(gates)
        inp, a, tanh_c = inputs[cur], gates[k], tanh_cs[k]
        inp[u] = XT[t]
        np.matmul(M, inp, out=a)
        sig = a[:3 * u]
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        g = a[3 * u:]
        np.tanh(g, out=g)
        c = cells[nxt]
        np.multiply(a[u:2 * u], cells[cur], out=c)
        np.multiply(a[:u], g, out=ig)
        c += ig
        np.tanh(c, out=tanh_c)
        np.multiply(a[2 * u:3 * u], tanh_c, out=inputs[nxt, :u])
    h_eff = inputs[T % slots, :u]
    if drop_mask is not None:
        h_eff = h_eff * drop_mask.T
    y = params.dense_w @ h_eff + params.dense_b
    if not keep_cache:
        return y, None
    cache.update(X=X, drop_mask=drop_mask, h_eff=h_eff)
    return y, cache


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def backward(params: LstmParams, cache: dict, pred: np.ndarray,
             target: np.ndarray) -> LstmParams:
    """Gradients of the batch-mean MSE w.r.t. every parameter (BPTT).

    Each step's loop-order pre-activation gradient dz (4u, N) gives the
    gradient of M = [U | W | b] as dz @ [h; x_t; 1].T and the hidden-state
    gradient as M[:, :u].T @ dz; the M gradient is split back into U, W and b
    in GATES order at the end.
    """
    N, T = cache["X"].shape
    u = params.units
    drop_mask = cache["drop_mask"]
    inputs, gates, cells, tanh_cs = (cache["inputs"], cache["gates"], cache["c"],
                                     cache["tanh_c"])

    dy = 2.0 * (pred - target) / N  # (N,)
    dense_w = cache["h_eff"] @ dy
    dense_b = float(dy.sum())
    dh = np.outer(params.dense_w, dy)  # (u, N)
    if drop_mask is not None:
        dh *= drop_mask.T

    M_hT = np.ascontiguousarray(_stacked(params)[:, :u].T)  # (u, 4u)
    G = np.zeros((4 * u, u + 2))
    G_t = np.empty_like(G)
    dz = np.empty((4 * u, N))
    dz_i, dz_f, dz_o, dz_g, dz_sig = (dz[:u], dz[u:2 * u], dz[2 * u:3 * u],
                                      dz[3 * u:], dz[:3 * u])
    dc = np.empty((u, N))
    dc_next = np.zeros((u, N))
    tmp = np.empty((3 * u, N))
    sq = tmp[:u]
    for t in range(T - 1, -1, -1):
        a, tanh_c = gates[t], tanh_cs[t]
        i, f, o, g = a[:u], a[u:2 * u], a[2 * u:3 * u], a[3 * u:]
        # dc = dh * o * (1 - tanh(c)^2) + dc_next
        np.multiply(dh, o, out=dc)
        np.multiply(tanh_c, tanh_c, out=sq)
        np.subtract(1.0, sq, out=sq)
        dc *= sq
        dc += dc_next
        # gradients at the activations i, f, o, g, then through them
        np.multiply(dc, g, out=dz_i)
        np.multiply(dc, cells[t], out=dz_f)
        np.multiply(dh, tanh_c, out=dz_o)
        np.multiply(dc, i, out=dz_g)
        np.multiply(dc, f, out=dc_next)
        sig = a[:3 * u]
        dz_sig *= sig
        np.subtract(1.0, sig, out=tmp)
        dz_sig *= tmp
        np.multiply(g, g, out=sq)
        np.subtract(1.0, sq, out=sq)
        dz_g *= sq
        np.matmul(dz, inputs[t].T, out=G_t)
        G += G_t
        np.matmul(M_hT, dz, out=dh)
    G = G[_loop_rows(u)]
    return LstmParams(params.units, params.input_dim, W=G[:, u:u + 1].copy(),
                      U=G[:, :u].copy(), b=G[:, u + 1].copy(), dense_w=dense_w,
                      dense_b=dense_b)


def train_chunked(X: np.ndarray, y: np.ndarray, units: int, *,
                  num_chunks: int = 1, batch_size: int = 128, epochs: int = 1,
                  learning_rate: float = 0.01, dropout: float = 0.2,
                  seed: int = 0) -> tuple[LstmParams, list[float]]:
    """Minibatch SGD over contiguous chunks of the window set from a seeded
    init; returns the parameters and each visited chunk's final loss, in order.

    Each epoch walks the chunks in their current order; chunk order is
    reshuffled (seeded) between epochs. Dropout applies to the final hidden
    vector only, with inverted scaling so inference needs no correction.
    Every batch, full or short, runs in one step cache made for the largest.
    """
    if len(X) == 0:
        raise ValueError("no training windows")
    for name, value in (("num_chunks", num_chunks), ("batch_size", batch_size),
                        ("epochs", epochs)):
        check_count(name, value)
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), not {dropout!r}")
    if not 0.0 <= learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and >= 0, not {learning_rate!r}")
    rng = np.random.default_rng(seed)
    params = LstmParams.init(units, 1, rng)
    chunk_ids = list(range(num_chunks))
    chunks = np.array_split(np.arange(len(X)), num_chunks)
    # array_split puts the longest chunk first, so it holds the largest batch.
    steps = _new_cache(units, X.shape[1], min(batch_size, len(chunks[0])))
    chunk_losses = []
    keep = 1.0 - dropout
    for _epoch in range(epochs):
        for cid in chunk_ids:
            idx = chunks[cid]
            loss = None
            for lo in range(0, len(idx), batch_size):
                batch = idx[lo:lo + batch_size]
                Xb, yb = X[batch], y[batch]
                if dropout > 0:
                    mask = (rng.random((len(batch), units)) < keep) / keep
                else:
                    mask = None
                pred, cache = forward(params, Xb, drop_mask=mask, keep_cache=steps)
                loss = mse_loss(pred, yb)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"loss diverged to {loss}")
                grads = backward(params, cache, pred, yb)
                params.W -= learning_rate * grads.W
                params.U -= learning_rate * grads.U
                params.b -= learning_rate * grads.b
                params.dense_w -= learning_rate * grads.dense_w
                params.dense_b -= learning_rate * grads.dense_b
            if loss is not None:
                chunk_losses.append(loss)
        rng.shuffle(chunk_ids)
    return params, chunk_losses


def predict(params: LstmParams, X: np.ndarray) -> np.ndarray:
    """Inference-time predictions (no dropout)."""
    pred, _ = forward(params, X)
    return pred
