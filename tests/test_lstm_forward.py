"""LSTMLayer.forward_batch pinned bit-for-bit against the unfused
per-gate loop it replaced (kept below as its serial reference)."""

import numpy as np
import pytest

from dup_ocropy_ray.nn.lstm import BiLSTMRecognizer, LSTMLayer


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50)))


def _forward_batch_unfused(layer, xs, cache=False):
    """One sigmoid per gate, each over its own (B, ns) slice."""
    B, T, _ = xs.shape
    ns, ni = layer.ns, layer.ni
    Wall = np.vstack([layer.Wi, layer.Wf, layer.Wc, layer.Wo])
    dt = Wall.dtype
    Wx = Wall[:, : 1 + ni].T
    Wh = Wall[:, 1 + ni :].T
    xs = np.asarray(xs, dtype=dt)
    xin = np.concatenate([np.ones((B, T, 1), dtype=dt), xs], axis=2) @ Wx
    hs = np.zeros((B, T, ns), dtype=dt)
    h = np.zeros((B, ns), dtype=dt)
    c = np.zeros((B, ns), dtype=dt)
    cs, gi, gf, gc, go = (np.zeros((B, T, ns)) for _ in range(5))
    for t in range(T):
        a = xin[:, t] + h @ Wh
        i_t = _sigmoid(a[:, :ns] + layer.pi * c)
        f_t = _sigmoid(a[:, ns : 2 * ns] + layer.pf * c)
        c_in = np.tanh(a[:, 2 * ns : 3 * ns])
        c = i_t * c_in + f_t * c
        o_t = _sigmoid(a[:, 3 * ns :] + layer.po * c)
        h = o_t * np.tanh(c)
        hs[:, t, :] = h
        gi[:, t], gf[:, t], gc[:, t], go[:, t] = i_t, f_t, c_in, o_t
        cs[:, t] = c
    if cache:
        layer._bcache = (xs, hs, cs, gi, gf, gc, go)
    return hs


def _nets():
    # float64 as built for training, float32 as loaded for inference
    net64 = BiLSTMRecognizer(ni=12, ns=9, seed=3)
    net32 = BiLSTMRecognizer(ni=12, ns=9, seed=4)
    for layer in (net32.fwd, net32.bwd):
        for k in layer.params():
            setattr(layer, k, getattr(layer, k).astype(np.float32))
    net32.out.W = net32.out.W.astype(np.float32)
    return net64, net32


@pytest.mark.parametrize("B", [1, 7])
def test_forward_batch_bit_equal_to_unfused_loop(B):
    rng = np.random.default_rng(B)
    for net in _nets():
        layer = net.fwd
        for T in (1, 2, 17):
            # large inputs drive gates into the sigmoid's clip range too
            xs = rng.normal(0, 4, size=(B, T, layer.ni))
            got = layer.forward_batch(xs, cache=True)
            got_cache = layer._bcache
            want = _forward_batch_unfused(layer, xs, cache=True)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            for g, w in zip(got_cache, layer._bcache):
                assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("B", [1, 7])
def test_recognizer_forward_batch_ragged_bit_equal(B, monkeypatch):
    rng = np.random.default_rng(10 + B)
    for net in _nets():
        lengths = rng.integers(1, 30, size=B)
        xs = np.zeros((B, int(lengths.max()), net.ni), dtype=np.float32)
        for b, L in enumerate(lengths):
            xs[b, :L] = rng.random((L, net.ni))
        got = net.forward_batch(xs, lengths)
        with monkeypatch.context() as m:
            m.setattr(LSTMLayer, "forward_batch", _forward_batch_unfused)
            want = net.forward_batch(xs, lengths)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
