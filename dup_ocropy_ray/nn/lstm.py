"""Bidirectional peephole-LSTM + CTC line recognizer, pure numpy.

A from-scratch implementation of the architecture family the reference
uses for line recognition (reference ocrolib/lstm.py: peephole LSTM
recurrence :403-426, bidi = Parallel(LSTM, Reversed(LSTM)) + Softmax
:586-709, CTC decode ``translate_back`` :741-753, codec :936-973, CTC
alignment training :715-838). The math follows the published formulations
(Hochreiter & Schmidhuber 1997; Gers et al. 2000 peepholes; Graves et al.
2006 CTC); no reference code is reused.

Inference is *batched across lines*: all matmuls carry a leading batch
dimension so an actor processing a 64-line Arrow batch does 4 matmuls per
timestep total, not per line. This is the engine's hot stage.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------- codec


class Codec:
    """char <-> int code map; code 0 is reserved for the CTC blank
    (reference ocrolib/lstm.py:936-958: charset sorted-set order)."""

    def __init__(self, charset):
        charset = sorted(set(charset))
        self.code2char = dict(enumerate(charset))
        self.char2code = {c: i for i, c in enumerate(charset)}

    def size(self) -> int:
        return len(self.code2char)

    def encode(self, s: str) -> list[int]:
        dflt = self.char2code["~"]
        return [self.char2code.get(c, dflt) for c in s]

    def decode(self, codes) -> str:
        return "".join(self.code2char.get(int(c), "~") for c in codes)


def ascii_charset() -> list[str]:
    """blank + space + '~' + printable ASCII 33..125 (reference
    ocrolib/lstm.py:960-963 ``ascii_labels``)."""
    return ["", " ", "~"] + [chr(x) for x in range(33, 126)]


# ------------------------------------------------------------- line prep


def prepare_line(line: np.ndarray, pad: int = 16) -> np.ndarray:
    """Normalized line image -> time-major input sequence: scale to [0,1],
    invert (ink=1), transpose so rows are x-positions, pad `pad` blank
    frames at both ends (reference ocrolib/lstm.py:47-56)."""
    line = np.asarray(line, dtype=np.float32)
    mx = line.max()
    if mx > 0:
        line = line / mx
    line = np.float32(1.0) - line
    seq = line.T
    if pad > 0:
        w = seq.shape[1]
        z = np.zeros((pad, w), dtype=np.float32)
        seq = np.vstack([z, seq, z])
    return seq


# ------------------------------------------------------------- CTC decode


def ctc_best_path(outputs: np.ndarray) -> list[int]:
    """Standard best-path CTC decode (Graves 2006): per-frame argmax,
    collapse repeats, drop blanks. The production decoder — robust to
    wide emission regions; ``translate_back`` below reproduces the
    reference's region-argmax variant for parity."""
    cs = outputs.argmax(axis=1)
    out: list[int] = []
    prev = -1
    for c in cs:
        if c != prev and c != 0:
            out.append(int(c))
        prev = c
    return out


def translate_back(outputs: np.ndarray, threshold: float = 0.7, pos: int = 0):
    """Region-argmax CTC decode (reference ocrolib/lstm.py:741-753): label
    maximal runs where the blank posterior drops below `threshold`; within
    each run, take the (t, class) of the single largest posterior.

    pos=0 -> [class]; pos=1 -> [(t, class)]; pos=2 -> [(class, prob)].
    """
    nonblank = outputs[:, 0] < threshold
    # 1-D run labeling
    starts = []
    ends = []
    in_run = False
    for t, v in enumerate(nonblank):
        if v and not in_run:
            starts.append(t)
            in_run = True
        elif not v and in_run:
            ends.append(t)
            in_run = False
    if in_run:
        ends.append(len(nonblank))
    maxima = []
    for s, e in zip(starts, ends):
        seg = outputs[s:e]
        flat = int(np.argmax(seg))
        r, c = divmod(flat, outputs.shape[1])
        maxima.append((s + r, c))
    if pos == 1:
        return maxima
    if pos == 2:
        return [(c, float(outputs[r, c])) for (r, c) in maxima]
    return [c for (_, c) in maxima]


# --------------------------------------------------------- CTC alignment


def _logaddexp(a, b):
    return np.logaddexp(a, b)


def ctc_align_targets(outputs: np.ndarray, codes: list[int]) -> np.ndarray:
    """Soft alignment of network outputs to a target code sequence via the
    CTC forward-backward recursion in the log domain (Graves et al. 2006;
    reference equivalent: ocrolib/lstm.py:755-838). Returns a (T, C)
    row-stochastic matrix of per-timestep class posteriors ("aligned"
    targets) used as the training signal."""
    T, C = outputs.shape
    # extended label sequence with blanks between/around labels
    ext = [0]
    for c in codes:
        ext.append(int(c))
        ext.append(0)
    S = len(ext)
    ext = np.asarray(ext, dtype=np.int64)
    logp = np.log(np.clip(outputs, 1e-12, 1.0))
    lo = -1e30
    alpha = np.full((T, S), lo)
    alpha[0, 0] = logp[0, ext[0]]
    if S > 1:
        alpha[0, 1] = logp[0, ext[1]]
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    for t in range(1, T):
        stay = alpha[t - 1]
        prev1 = np.concatenate([[lo], alpha[t - 1, :-1]])
        m = _logaddexp(stay, prev1)
        prev2 = np.concatenate([[lo, lo], alpha[t - 1, :-2]])
        m = np.where(skip_ok, _logaddexp(m, prev2), m)
        alpha[t] = m + logp[t, ext]
    beta = np.full((T, S), lo)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    skip_fwd = np.zeros(S, dtype=bool)
    skip_fwd[:-2] = (ext[:-2] != 0) & (ext[:-2] != ext[2:])
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + logp[t + 1, ext]
        stay = nxt
        nxt1 = np.concatenate([nxt[1:], [lo]])
        m = _logaddexp(stay, nxt1)
        nxt2 = np.concatenate([nxt[2:], [lo, lo]])
        m = np.where(skip_fwd, _logaddexp(m, nxt2), m)
        beta[t] = m
    gamma = alpha + beta
    # collapse extended states onto classes
    out = np.full((T, C), lo)
    for s in range(S):
        c = ext[s]
        out[:, c] = _logaddexp(out[:, c], gamma[:, s])
    # normalize rows
    out -= out.max(axis=1, keepdims=True)
    out = np.exp(out)
    out /= out.sum(axis=1, keepdims=True)
    return out


# ------------------------------------------------------------------ layers


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50)))


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """``_sigmoid`` evaluated in ``x``'s own buffer: the same ufuncs in
    the same order (bit-equal), without ``np.clip``'s Python dispatch
    and the four temporaries."""
    np.minimum(x, 50, out=x)
    np.maximum(x, -50, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


class LSTMLayer:
    """Single-direction peephole LSTM. Weights:
    W{i,f,c,o}: (Ns, 1+Ni+Ns) over z=[1, x_t, h_{t-1}]; peepholes
    p{i,f}: (Ns,) from c_{t-1}; po: (Ns,) from c_t."""

    def __init__(self, ni: int, ns: int, rng: np.random.Generator):
        self.ni, self.ns = ni, ns
        nz = 1 + ni + ns
        s = 1.0 / np.sqrt(nz)
        def w():
            return rng.uniform(-s, s, size=(ns, nz))
        self.Wi, self.Wf, self.Wc, self.Wo = w(), w(), w(), w()
        self.pi = rng.uniform(-s, s, size=ns)
        self.pf = rng.uniform(-s, s, size=ns)
        self.po = rng.uniform(-s, s, size=ns)
        self._zero_moments()

    def _zero_moments(self):
        self.mom = {k: np.zeros_like(getattr(self, k)) for k in
                    ("Wi", "Wf", "Wc", "Wo", "pi", "pf", "po")}

    def params(self):
        return ["Wi", "Wf", "Wc", "Wo", "pi", "pf", "po"]

    def forward(self, xs: np.ndarray, cache: bool = False):
        """xs: (T, Ni) -> hs: (T, Ns). With cache=True stores activations
        for backward."""
        T = xs.shape[0]
        ns = self.ns
        hs = np.zeros((T, ns))
        cs = np.zeros((T, ns))
        gi = np.zeros((T, ns))
        gf = np.zeros((T, ns))
        gc = np.zeros((T, ns))
        go = np.zeros((T, ns))
        z = np.empty(1 + self.ni + ns)
        z[0] = 1.0
        h_prev = np.zeros(ns)
        c_prev = np.zeros(ns)
        for t in range(T):
            z[1 : 1 + self.ni] = xs[t]
            z[1 + self.ni :] = h_prev
            i_t = _sigmoid(self.Wi @ z + self.pi * c_prev)
            f_t = _sigmoid(self.Wf @ z + self.pf * c_prev)
            c_in = np.tanh(self.Wc @ z)
            c_t = i_t * c_in + f_t * c_prev
            o_t = _sigmoid(self.Wo @ z + self.po * c_t)
            h_t = o_t * np.tanh(c_t)
            gi[t], gf[t], gc[t], go[t] = i_t, f_t, c_in, o_t
            cs[t], hs[t] = c_t, h_t
            h_prev, c_prev = h_t, c_t
        if cache:
            self._cache = (xs, hs, cs, gi, gf, gc, go)
        return hs

    def forward_batch(self, xs: np.ndarray, cache: bool = False) -> np.ndarray:
        """xs: (B, T, Ni) -> (B, T, Ns); fully batched over sequences.
        With cache=True stores activations for backward_batch.

        The four gate projections are fused into one stacked matmul per
        timestep; the input part (which doesn't depend on the recurrence)
        is hoisted out of the time loop entirely as one (B*T) matmul. The
        i and f gates share one in-place sigmoid over their (B, 2ns)
        block, whose peephole term is ``concat(pi, pf) * concat(c, c)``."""
        B, T, _ = xs.shape
        ns = self.ns
        ni = self.ni
        Wall = np.vstack([self.Wi, self.Wf, self.Wc, self.Wo])  # (4ns, 1+ni+ns)
        dt = Wall.dtype  # float32 for inference-loaded models
        Wx = Wall[:, : 1 + ni].T  # bias + input part
        Wh = Wall[:, 1 + ni :].T  # recurrent part
        xs = np.asarray(xs, dtype=dt)
        # precompute input contribution for all timesteps at once
        xin = np.concatenate([np.ones((B, T, 1), dtype=dt), xs], axis=2) @ Wx
        hs = np.zeros((B, T, ns), dtype=dt)
        h = np.zeros((B, ns), dtype=dt)
        c = np.zeros((B, ns), dtype=dt)
        if cache:
            cs = np.zeros((B, T, ns))
            gi = np.zeros((B, T, ns))
            gf = np.zeros((B, T, ns))
            gc = np.zeros((B, T, ns))
            go = np.zeros((B, T, ns))
        pif = np.concatenate([self.pi, self.pf])
        for t in range(T):
            a = xin[:, t] + h @ Wh  # (B, 4ns)
            gif = _sigmoid_inplace(a[:, : 2 * ns]
                                   + pif * np.concatenate([c, c], axis=1))
            i_t = gif[:, :ns]
            f_t = gif[:, ns:]
            c_in = np.tanh(a[:, 2 * ns : 3 * ns])
            c = i_t * c_in + f_t * c
            o_t = _sigmoid_inplace(a[:, 3 * ns :] + self.po * c)
            h = o_t * np.tanh(c)
            hs[:, t, :] = h
            if cache:
                gi[:, t], gf[:, t], gc[:, t], go[:, t] = i_t, f_t, c_in, o_t
                cs[:, t] = c
        if cache:
            self._bcache = (xs, hs, cs, gi, gf, gc, go)
        return hs

    def backward_batch(self, dhs: np.ndarray):
        """Batched BPTT given dE/dh (B, T, Ns); accumulates weight grads
        into self.grads. Padded frames must carry zero dhs.

        Per-timestep work is one fused (B,4ns)@(4ns,ns) matmul for the
        recurrent gradient; weight gradients are accumulated OUTSIDE the
        loop as two big (4ns, B*T) matmuls."""
        xs, hs, cs, gi, gf, gc, go = self._bcache
        B, T, _ = xs.shape
        ni, ns = self.ni, self.ns
        Wall = np.vstack([self.Wi, self.Wf, self.Wc, self.Wo])
        Wh = Wall[:, 1 + ni :]  # (4ns, ns)
        dgates = np.zeros((B, T, 4 * ns))
        dh_next = np.zeros((B, ns))
        dc_next = np.zeros((B, ns))
        zeros = np.zeros((B, ns))
        for t in range(T - 1, -1, -1):
            c_prev = cs[:, t - 1] if t > 0 else zeros
            tc = np.tanh(cs[:, t])
            dh = dhs[:, t] + dh_next
            do = dh * tc * go[:, t] * (1 - go[:, t])
            dc = dh * go[:, t] * (1 - tc * tc) + dc_next + do * self.po
            di = dc * gc[:, t] * gi[:, t] * (1 - gi[:, t])
            df = dc * c_prev * gf[:, t] * (1 - gf[:, t])
            dci = dc * gi[:, t] * (1 - gc[:, t] * gc[:, t])
            dg = dgates[:, t]
            dg[:, :ns] = di
            dg[:, ns : 2 * ns] = df
            dg[:, 2 * ns : 3 * ns] = dci
            dg[:, 3 * ns :] = do
            dz_h = dg @ Wh  # recurrent part only; x-part grads not needed
            dh_next = dz_h
            dc_next = dc * gf[:, t] + di * self.pi + df * self.pf
        # weight gradients in bulk: z = [1, x, h_prev] over all (B,T)
        z = np.concatenate(
            [
                np.ones((B, T, 1)),
                xs,
                np.concatenate([np.zeros((B, 1, ns)), hs[:, :-1]], axis=1),
            ],
            axis=2,
        )
        gall = np.einsum("btg,btz->gz", dgates, z)  # (4ns, 1+ni+ns)
        g = {
            "Wi": gall[:ns],
            "Wf": gall[ns : 2 * ns],
            "Wc": gall[2 * ns : 3 * ns],
            "Wo": gall[3 * ns :],
        }
        c_prev_all = np.concatenate([np.zeros((B, 1, ns)), cs[:, :-1]], axis=1)
        g["pi"] = (dgates[:, :, :ns] * c_prev_all).sum(axis=(0, 1))
        g["pf"] = (dgates[:, :, ns : 2 * ns] * c_prev_all).sum(axis=(0, 1))
        g["po"] = (dgates[:, :, 3 * ns :] * cs).sum(axis=(0, 1))
        self.grads = g

    def backward(self, dhs: np.ndarray):
        """BPTT given dE/dh per timestep; accumulates gradients into
        self.grads and returns dE/dx (T, Ni)."""
        xs, hs, cs, gi, gf, gc, go = self._cache
        T = xs.shape[0]
        ni, ns = self.ni, self.ns
        g = {k: np.zeros_like(getattr(self, k)) for k in self.params()}
        dxs = np.zeros((T, ni))
        dh_next = np.zeros(ns)
        dc_next = np.zeros(ns)
        z = np.empty(1 + ni + ns)
        z[0] = 1.0
        for t in range(T - 1, -1, -1):
            c_prev = cs[t - 1] if t > 0 else np.zeros(ns)
            h_prev = hs[t - 1] if t > 0 else np.zeros(ns)
            tc = np.tanh(cs[t])
            dh = dhs[t] + dh_next
            do = dh * tc * go[t] * (1 - go[t])
            dc = dh * go[t] * (1 - tc * tc) + dc_next + do * self.po
            di = dc * gc[t] * gi[t] * (1 - gi[t])
            df = dc * c_prev * gf[t] * (1 - gf[t])
            dci = dc * gi[t] * (1 - gc[t] * gc[t])
            z[1 : 1 + ni] = xs[t]
            z[1 + ni :] = h_prev
            g["Wi"] += np.outer(di, z)
            g["Wf"] += np.outer(df, z)
            g["Wc"] += np.outer(dci, z)
            g["Wo"] += np.outer(do, z)
            g["pi"] += di * c_prev
            g["pf"] += df * c_prev
            g["po"] += do * cs[t]
            dz = self.Wi.T @ di + self.Wf.T @ df + self.Wc.T @ dci + self.Wo.T @ do
            dxs[t] = dz[1 : 1 + ni]
            dh_next = dz[1 + ni :]
            dc_next = dc * gf[t] + di * self.pi + df * self.pf
        self.grads = g
        return dxs

    def sgd(self, lr: float, momentum: float):
        for k in self.params():
            m = self.mom[k]
            m *= momentum
            m += lr * self.grads[k]
            setattr(self, k, getattr(self, k) - m)

    def adam(self, lr: float, t: int, b1=0.9, b2=0.999, eps=1e-8):
        if not hasattr(self, "_adam_m"):
            self._adam_m = {k: np.zeros_like(getattr(self, k)) for k in self.params()}
            self._adam_v = {k: np.zeros_like(getattr(self, k)) for k in self.params()}
        for k in self.params():
            g = self.grads[k]
            m = self._adam_m[k] = b1 * self._adam_m[k] + (1 - b1) * g
            v = self._adam_v[k] = b2 * self._adam_v[k] + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            setattr(self, k, getattr(self, k) - lr * mh / (np.sqrt(vh) + eps))


class SoftmaxLayer:
    """Per-timestep linear + softmax over [1, h]."""

    def __init__(self, nh: int, nc: int, rng: np.random.Generator):
        s = 1.0 / np.sqrt(nh + 1)
        self.W = rng.uniform(-s, s, size=(nc, nh + 1))
        self.mom = np.zeros_like(self.W)

    def forward(self, hs: np.ndarray, cache: bool = False) -> np.ndarray:
        z = np.hstack([np.ones((hs.shape[0], 1)), hs])
        a = z @ self.W.T
        a -= a.max(axis=1, keepdims=True)
        e = np.exp(a)
        y = e / e.sum(axis=1, keepdims=True)
        if cache:
            self._cache = (z, y)
        return y

    def forward_batch(self, hs: np.ndarray) -> np.ndarray:
        B, T, nh = hs.shape
        a = hs @ self.W[:, 1:].T + self.W[:, 0]
        a -= a.max(axis=2, keepdims=True)
        e = np.exp(a)
        return e / e.sum(axis=2, keepdims=True)

    def backward(self, dpre: np.ndarray):
        """dpre = dE/d(pre-softmax activations), shape (T, C)."""
        z, _ = self._cache
        self.grad = dpre.T @ z
        return dpre @ self.W[:, 1:]

    def sgd(self, lr: float, momentum: float):
        self.mom = momentum * self.mom + lr * self.grad
        self.W -= self.mom

    def adam(self, lr: float, t: int, b1=0.9, b2=0.999, eps=1e-8):
        if not hasattr(self, "_adam_m"):
            self._adam_m = np.zeros_like(self.W)
            self._adam_v = np.zeros_like(self.W)
        g = self.grad
        self._adam_m = b1 * self._adam_m + (1 - b1) * g
        self._adam_v = b2 * self._adam_v + (1 - b2) * g * g
        mh = self._adam_m / (1 - b1**t)
        vh = self._adam_v / (1 - b2**t)
        self.W -= lr * mh / (np.sqrt(vh) + eps)


# -------------------------------------------------------------- recognizer


class BiLSTMRecognizer:
    """Bidi LSTM + softmax sequence recognizer with CTC training/decoding
    (architecture per reference ocrolib/lstm.py:586-709 BIDILSTM)."""

    def __init__(self, ni: int = 48, ns: int = 64, charset=None, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.codec = Codec(charset if charset is not None else ascii_charset())
        nc = self.codec.size()
        self.ni, self.ns, self.nc = ni, ns, nc
        self.fwd = LSTMLayer(ni, ns, rng)
        self.bwd = LSTMLayer(ni, ns, rng)
        self.out = SoftmaxLayer(2 * ns, nc, rng)

    # ---- inference
    def forward(self, xs: np.ndarray) -> np.ndarray:
        hf = self.fwd.forward(xs)
        hb = self.bwd.forward(xs[::-1])[::-1]
        return self.out.forward(np.hstack([hf, hb]))

    def forward_batch(self, xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """xs: (B, Tmax, Ni) zero-padded; lengths: (B,). Reversal for the
        backward direction respects per-line lengths (padding stays at the
        tail in both directions, harmless for CTC decode when trimmed)."""
        B, Tmax, _ = xs.shape
        hf = self.fwd.forward_batch(xs)
        rev = np.zeros_like(xs)
        for b in range(B):
            L = int(lengths[b])
            rev[b, :L] = xs[b, :L][::-1]
        hbr = self.bwd.forward_batch(rev)
        hb = np.zeros_like(hbr)
        for b in range(B):
            L = int(lengths[b])
            hb[b, :L] = hbr[b, :L][::-1]
        return self.out.forward_batch(np.concatenate([hf, hb], axis=2))

    def predict_codes(self, xs: np.ndarray, pos: int = 0):
        return translate_back(self.forward(xs), pos=pos)

    def predict_string(self, xs: np.ndarray) -> str:
        return self.codec.decode(ctc_best_path(self.forward(xs)))

    # ---- training (single sequence SGD, reference-style)
    def train_step(self, xs: np.ndarray, text: str, lr: float = 1e-2,
                   momentum: float = 0.9, optimizer: str = "sgd",
                   step: int = 1) -> float:
        codes = self.codec.encode(text)
        hf = self.fwd.forward(xs, cache=True)
        hb_r = self.bwd.forward(xs[::-1], cache=True)
        hs = np.hstack([hf, hb_r[::-1]])
        y = self.out.forward(hs, cache=True)
        aligned = ctc_align_targets(y, codes)
        dpre = y - aligned  # dE/dpre for CE(aligned, y)
        dh = self.out.backward(dpre)
        ns = self.ns
        self.fwd.backward(dh[:, :ns])
        self.bwd.backward(dh[::-1, ns:])
        if optimizer == "adam":
            self.fwd.adam(lr, step)
            self.bwd.adam(lr, step)
            self.out.adam(lr, step)
        else:
            self.fwd.sgd(lr, momentum)
            self.bwd.sgd(lr, momentum)
            self.out.sgd(lr, momentum)
        err = float(np.abs(aligned - y).sum()) / max(1, xs.shape[0])
        return err

    def train_minibatch(self, samples: list[tuple[np.ndarray, str]], lr: float,
                        step: int) -> float:
        """Accumulate CTC-alignment gradients over a mini-batch, then one
        Adam step — avoids the batch-size-1 interference that stalls
        per-sample adaptive updates."""
        acc_f = acc_b = None
        acc_out = None
        ns = self.ns
        tot_err = 0.0
        for xs, text in samples:
            codes = self.codec.encode(text)
            hf = self.fwd.forward(xs, cache=True)
            hb_r = self.bwd.forward(xs[::-1], cache=True)
            hs = np.hstack([hf, hb_r[::-1]])
            y = self.out.forward(hs, cache=True)
            aligned = ctc_align_targets(y, codes)
            dpre = (y - aligned) / len(samples)
            dh = self.out.backward(dpre)
            self.fwd.backward(dh[:, :ns])
            self.bwd.backward(dh[::-1, ns:])
            if acc_f is None:
                acc_f = {k: self.fwd.grads[k].copy() for k in self.fwd.params()}
                acc_b = {k: self.bwd.grads[k].copy() for k in self.bwd.params()}
                acc_out = self.out.grad.copy()
            else:
                for k in self.fwd.params():
                    acc_f[k] += self.fwd.grads[k]
                    acc_b[k] += self.bwd.grads[k]
                acc_out += self.out.grad
            tot_err += float(np.abs(aligned - y).sum()) / max(1, xs.shape[0])
        self.fwd.grads, self.bwd.grads, self.out.grad = acc_f, acc_b, acc_out
        self.fwd.adam(lr, step)
        self.bwd.adam(lr, step)
        self.out.adam(lr, step)
        return tot_err / max(1, len(samples))

    def _aligned(self, y: np.ndarray, xs: np.ndarray, codes: list[int],
                 ink_prior: bool) -> np.ndarray:
        """CTC alignment, optionally constrained by an ink prior: the
        space class may not claim frames with ink and glyph classes may
        not claim empty frames. This shapes TRAINING targets only (decode
        is untouched) and blocks the degenerate alignment where the
        space label expands over glyph ink."""
        if not ink_prior:
            return ctc_align_targets(y, codes)
        sp = self.codec.char2code.get(" ")
        ink = xs.sum(axis=1)
        m = np.ones_like(y)
        inky = ink > 2.0
        if sp is not None:
            m[inky, sp] = 1e-6
        first_glyph = (sp + 1) if sp is not None else 1
        m[~inky, first_glyph:] = 1e-6
        ym = y * m
        ym /= ym.sum(axis=1, keepdims=True)
        return ctc_align_targets(ym, codes)

    def train_minibatch_batched(self, samples: list[tuple[np.ndarray, str]],
                                lr: float, step: int,
                                ink_prior: bool = True) -> float:
        """Vectorized mini-batch training: one batched grad pass + one
        Adam step (see grad_minibatch_batched / apply_adam)."""
        err = self.grad_minibatch_batched(samples, ink_prior=ink_prior)
        self.apply_adam(lr, step)
        return err

    def grad_minibatch_batched(self, samples: list[tuple[np.ndarray, str]],
                               ink_prior: bool = True) -> float:
        """Vectorized mini-batch gradient pass: pad sequences to Tmax, run
        one batched forward/backward (all per-timestep ops are (B, Ns)
        matmuls), CTC-align each sample on its un-padded frames. Leaves
        gradients in the layers (fwd.grads / bwd.grads / out.grad) so the
        caller can either apply_adam locally or ship them to a
        data-parallel averager (scripts/train_uw3_model.py runs this in a
        Ray actor per worker with synchronous gradient averaging).
        ~15x the throughput of per-sample training."""
        B = len(samples)
        lengths = np.array([s[0].shape[0] for s in samples], dtype=np.int64)
        Tmax = int(lengths.max())
        ni, ns = self.ni, self.ns
        xs = np.zeros((B, Tmax, ni))
        rev = np.zeros((B, Tmax, ni))
        for b, (x, _) in enumerate(samples):
            L = x.shape[0]
            xs[b, :L] = x
            rev[b, :L] = x[::-1]
        hf = self.fwd.forward_batch(xs, cache=True)
        hbr = self.bwd.forward_batch(rev, cache=True)
        hb = np.zeros_like(hbr)
        for b in range(B):
            L = int(lengths[b])
            hb[b, :L] = hbr[b, :L][::-1]
        hs = np.concatenate([hf, hb], axis=2)
        y = self.out.forward_batch(hs)
        dpre = np.zeros_like(y)
        tot_err = 0.0
        for b, (_, text) in enumerate(samples):
            L = int(lengths[b])
            aligned = self._aligned(y[b, :L], xs[b, :L], self.codec.encode(text),
                                    ink_prior)
            dpre[b, :L] = (y[b, :L] - aligned) / B
            tot_err += float(np.abs(aligned - y[b, :L]).sum()) / max(1, L)
        # softmax layer batched backward
        zb = np.concatenate([np.ones((B, Tmax, 1)), hs], axis=2)
        self.out.grad = np.einsum("btc,btz->cz", dpre, zb)
        dh = dpre @ self.out.W[:, 1:]
        dh_f = dh[:, :, :ns]
        dh_b_rev = np.zeros((B, Tmax, ns))
        for b in range(B):
            L = int(lengths[b])
            dh_b_rev[b, :L] = dh[b, :L, ns:][::-1]
        self.fwd.backward_batch(dh_f)
        self.bwd.backward_batch(dh_b_rev)
        return tot_err / max(1, B)

    def apply_adam(self, lr: float, step: int):
        """One Adam step over the gradients currently held in the layers."""
        self.fwd.adam(lr, step)
        self.bwd.adam(lr, step)
        self.out.adam(lr, step)

    # ---- data-parallel training plumbing (flat dict exchange)
    def get_weights(self) -> dict:
        w = {}
        for name, layer in (("fwd", self.fwd), ("bwd", self.bwd)):
            for k in layer.params():
                w[f"{name}_{k}"] = getattr(layer, k)
        w["out_W"] = self.out.W
        return w

    def set_weights(self, w: dict):
        for name, layer in (("fwd", self.fwd), ("bwd", self.bwd)):
            for k in layer.params():
                setattr(layer, k, np.array(w[f"{name}_{k}"]))
        self.out.W = np.array(w["out_W"])

    def collect_grads(self) -> dict:
        """Flatten the layer gradients left by grad_minibatch_batched."""
        g = {}
        for name, layer in (("fwd", self.fwd), ("bwd", self.bwd)):
            for k in layer.params():
                g[f"{name}_{k}"] = layer.grads[k]
        g["out_W"] = self.out.grad
        return g

    def set_grads(self, g: dict):
        """Install averaged gradients (inverse of collect_grads) so
        apply_adam consumes them."""
        for name, layer in (("fwd", self.fwd), ("bwd", self.bwd)):
            layer.grads = {k: np.asarray(g[f"{name}_{k}"])
                           for k in layer.params()}
        self.out.grad = np.asarray(g["out_W"])

    # ---- persistence
    def save_npz(self, path: str):
        arrs = {}
        for name, layer in (("fwd", self.fwd), ("bwd", self.bwd)):
            for k in layer.params():
                arrs[f"{name}_{k}"] = getattr(layer, k)
        arrs["out_W"] = self.out.W
        arrs["charset"] = np.array(
            [self.codec.code2char[i] for i in range(self.codec.size())], dtype=np.str_
        )
        arrs["shape"] = np.array([self.ni, self.ns, self.nc])
        np.savez_compressed(path, **arrs)

    @classmethod
    def load_npz(cls, path: str, dtype=np.float32) -> "BiLSTMRecognizer":
        """Load for inference. Weights are cast to ``dtype`` (float32 by
        default: halves the matmul bandwidth in the recognizer actors; the
        trained weights carry far fewer than 7 significant digits). Pass
        ``dtype=np.float64`` to resume training at full precision."""
        d = np.load(path)
        ni, ns, nc = (int(v) for v in d["shape"])
        charset = [str(c) for c in d["charset"]]
        net = cls(ni=ni, ns=ns, charset=charset)
        assert net.codec.size() == nc, "charset/codec size mismatch"
        for name, layer in (("fwd", net.fwd), ("bwd", net.bwd)):
            for k in layer.params():
                setattr(layer, k, d[f"{name}_{k}"].astype(dtype))
            layer._zero_moments()
        net.out.W = d["out_W"].astype(dtype)
        net.out.mom = np.zeros_like(net.out.W)
        return net
