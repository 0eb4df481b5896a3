"""Optional torch backend for BiLSTMRecognizer inference.

The numpy forward is the reference implementation (nn/lstm.py
forward_batch — fused-gate matmuls); this module re-expresses the SAME
recurrence (peephole LSTM per reference ocrolib/lstm.py LSTM) in torch
so the recognize tasks can run on a GPU when one is scheduled
(pipelines/ocr.py ``recognizer_num_gpus``). Selected in
LineRecognizer.__init__, which runs once per worker process
(stages/recognize.py ``LineRecognizerTask``); torch is optional,
so everything here is import-guarded and the parity test skips when
torch is absent.

Parity contract: forward_batch here must match nn/lstm.py's numpy
forward_batch to float32 round-off (the test pins max-abs diff) —
identical gate math, identical concat order [fwd, bwd], identical
softmax.
"""

from __future__ import annotations

import numpy as np


def torch_available() -> bool:
    try:
        import torch  # noqa: F401

        return True
    except ImportError:
        return False


class TorchBiLSTMForward:
    """forward_batch(xs, lengths) drop-in for a loaded BiLSTMRecognizer,
    holding the net's weights as torch tensors on ``device`` (moved once
    at construction — per-batch traffic is activations only)."""

    def __init__(self, net, device: str = "cuda"):
        import torch

        self.torch = torch
        self.device = torch.device(device)
        self.ns = net.ns
        self.ni = net.ni

        def cvt(a):
            return torch.as_tensor(
                np.ascontiguousarray(a, dtype=np.float32),
                device=self.device)

        self.layers = []
        for lay in (net.fwd, net.bwd):
            Wall = np.vstack([lay.Wi, lay.Wf, lay.Wc, lay.Wo])
            self.layers.append({
                "Wx": cvt(Wall[:, : 1 + net.ni].T),   # (1+ni, 4ns)
                "Wh": cvt(Wall[:, 1 + net.ni:].T),    # (ns, 4ns)
                "pi": cvt(lay.pi), "pf": cvt(lay.pf), "po": cvt(lay.po),
            })
        self.W2 = cvt(net.out.W.T)  # (1+2ns, nc)

    def _lstm(self, lay: dict, xs):
        torch = self.torch
        B, T, _ = xs.shape
        ns = self.ns
        ones = torch.ones((B, T, 1), device=self.device, dtype=xs.dtype)
        xin = torch.cat([ones, xs], dim=2) @ lay["Wx"]  # (B, T, 4ns)
        h = torch.zeros((B, ns), device=self.device, dtype=xs.dtype)
        c = torch.zeros((B, ns), device=self.device, dtype=xs.dtype)
        hs = torch.empty((B, T, ns), device=self.device, dtype=xs.dtype)
        for t in range(T):
            a = xin[:, t] + h @ lay["Wh"]
            ai, af, ac, ao = a.split(ns, dim=1)
            i_t = torch.sigmoid(ai + lay["pi"] * c)
            f_t = torch.sigmoid(af + lay["pf"] * c)
            c = i_t * torch.tanh(ac) + f_t * c
            o_t = torch.sigmoid(ao + lay["po"] * c)
            h = o_t * torch.tanh(c)
            hs[:, t] = h
        return hs

    def forward_batch(self, xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Same contract as BiLSTMRecognizer.forward_batch: xs (B, Tmax,
        Ni) zero-padded, per-line reversal for the backward direction,
        softmax posteriors (B, Tmax, Nc) back as numpy."""
        torch = self.torch
        with torch.no_grad():
            x = torch.as_tensor(np.ascontiguousarray(xs, dtype=np.float32),
                                device=self.device)
            B, Tmax, _ = x.shape
            hf = self._lstm(self.layers[0], x)
            rev = torch.zeros_like(x)
            for b in range(B):
                L = int(lengths[b])
                rev[b, :L] = torch.flip(x[b, :L], dims=[0])
            hbr = self._lstm(self.layers[1], rev)
            hb = torch.zeros_like(hbr)
            for b in range(B):
                L = int(lengths[b])
                hb[b, :L] = torch.flip(hbr[b, :L], dims=[0])
            hs = torch.cat([hf, hb], dim=2)
            ones = torch.ones((B, Tmax, 1), device=self.device,
                              dtype=hs.dtype)
            pre = torch.cat([ones, hs], dim=2) @ self.W2
            y = torch.softmax(pre, dim=2)
            return y.cpu().numpy()
