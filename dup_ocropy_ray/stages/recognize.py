"""Line recognition stage.

The reference loads the pickled LSTM once in the parent and forks workers
(reference ocropus-rpred:119-139); the Ray-native equivalent here is a
task-pool UDF: ``ds.map_batches(LineRecognizerTask(**kw), batch_size=B)``
runs on the elastic task pool like the page stage, and each Ray worker
process loads a model once, on its first batch, then reuses it for every
later batch and pipeline run (``_load_model`` is a per-process cache,
shared with the ``AlignedLocs`` stage). No CPU stays reserved for
recognition between batches.

Per line (reference ocropus-rpred:144-266): check_line guards → center
normalization (R2/R3) → prepare_line (R4) → bidi-LSTM forward (R5-R7) →
CTC decode (R8/R9) → text normalization (R11). Lines in a batch are
length-bucketed and run through ONE batched forward per bucket — the
engine's hot path is matmuls, not Python.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa

from ..functions import png
from ..functions.text import normalize_text
from ..nn.lstm import BiLSTMRecognizer, prepare_line, translate_back
from .lineest import check_line, normalize_line

DEFAULT_MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "models", "fixture_model.npz")

LOW_CONFIDENCE = 0.6


@functools.lru_cache(maxsize=8)
def _load_model(model_path: str | None) -> BiLSTMRecognizer:
    """npz (native) or legacy reference .pyrnn(.gz) (ocropus-rpred:119-131
    load path via nn/pyrnn.py importer), loaded at most once per process
    for each path. The loaded net is shared: inference does not mutate
    it."""
    mp = str(model_path or DEFAULT_MODEL)
    if mp.endswith((".pyrnn", ".pyrnn.gz")):
        from ..nn.pyrnn import load_pyrnn

        return load_pyrnn(mp)
    return BiLSTMRecognizer.load_npz(mp)


class LineRecognizer:
    """Batch UDF: line_png -> (text, confidence, rec_status). Takes its
    model from the per-process cache (``_load_model``)."""

    def __init__(self, model_path: str | None = None, pad: int = 16,
                 nocheck: bool = False, bucket_width: int = 32,
                 keep_png: bool = False, keep_llocs: bool = False):
        self.net = _load_model(model_path)
        self.pad = pad
        self.nocheck = nocheck
        self.bucket_width = bucket_width
        self.keep_png = keep_png  # retain line_png (gtedit correction sink)
        # emit per-char locations + probabilities (reference .llocs/.prob
        # side outputs, ocropus-rpred:170-203)
        self.keep_llocs = keep_llocs

    def _prepare(self, data: bytes):
        """PNG -> ((T,48) input, reason, raw ink width) — raw width feeds
        the reference's lloc position scaling (ocropus-rpred:173)."""
        gray = png.decode_gray(data)
        if gray.size == 0 or gray.max() == gray.min():
            return None, "image is blank", 0
        if not self.nocheck:
            reason = check_line(np.amax(gray) - gray)
            if reason:
                return None, reason, 0
        # NO ink-column trimming: the model trains on raw extracted crops
        # (with their extract_masked pad margins), and the reference feeds
        # the raw line image too (ocropus-rpred:144-167) — trimming here
        # measured 16x worse CER from the distribution mismatch
        norm = normalize_line(gray)
        return prepare_line(norm, self.pad), "", gray.shape[1]

    def __call__(self, batch: pa.Table) -> pa.Table:
        pngs = batch.column("line_png").to_pylist()
        n = len(pngs)
        texts: list[str] = [""] * n
        confs = np.zeros(n)
        statuses = ["ok"] * n
        raw_w = np.zeros(n, dtype=np.int64)
        llocs: list[list | None] = [None] * n
        prepared: list[tuple[int, np.ndarray]] = []
        for i, data in enumerate(pngs):
            if data is None:  # page-marker row: passes through untouched
                statuses[i] = "marker"
                continue
            try:
                xs, reason, w = self._prepare(data)
            except Exception as e:
                xs, reason, w = None, f"error: {type(e).__name__}: {e}", 0
            if xs is None:
                statuses[i] = reason
            else:
                raw_w[i] = w
                prepared.append((i, xs))
        # length-bucketed batched inference
        prepared.sort(key=lambda p: p[1].shape[0])
        k = 0
        while k < len(prepared):
            j = k + 1
            T0 = prepared[k][1].shape[0]
            while (
                j < len(prepared)
                and prepared[j][1].shape[0] - T0 <= self.bucket_width
                and j - k < 64
            ):
                j += 1
            group = prepared[k:j]
            Tmax = group[-1][1].shape[0]
            B = len(group)
            xs = np.zeros((B, Tmax, self.net.ni), dtype=np.float32)
            lengths = np.zeros(B, dtype=np.int64)
            for b, (_, x) in enumerate(group):
                lengths[b] = x.shape[0]
                xs[b, : x.shape[0]] = x
            ys = self.net.forward_batch(xs, lengths)
            for b, (i, _) in enumerate(group):
                y = ys[b, : int(lengths[b])]
                # R8: the reference's region decode, not plain best-path
                # (lstm.translate_back, ocrolib/lstm.py:741-753)
                codes = translate_back(y)
                raw = self.net.codec.decode(codes)
                texts[i] = normalize_text(raw)
                if codes:
                    # mean posterior of the emitted (non-blank) frames
                    emit = y.max(axis=1)[y.argmax(axis=1) != 0]
                    confs[i] = float(emit.mean()) if emit.size else 0.0
                else:
                    confs[i] = float(y[:, 0].mean())
                if self.keep_llocs:
                    # reference ocropus-rpred:170-203: per-char location
                    # in RAW line pixels + per-char probability
                    T = int(lengths[b])
                    sc = raw_w[i] / max(1, T - 2 * self.pad)
                    pos = translate_back(y, pos=1)
                    pr = translate_back(y, pos=2)
                    llocs[i] = [
                        {
                            "ch": self.net.codec.decode([c]),
                            "x": round(float((t - self.pad) * sc), 1),
                            "prob": round(float(p), 6),
                        }
                        for (t, c), (_, p) in zip(pos, pr)
                    ]
            k = j
        out = batch if self.keep_png else batch.drop_columns(["line_png"])
        out = out.append_column("text", pa.array(texts, pa.string()))
        out = out.append_column("confidence", pa.array(confs, pa.float64()))
        out = out.append_column("rec_status", pa.array(statuses, pa.string()))
        if self.keep_llocs:
            lloc_t = pa.list_(
                pa.struct(
                    [
                        pa.field("ch", pa.string()),
                        pa.field("x", pa.float64()),
                        pa.field("prob", pa.float64()),
                    ]
                )
            )
            out = out.append_column("llocs", pa.array(llocs, lloc_t))
        return out


def recognize_batch(batch: pa.Table, **kwargs) -> pa.Table:
    """``LineRecognizer(**kwargs)(batch)``; the model behind it is loaded
    at most once per process (``_load_model``), so a worker that serves
    several models keeps a few."""
    return LineRecognizer(**kwargs)(batch)


class LineRecognizerTask:
    """``recognize_batch`` with its kwargs bound, for
    ``ds.map_batches``. A callable instance rather than a partial so
    that Ray Data names the operator ``MapBatches(LineRecognizerTask)``,
    which keeps recognition identifiable in ``Dataset.stats()``."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def __call__(self, batch: pa.Table) -> pa.Table:
        return recognize_batch(batch, **self.kwargs)


class AlignedLocs:
    """Task-pool UDF for the reference's ``.alocs`` side output
    (ocropus-rpred:183-196): per-char locations from the CTC
    forward-backward ALIGNMENT of the network outputs to the ground-truth
    transcript, rather than from the free decode. Consumes line rows that
    carry ``line_png`` + ``gt_text``; emits an ``alocs`` list column.
    Pass an instance to ``ds.map_batches``; like ``LineRecognizerTask``
    it takes the model from the per-process cache on its first batch."""

    def __init__(self, model_path: str | None = None, pad: int = 16):
        self.model_path = model_path
        self.pad = pad

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..nn.lstm import ctc_align_targets

        net = _load_model(self.model_path)
        pngs = batch.column("line_png").to_pylist()
        gts = batch.column("gt_text").to_pylist()
        out_locs: list[list | None] = []
        for data, gt in zip(pngs, gts):
            if data is None or not gt:
                out_locs.append(None)
                continue
            try:
                gray = png.decode_gray(data)
                ink = np.nonzero(
                    (gray < 0.5 * (gray.max() + gray.min())).any(axis=0)
                )[0]
                if len(ink):
                    gray = gray[:, ink[0] : ink[-1] + 1]
                raw_w = gray.shape[1]
                xs = prepare_line(normalize_line(gray), self.pad)
                y = net.forward(xs)
                codes = net.codec.encode(gt)
                aligned = ctc_align_targets(y, codes)
                pos = translate_back(aligned, pos=1)
                sc = raw_w / max(1, len(y) - 2 * self.pad)
                out_locs.append(
                    [
                        {
                            "ch": net.codec.decode([c]),
                            "x": round(float((t - self.pad) * sc), 1),
                        }
                        for t, c in pos
                    ]
                )
            except Exception:
                out_locs.append(None)
        t = pa.list_(
            pa.struct([pa.field("ch", pa.string()), pa.field("x", pa.float64())])
        )
        return batch.drop_columns(["line_png"]).append_column(
            "alocs", pa.array(out_locs, t)
        )
