"""Deterministic TTF line generator with linegen-style degradations —
the reference's training-set synthesizer rebuilt without PIL/cairo/scipy
(reference ocropus-linegen:128-147 rgeometry/rdistort, :174-197 genline,
:60-66 degradation presets). Renders with the in-tree, redistributable
DejaVuSans.ttf via the from-scratch functions/ttf.py rasterizer.

Every sample is a pure function of (text, seed) so corpora regenerate
bit-identically on any worker; training pools mix these degraded TTF
lines with the stroke-font renderer's output (sources/glyphs.py) to
widen the recognizer's input distribution toward the reference
generator's.
"""

from __future__ import annotations

import os

import numpy as np

from ..functions import ttf
from ..functions.imgops import _bilinear_sample, gaussian_filter

DEJAVU = "/root/reference/tests/DejaVuSans.ttf"
if not os.path.exists(DEJAVU):
    # no reference checkout: the system DejaVu package's copy of the face
    DEJAVU = "/usr/share/fonts/truetype/dejavu/DejaVuSans.ttf"

# (sigma, sigma_jitter, threshold, threshold_jitter) — the reference's
# lo/med/hi presets (ocropus-linegen:44-66)
DEGRADATIONS = {
    "lo": [(0.5, 0.0, 0.5, 0.0)],
    "med": [(0.5, 0.0, 0.5, 0.05),
            (1.0, 0.3, 0.4, 0.05),
            (1.0, 0.3, 0.5, 0.05),
            (1.0, 0.3, 0.6, 0.05)],
    "hi": [(0.5, 0.0, 0.5, 0.0),
           (1.0, 0.3, 0.4, 0.1),
           (1.0, 0.3, 0.5, 0.1),
           (1.0, 0.3, 0.6, 0.1),
           (1.3, 0.3, 0.4, 0.1),
           (1.3, 0.3, 0.5, 0.1),
           (1.3, 0.3, 0.6, 0.1)],
}


def rgeometry(image: np.ndarray, rng: np.random.Generator,
              eps: float = 0.03, delta: float = 0.3) -> np.ndarray:
    """Small random affine (shear/scale/shift), reference
    ocropus-linegen:128-133 semantics: output[o] = input[m @ o + d]."""
    m = np.array([[1 + eps * rng.standard_normal(), 0.0],
                  [eps * rng.standard_normal(),
                   1.0 + eps * rng.standard_normal()]])
    h, w = image.shape
    c = np.array([h / 2.0, w / 2.0])
    d = c - m @ c + rng.standard_normal(2) * delta
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sy = m[0, 0] * yy + m[0, 1] * xx + d[0]
    sx = m[1, 0] * yy + m[1, 1] * xx + d[1]
    cval = float(image[0, 0])
    out = np.full((h, w), cval, dtype=np.float64)
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    vals = _bilinear_sample(image.astype(np.float64), sy, sx)
    out[inside] = vals[inside]
    return out


def rdistort(image: np.ndarray, rng: np.random.Generator,
             distort: float = 3.0, dsigma: float = 10.0,
             cval: float = 1.0) -> np.ndarray:
    """Smooth random displacement-field warp (reference
    ocropus-linegen:136-147)."""
    h, w = image.shape
    hs = gaussian_filter(rng.standard_normal((h, w)), dsigma)
    ws = gaussian_filter(rng.standard_normal((h, w)), dsigma)
    hs *= distort / max(np.amax(np.abs(hs)), 1e-12)
    ws *= distort / max(np.amax(np.abs(ws)), 1e-12)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sy = yy + hs
    sx = xx + ws
    out = np.full((h, w), cval, dtype=np.float64)
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    vals = _bilinear_sample(image.astype(np.float64), sy, sx)
    out[inside] = vals[inside]
    return out


def _crop(a: np.ndarray, pad: int = 3) -> np.ndarray:
    ink = a < 0.5
    if not ink.any():
        return a
    ys, xs = np.nonzero(ink)
    y0, y1 = ys.min(), ys.max() + 1
    x0, x1 = xs.min(), xs.max() + 1
    out = a[max(0, y0 - pad):y1 + pad, max(0, x0 - pad):x1 + pad]
    return np.pad(out, pad, mode="constant", constant_values=1.0)


def genline(text: str, seed: int, font: str = DEJAVU, size: int = 36,
            degradations: str = "med", distort: float = 0.0,
            dsigma: float = 10.0) -> np.ndarray:
    """One degraded binary line image (float {0,1}, 1=white), the
    reference genline chain: render -> gaussian blur -> clipped noise ->
    random affine -> threshold -> crop [-> rdistort]."""
    import hashlib

    key = hashlib.sha1(text.encode("utf-8")
                       + seed.to_bytes(8, "big", signed=True)).digest()
    rng = np.random.default_rng(int.from_bytes(key[:8], "big"))
    preset = DEGRADATIONS[degradations]
    sigma, ssig, thr, sthr = preset[int(rng.integers(len(preset)))]
    sigma += (2 * rng.random() - 1) * ssig
    thr += (2 * rng.random() - 1) * sthr
    a = ttf.render_text(text, font, size=size).astype(np.float64)
    if sigma > 0:
        a = gaussian_filter(a, sigma)
    a += np.clip(rng.standard_normal(a.shape) * 0.2, -0.25, 0.25)
    a = rgeometry(a, rng)
    a = (a > thr).astype(np.float64)
    a = _crop(a, pad=3)
    if distort > 0:
        a = rdistort(a, rng, distort, dsigma, cval=float(np.amax(a)))
        a = (a > 0.5).astype(np.float64)
    return a.astype(np.float32)


def degrade_real(image: np.ndarray, seed: int,
                 degradations: str = "med") -> np.ndarray:
    """Degrade an EXISTING grayscale line scan (float, white=high) with
    the genline chain minus the render step: blur -> clipped noise ->
    random affine -> threshold -> crop. Used to augment real training
    scans (e.g. uw3-500) without leaving their glyph distribution; pure
    function of (image bytes, seed)."""
    import hashlib

    key = hashlib.sha1(np.ascontiguousarray(image).tobytes()
                       + seed.to_bytes(8, "big", signed=True)).digest()
    rng = np.random.default_rng(int.from_bytes(key[:8], "big"))
    preset = DEGRADATIONS[degradations]
    sigma, ssig, thr, sthr = preset[int(rng.integers(len(preset)))]
    sigma += (2 * rng.random() - 1) * ssig
    thr += (2 * rng.random() - 1) * sthr
    a = image.astype(np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        a = (a - lo) / (hi - lo)
    if sigma > 0:
        a = gaussian_filter(a, sigma)
    a += np.clip(rng.standard_normal(a.shape) * 0.15, -0.2, 0.2)
    a = rgeometry(a, rng, eps=0.02, delta=0.3)
    a = (a > thr).astype(np.float64)
    a = _crop(a, pad=3)
    return a.astype(np.float32)


def training_lines_ttf(texts: list[str], seed: int = 7, size: int = 36,
                       degradations: str = "med",
                       font: str = DEJAVU) -> list[tuple[str, np.ndarray]]:
    """(text, image) pairs, degraded deterministically per (text, seed).
    Lines that degrade to blank or sliver images are skipped, mirroring
    the reference's guards (ocropus-linegen:225-226)."""
    out = []
    for i, t in enumerate(texts):
        img = genline(t, seed + i, font=font, size=size,
                      degradations=degradations)
        if (min(img.shape) < 10 or float(np.amax(img)) < 0.5
                or not (img < 0.5).any()):  # sliver / all-black / inkless
            continue
        out.append((t, img))
    return out
