"""Adaptive binarization stage (nlbin semantics).

Re-implements the reference's binarization chain B1-B6 (reference
ocropus-nlbin: normalize :98-105, check_page :61-69, local whitelevel
:108-128, skew :71-81,131-144, thresholds :148-174, rescale+threshold
:192-224) as ONE fused numpy kernel per page, exposed as a stateless
``map_batches`` UDF over Arrow batches. Images travel as encoded PNG
``binary`` columns; decode/encode happens only inside the UDF.

Skip-don't-fail: a rejected page becomes a row with ``status`` set to the
skip reason and empty outputs — rows in == rows out (SURVEY.md §7.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import png
from ..functions.imgops import (
    gaussian_filter_fast,
    maximum_filter,
    percentile_filter,
    rotate,
    rotate_rowmeans,
    zoom,
    zoom_to,
)

# defaults per reference ocropus-nlbin:27-37
DEFAULTS = dict(
    threshold=0.5,
    zoom=0.5,
    escale=1.0,
    bignore=0.1,
    perc=80,
    range=20,
    maxskew=2.0,
    lo=5.0,
    hi=90.0,
    skewsteps=8,
)


def normalize_raw_image(raw: np.ndarray) -> np.ndarray | None:
    """Min-max normalize to [0,1]; None for empty/constant images
    (reference ocropus-nlbin:98-105)."""
    img = raw - raw.min()
    rng = img.max()
    if rng == 0 or raw.size == 0:
        return None
    return img / rng


def check_page(image: np.ndarray) -> str:
    """Page sanity guards (reference ocropus-nlbin:61-69). Returns '' when
    OK, else the skip reason."""
    if image.ndim == 3:
        return "input not monochrome"
    if np.mean(image) < np.median(image):
        return "image may be inverted"
    h, w = image.shape
    if h < 600:
        return "image not tall enough for a page image"
    if h > 10000:
        return "image too tall for a page image"
    if w < 600:
        return "image too narrow for a page image"
    if w > 10000:
        return "line too wide for a page image"
    return ""


def estimate_local_whitelevel(
    image: np.ndarray, zoom_factor: float = 0.5, perc: float = 80, rng: int = 20
) -> np.ndarray:
    """Flatten page background: downscale, 2x 1-D percentile filters,
    upscale, subtract (reference ocropus-nlbin:108-128)."""
    m = zoom(image, zoom_factor)
    m = percentile_filter(m, perc, size=(rng, 2))
    m = percentile_filter(m, perc, size=(2, rng))
    m = zoom_to(m, image.shape)
    return np.clip(image - m + 1, 0, 1)


def estimate_skew_angle(image: np.ndarray, angles: np.ndarray) -> float:
    """Pick the rotation maximizing row-mean variance (reference
    ocropus-nlbin:71-81), coarse-to-fine: full sweep on a 4x-downsampled
    copy (nearest-neighbor, matching the reference's order=0), then the
    top candidate and its grid neighbors re-scored at 2x downsampling.
    The refine step removes the 0.25-zoom argmax artifact that pinned
    clean pages at a spurious ±0.375° (whose full-page rotate cost more
    than the whole sweep)."""
    def sweep(img, angs):
        return [
            float(np.var(m)) for m in rotate_rowmeans(img, angs, cval=1.0)
        ]

    def best(angs, scores):
        # sub-pixel rotations are identity on a downsampled image, so
        # small angles TIE exactly; break ties toward zero (what the
        # full-resolution sweep resolves to) instead of argmax order
        vmax = max(scores)
        tied = [a for a, v in zip(angs, scores) if v >= vmax - 1e-12]
        return min(tied, key=abs)

    small = zoom(image, 0.25)
    scores = sweep(small, angles)
    vmax = max(scores)
    # refine the WHOLE coarse tie set (plus grid neighbors) at 2x: the
    # 4x image can't separate sub-degree angles, the 2x one can
    idx = [i for i, v in enumerate(scores) if v >= vmax - 1e-12]
    lo, hi = max(0, idx[0] - 1), min(len(angles) - 1, idx[-1] + 1)
    cand = list(angles[lo : hi + 1])
    med = zoom(image, 0.5)
    return best(cand, sweep(med, cand))


def estimate_thresholds(
    flat: np.ndarray,
    bignore: float = 0.1,
    escale: float = 1.0,
    lo: float = 5.0,
    hi: float = 90.0,
) -> tuple[float, float]:
    """lo/hi percentiles of the text-region pixels; text regions found by
    a local-stddev mask dilated along both axes (reference
    ocropus-nlbin:148-174)."""
    d0, d1 = flat.shape
    o0, o1 = int(bignore * d0), int(bignore * d1)
    est = flat[o0 : d0 - o0, o1 : d1 - o1]
    if escale > 0:
        e = escale
        v = est - gaussian_filter_fast(est, e * 20.0)
        v = np.sqrt(np.clip(gaussian_filter_fast(v**2, e * 20.0), 0, None))
        v = v > 0.3 * v.max()
        v = maximum_filter(v.astype(np.uint8), (int(e * 50), 1)) > 0
        v = maximum_filter(v.astype(np.uint8), (1, int(e * 50))) > 0
        sel = est[v]
        if sel.size == 0:
            sel = est.ravel()
    else:
        sel = est.ravel()
    return float(np.percentile(sel, lo)), float(np.percentile(sel, hi))


def binarize_page(raw_gray: np.ndarray, **params) -> dict:
    """Full nlbin chain for one grayscale page in [0,1]. Returns dict with
    keys: status ('' ok), bin (uint8 {0,1}, 1=white), nrm (float flat),
    angle."""
    p = dict(DEFAULTS, **params)
    image = normalize_raw_image(raw_gray)
    if image is None:
        return {"status": "empty image", "bin": None, "nrm": None, "angle": 0.0}
    # guards run on the ink-high inverted image (reference ocropus-nlbin:187)
    reason = check_page(image.max() - image)
    if reason:
        return {"status": reason, "bin": None, "nrm": None, "angle": 0.0}
    # already-binary shortcut (reference ocropus-nlbin:192-199)
    extreme = (
        float(((image < 0.05).sum() + (image > 0.95).sum())) / image.size
    )
    if extreme > 0.95:
        flat = image
    else:
        flat = estimate_local_whitelevel(image, p["zoom"], p["perc"], p["range"])
    angle = 0.0
    if p["maxskew"] > 0:
        ma, ms = p["maxskew"], p["skewsteps"]
        angles = np.linspace(-ma, ma, int(2 * ma * ms) + 1)
        angle = estimate_skew_angle(flat, angles)
        if abs(angle) > 1e-9:
            flat = rotate(flat, angle, cval=1.0)
    lo, hi = estimate_thresholds(flat, p["bignore"], p["escale"], p["lo"], p["hi"])
    if hi <= lo:
        hi = lo + 1e-6
    flat = np.clip((flat - lo) / (hi - lo), 0, 1)
    binary = (flat > p["threshold"]).astype(np.uint8)
    return {"status": "", "bin": binary, "nrm": flat, "angle": float(angle)}


def binarize_png(data: bytes | None, **params) -> dict:
    """One page's PNG bytes -> ``binarize_page``'s dict with status 'ok',
    the skip reason, or an ``error:`` status for a page that does not
    decode or binarize (poison pill -> status row, never fail the job)."""
    try:
        r = binarize_page(png.decode_gray(data), **params)
    except Exception as e:
        r = {"status": f"error: {type(e).__name__}: {e}", "bin": None, "nrm": None,
             "angle": 0.0}
    r["status"] = r["status"] or "ok"
    return r


def binarize_batch(batch: pa.Table, keep_nrm: bool = True, **params) -> pa.Table:
    """Stateless map_batches UDF: page_png -> bin_png (+ nrm_png) + status.

    Arrow in / Arrow out; the per-image kernel is fully vectorized numpy,
    the Python loop is only over the images in the batch (images have
    heterogeneous shapes — one row, one page)."""
    results = [binarize_png(data, **params)
               for data in batch.column("page_png").to_pylist()]

    def pngs(key):
        return pa.array([png.encode_gray(r[key]) if r[key] is not None else None
                         for r in results], type=pa.binary())

    out = batch.drop_columns(["page_png"])
    out = out.append_column("bin_png", pngs("bin"))
    if keep_nrm:
        out = out.append_column("nrm_png", pngs("nrm"))
    out = out.append_column(
        "bin_status", pa.array([r["status"] for r in results], type=pa.string()))
    out = out.append_column(
        "skew_angle", pa.array([r["angle"] for r in results], type=pa.float64()))
    return out
