"""Numpy image-processing kernels (scipy.ndimage is not available here).

These provide the filter primitives the binarization/segmentation stages
need — behavioral equivalents of the scipy calls the reference makes
(ocropus-nlbin, ocropus-gpageseg, ocrolib/morph.py), implemented from
scratch on numpy. Exact scipy bit-parity is NOT a goal (goldens are pinned
against these implementations; the correctness invariant is line-text
level, see SURVEY.md §7.4).

All filters use edge-replicate ("nearest") padding unless noted.
"""

from __future__ import annotations

import numpy as np

# Working dtype for all image kernels. Pages are 8-bit-sourced values in
# [0, 1]; every consumer thresholds or takes percentiles, so float32's 7
# significant digits are ample — and halving memory traffic matters: the
# page stage is memory-bandwidth-bound at high task concurrency.
FLOAT = np.float32


def _f(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=FLOAT)


# ---------------------------------------------------------------- zoom / rotate


def zoom(a: np.ndarray, factor: float) -> np.ndarray:
    """Bilinear rescale by `factor` (reference: interpolation.zoom in
    ocropus-nlbin:108-128)."""
    a = _f(a)
    h, w = a.shape
    nh, nw = max(1, int(round(h * factor))), max(1, int(round(w * factor)))
    if nh == h and nw == w:
        return a.copy()
    ys = (np.arange(nh) + 0.5) * (h / nh) - 0.5
    xs = (np.arange(nw) + 0.5) * (w / nw) - 0.5
    return _bilinear_sample(a, ys[:, None], xs[None, :])


def zoom_to(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear rescale to an exact (h, w)."""
    a = _f(a)
    h, w = a.shape
    nh, nw = shape
    if (nh, nw) == (h, w):
        return a.copy()
    ys = (np.arange(nh) + 0.5) * (h / nh) - 0.5
    xs = (np.arange(nw) + 0.5) * (w / nw) - 0.5
    return _bilinear_sample(a, ys[:, None], xs[None, :])


def _bilinear_sample(a: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = a.shape
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)
    fx = np.clip(xs - x0, 0.0, 1.0)
    tl = a[y0, x0]
    tr = a[y0, x1]
    bl = a[y1, x0]
    br = a[y1, x1]
    top = tl + (tr - tl) * fx
    bot = bl + (br - bl) * fx
    return top + (bot - top) * fy


def rotate(
    a: np.ndarray, angle_deg: float, cval: float = 0.0, order: int = 1
) -> np.ndarray:
    """Rotate about the center, same output shape (reshape=False semantics,
    reference: interpolation.rotate in ocropus-nlbin:71-81,131-144).
    order=0 is nearest-neighbor — what the reference's skew SWEEP uses
    (ocropus-nlbin:74, order=0) and ~4x cheaper than bilinear."""
    a = _f(a)
    if abs(angle_deg) < 1e-12:
        return a.copy()
    h, w = a.shape
    th = np.deg2rad(angle_deg)
    c, s = np.cos(th), np.sin(th)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yv = np.arange(h) - cy
    xv = np.arange(w) - cx
    # inverse map: output coord -> input coord. Outer-broadcast of the
    # precomputed 1-D products — bit-equal to the full-grid
    # c*yy - s*xx + cy (same per-element IEEE op order), without
    # materializing the two h*w meshgrid multiplies.
    sy = (c * yv)[:, None] - (s * xv)[None, :] + cy
    sx = (s * yv)[:, None] + (c * xv)[None, :] + cx
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    out = np.full((h, w), cval, dtype=FLOAT)
    if order == 0:
        yi = np.clip(np.rint(sy).astype(np.int64), 0, h - 1)
        xi = np.clip(np.rint(sx).astype(np.int64), 0, w - 1)
        vals = a[yi, xi]
    else:
        vals = _bilinear_sample(a, sy, sx)
    out[inside] = vals[inside]
    return out


def rotate_rowmeans(
    a: np.ndarray, angles, cval: float = 0.0
) -> list[np.ndarray]:
    """Row means of ``rotate(a, angle, cval, order=0)`` for each angle,
    sharing one coordinate grid across the sweep and never materializing
    the rotated pages (the skew sweep only scores row-mean variance —
    ocropus-nlbin:71-81). Bit-equal to rotating then ``.mean(axis=1)``:
    one gather from the raveled page plus a trailing ``cval`` slot, which
    every outside pixel indexes, builds the identical array the rotate
    path fills."""
    a = _f(a)
    h, w = a.shape
    flat = np.append(a.ravel(), FLOAT(cval))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yv = np.arange(h) - cy
    xv = np.arange(w) - cx
    out = []
    for angle_deg in angles:
        if abs(angle_deg) < 1e-12:
            out.append(a.mean(axis=1))
            continue
        th = np.deg2rad(angle_deg)
        c, s = np.cos(th), np.sin(th)
        sy = (c * yv)[:, None] - (s * xv)[None, :] + cy
        sx = (s * yv)[:, None] + (c * xv)[None, :] + cx
        inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
        idx = np.rint(sy).astype(np.int64) * w + np.rint(sx).astype(np.int64)
        idx[~inside] = h * w
        out.append(flat[idx].mean(axis=1))
    return out


# ------------------------------------------------------------------- filters


def _pad_axis(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    pad = [(0, 0)] * a.ndim
    pad[axis] = (k, k)
    return np.pad(a, pad, mode="edge")


def gaussian_kernel(sigma: float, truncate: float = 4.0) -> np.ndarray:
    r = max(1, int(truncate * sigma + 0.5))
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / max(sigma, 1e-9)) ** 2)
    return k / k.sum()


def gaussian_filter1d(a: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    if sigma <= 0:
        return _f(a).copy()
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    ap = _pad_axis(_f(a), r, axis)
    out = np.zeros_like(_f(a))
    sl = [slice(None)] * a.ndim
    for i, kv in enumerate(k):
        sl[axis] = slice(i, i + a.shape[axis])
        out += kv * ap[tuple(sl)]
    return out


def gaussian_filter(a: np.ndarray, sigma) -> np.ndarray:
    """Separable gaussian; sigma scalar or (sy, sx)."""
    if np.isscalar(sigma):
        sy = sx = float(sigma)
    else:
        sy, sx = sigma
    out = _f(a)
    if sy > 0:
        out = gaussian_filter1d(out, sy, 0)
    if sx > 0:
        out = gaussian_filter1d(out, sx, 1)
    return out


def gaussian_gradient(a: np.ndarray, sigma, axis: int = 0) -> np.ndarray:
    """Smoothed first derivative along `axis` (gaussian-derivative filter,
    the scipy ``gaussian_filter(..., order=...)`` equivalent used in
    ocropus-gpageseg:287-303 and :262-269). Sign convention matches
    d/d(axis): positive where values increase with the coordinate."""
    if np.isscalar(sigma):
        sy = sx = float(sigma)
    else:
        sy, sx = sigma
    s_axis = sy if axis == 0 else sx
    s_other = sx if axis == 0 else sy
    a = _f(a)
    if s_axis > 3:
        # conv(f, dG/dx) == d/dx conv(f, G): smooth with the O(n) box
        # cascade, then central-difference. Every caller normalizes the
        # result by its max (norm_max / 0.5*amax thresholds), so the
        # constant derivative-magnitude factor is immaterial — only the
        # zero crossings and relative extrema matter.
        out = box_gaussian_filter1d(a, s_axis, axis)
        out = np.gradient(out, axis=axis)
    else:
        r = max(1, int(4.0 * s_axis + 0.5))
        x = np.arange(-r, r + 1, dtype=np.float64)
        g = np.exp(-0.5 * (x / max(s_axis, 1e-9)) ** 2)
        g /= g.sum()
        # correlation with the mirrored derivative kernel == convolution
        # with dG/dx; offset +i-r samples a[pos+(i-r)] so positive slope -> +
        dg = (x / (max(s_axis, 1e-9) ** 2)) * g
        ap = _pad_axis(a, r, axis)
        out = np.zeros_like(a)
        sl = [slice(None)] * a.ndim
        for i, kv in enumerate(dg):
            sl[axis] = slice(i, i + a.shape[axis])
            out += kv * ap[tuple(sl)]
    if s_other > 8:
        out = box_gaussian_filter1d(out, s_other, 1 - axis)
    elif s_other > 0:
        out = gaussian_filter1d(out, s_other, 1 - axis)
    return out


def box_gaussian_filter1d(a: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """O(n) gaussian approximation by a cascade of three box filters
    (variance of n boxes of width w is n(w²-1)/12 — standard fast-gaussian
    construction). Used for the large-sigma page-level smoothing where the
    downstream consumer thresholds robustly; the exact kernel stays in
    use for small sigmas and the recognition path."""
    if sigma <= 0:
        return _f(a).copy()
    # three boxes with total variance ~= sigma^2
    w = int(np.sqrt(sigma * sigma * 12.0 / 3.0 + 1.0))
    if w % 2 == 0:
        w += 1
    out = _f(a)
    for _ in range(3):
        out = uniform_filter1d(out, w, axis)
    return out


def gaussian_filter_fast(a: np.ndarray, sigma) -> np.ndarray:
    """Separable gaussian using the O(n) box cascade for sigma > 3 per
    axis (page-level smoothing whose consumers threshold relative to the
    max); the exact kernel stays in use for small sigmas."""
    if np.isscalar(sigma):
        sy = sx = float(sigma)
    else:
        sy, sx = sigma
    out = _f(a)
    for s, ax in ((sy, 0), (sx, 1)):
        if s <= 0:
            continue
        if s > 3:
            out = box_gaussian_filter1d(out, s, ax)
        else:
            out = gaussian_filter1d(out, s, ax)
    return out


def uniform_filter1d(a: np.ndarray, size: int, axis: int) -> np.ndarray:
    size = max(1, int(size))
    if size == 1:
        return _f(a).copy()
    lo = size // 2
    hi = size - 1 - lo
    a = _f(a)
    ap = _pad_axis(a, max(lo, hi), axis)
    if lo != hi:
        # trim asymmetric padding
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(max(lo, hi) - lo, ap.shape[axis] - (max(lo, hi) - hi))
        ap = ap[tuple(sl)]
    c = np.cumsum(ap, axis=axis)
    sl_hi = [slice(None)] * a.ndim
    sl_lo = [slice(None)] * a.ndim
    sl_hi[axis] = slice(size - 1, size - 1 + a.shape[axis])
    out = c[tuple(sl_hi)].copy()
    sl_lo[axis] = slice(0, a.shape[axis] - 1)
    head = [slice(None)] * a.ndim
    head[axis] = slice(1, None)
    out[tuple(head)] -= c[tuple(sl_lo)]
    return out / size


def uniform_filter(a: np.ndarray, size) -> np.ndarray:
    if np.isscalar(size):
        sy = sx = int(size)
    else:
        sy, sx = size
    out = uniform_filter1d(a, sy, 0)
    out = uniform_filter1d(out, sx, 1)
    return out


def maximum_filter1d(a: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Sliding maximum by window doubling: over the edge-replicated
    array, ~log2(size) ``np.maximum`` passes of contiguous slices build
    the max of every power-of-two window w <= size; each output is then
    the max of the two such windows that cover its own window (they
    overlap, which max does not mind). Exact for any dtype."""
    size = max(1, int(size))
    a = np.asarray(a)
    if size == 1:
        return a.copy()
    n = a.shape[axis]
    pad = [(0, 0)] * a.ndim
    pad[axis] = (size // 2, size - 1 - size // 2)
    cur = np.pad(a, pad, mode="edge")

    def part(x, start, stop):
        s = [slice(None)] * x.ndim
        s[axis] = slice(start, stop)
        return x[tuple(s)]

    w = 1
    while 2 * w <= size:
        m = cur.shape[axis]
        cur = np.maximum(part(cur, 0, m - w), part(cur, w, m))
        w *= 2
    if w == size:
        return np.ascontiguousarray(part(cur, 0, n))
    return np.maximum(part(cur, 0, n), part(cur, size - w, size - w + n))


def maximum_filter(a: np.ndarray, size) -> np.ndarray:
    if np.isscalar(size):
        sy = sx = int(size)
    else:
        sy, sx = size
    out = maximum_filter1d(a, sy, 0)
    out = maximum_filter1d(out, sx, 1)
    return out


def minimum_filter(a: np.ndarray, size) -> np.ndarray:
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.bool_):
        return ~maximum_filter(~a, size)
    return -maximum_filter(-_f(a), size)


def percentile_filter(
    a: np.ndarray, percentile: float, size, block_rows: int = 64
) -> np.ndarray:
    """Sliding-window percentile (reference: filters.percentile_filter in
    ocropus-nlbin:108-128). Processes in row blocks to bound memory."""
    if np.isscalar(size):
        sy = sx = int(size)
    else:
        sy, sx = int(size[0]), int(size[1])
    a = _f(a)
    h, w = a.shape
    ly, hy = sy // 2, sy - 1 - sy // 2
    lx, hx = sx // 2, sx - 1 - sx // 2
    ap = np.pad(a, ((ly, hy), (lx, hx)), mode="edge")
    out = np.empty((h, w), dtype=FLOAT)
    try:
        from numpy.lib.stride_tricks import sliding_window_view
    except ImportError:  # pragma: no cover
        sliding_window_view = None
    for y0 in range(0, h, block_rows):
        y1 = min(h, y0 + block_rows)
        block = ap[y0 : y1 + sy - 1, :]
        win = sliding_window_view(block, (sy, sx))  # (rows, w, sy, sx)
        out[y0:y1] = np.percentile(win, percentile, axis=(2, 3))
    return out


# ------------------------------------------------------- connected components


def label(binary: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling (reference: morph.label →
    scipy measurements.label default structure, ocrolib/morph.py:14-30).

    Fully vectorized over row runs: runs come from one diff, run-to-run
    adjacency between consecutive rows from two global searchsorted
    calls on row-composite keys, and the union is min-index propagation
    with pointer jumping over the run graph (O(E log d), no Python loop
    over runs). Output is bit-identical to a sequential run-based
    union-find (``tests/test_imgops_properties.py`` keeps one as the
    reference): both root every component at its first row-major run and
    dense-renumber roots in ascending order. Returns (int32 label image,
    number of labels).
    """
    b = np.asarray(binary) != 0
    h, w = b.shape
    if not b.any():
        return np.zeros((h, w), dtype=np.int32), 0
    # run extraction: one diff over the zero-padded image (row-major order)
    bp = np.zeros((h, w + 2), dtype=np.int8)
    bp[:, 1:-1] = b
    d = np.diff(bp, axis=1)
    sy, sx = np.nonzero(d == 1)   # run starts
    _, ex = np.nonzero(d == -1)   # run ends (exclusive), pairs 1:1 with starts
    R = len(sx)
    # adjacency run r (row y) <-> prev-row run q: overlap iff
    # sx[q] < ex[r] and ex[q] > sx[r]. Composite keys make the per-row
    # subarrays globally sorted, so both range endpoints come from one
    # searchsorted each (rows never alias: the row stride exceeds w+1).
    stride = np.int64(w + 2)
    g_start = sy.astype(np.int64) * stride + sx
    g_end = sy.astype(np.int64) * stride + ex
    prev = (sy.astype(np.int64) - 1) * stride
    a_r = np.searchsorted(g_end, prev + sx, side="right")
    b_r = np.searchsorted(g_start, prev + ex, side="left")
    n_r = (b_r - a_r).clip(min=0)
    er = np.repeat(np.arange(R, dtype=np.int64), n_r)
    tot = int(n_r.sum())
    if tot:
        off = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(n_r) - n_r, n_r
        )
        eq = np.repeat(a_r, n_r) + off
    else:
        eq = er
    # min-index propagation with pointer jumping
    parent = np.arange(R, dtype=np.int64)
    while True:
        m = np.minimum(parent[er], parent[eq])
        before = parent
        parent = parent.copy()
        np.minimum.at(parent, er, m)
        np.minimum.at(parent, eq, m)
        parent = np.minimum(parent, parent[parent])
        parent = np.minimum(parent, parent[parent])
        if np.array_equal(parent, before):
            break
    uniq = np.unique(parent)
    dense = np.zeros(R, dtype=np.int32)
    dense[uniq] = np.arange(1, len(uniq) + 1, dtype=np.int32)
    v = dense[parent]
    # paint runs into the image with one scatter + cumsum (runs are
    # disjoint, so start:+v / end:-v prefix-sums to v inside each run)
    flat = np.zeros(h * (w + 1) + 1, dtype=np.int32)
    rowbase = sy.astype(np.int64) * (w + 1)
    np.add.at(flat, rowbase + sx, v)
    np.add.at(flat, rowbase + ex, -v)
    labels = np.cumsum(flat[:-1], dtype=np.int32).reshape(h, w + 1)[:, :w]
    return labels, int(len(uniq))


def find_objects(labels: np.ndarray, nlabels: int | None = None):
    """Bounding slices per label, like scipy find_objects (used throughout
    ocrolib/morph.py and psegutils.py). Returns list indexed label-1;
    entries are (slice_y, slice_x) or None for absent labels."""
    lab = np.asarray(labels)
    if nlabels is None:
        nlabels = int(lab.max()) if lab.size else 0
    if nlabels == 0:
        return []
    ys, xs = np.nonzero(lab)
    ids = lab[ys, xs]
    y0 = np.full(nlabels + 1, np.iinfo(np.int64).max, dtype=np.int64)
    y1 = np.full(nlabels + 1, -1, dtype=np.int64)
    x0 = np.full(nlabels + 1, np.iinfo(np.int64).max, dtype=np.int64)
    x1 = np.full(nlabels + 1, -1, dtype=np.int64)
    np.minimum.at(y0, ids, ys)
    np.maximum.at(y1, ids, ys)
    np.minimum.at(x0, ids, xs)
    np.maximum.at(x1, ids, xs)
    out = []
    for i in range(1, nlabels + 1):
        if y1[i] < 0:
            out.append(None)
        else:
            out.append((slice(int(y0[i]), int(y1[i]) + 1), slice(int(x0[i]), int(x1[i]) + 1)))
    return out
