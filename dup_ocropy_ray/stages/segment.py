"""Page/line segmentation stage (gpageseg semantics).

Re-implements the reference's segmentation chain G1-G16 as one fused
numpy kernel per page plus an explode step to per-line rows:
- scale estimation (reference ocrolib/psegutils.py:45-53)
- page guards incl. component count (reference ocropus-gpageseg:118-130)
- horizontal-line removal (:339-345)
- whitespace column separators by convolution (:223-245) and optional
  black separators by morphology (:177-186)
- gradient baseline/topline maps (:287-303), line seeds (:306-332)
- label propagation + spreading (:366-375, ocrolib/morph.py:174-188)
- line records + filtering (ocrolib/psegutils.py:65-80)
- reading order partial order + topological sort (psegutils.py:127-181)
- reading-order renumber 0x010000+(i+1) (:444-449)
- noise removal + masked line extraction (:458-464, psegutils.py:88-125)

Exposed as a stateless ``map_batches`` UDF (`segment_batch`) that turns one
page row into a `lines` list column; `explode_lines` flat-maps pages to
line rows so the recognizer pool sees balanced batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import png, sl
from ..functions.imgops import (
    find_objects,
    gaussian_filter_fast,
    gaussian_gradient,
    label,
    maximum_filter,
    uniform_filter,
)
from ..functions.morph import (
    propagate_labels,
    r_dilation,
    r_erosion,
    remove_small_components,
    seed_label_table,
    select_regions,
    spread_labels,
)

# defaults per reference ocropus-gpageseg:41-79
DEFAULTS = dict(
    minscale=12.0,
    maxlines=300,
    threshold=0.2,
    noise=8,
    usegauss=False,
    vscale=1.0,
    hscale=1.0,
    maxseps=0,
    sepwiden=10,
    maxcolseps=3,
    csminheight=10,
    pad=3,
    expand=3,
)


def check_page_components(ink: np.ndarray) -> str:
    """Extra page guard: component count within [10, w*h/900]
    (reference ocropus-gpageseg:118-130); `ink` is the ink=1 image."""
    h, w = ink.shape
    slots = int(w * h / (30 * 30))
    _, ncomps = label(ink > np.mean(ink))
    if ncomps < 10:
        return f"too few connected components for a page image (got {ncomps})"
    if ncomps > slots:
        return f"too many connected components for a page image ({ncomps} > {slots})"
    return ""


def binary_objects(binary: np.ndarray):
    labels, n = label(binary)
    return find_objects(labels, n)


def estimate_scale_from_objects(objects, shape) -> float:
    """Median sqrt-area of non-overlapping components in (3,100)
    (reference ocrolib/psegutils.py:45-53)."""
    objs = sorted((o for o in objects if o is not None), key=sl.area)
    scalemap = np.zeros(shape)
    for o in objs:
        if np.amax(scalemap[o]) > 0:
            continue
        scalemap[o] = sl.area(o) ** 0.5
    sel = scalemap[(scalemap > 3) & (scalemap < 100)]
    if sel.size == 0:
        return float("nan")
    return float(np.median(sel))


def estimate_scale(binary: np.ndarray) -> float:
    return estimate_scale_from_objects(binary_objects(binary), binary.shape)


def compute_boxmap(binary: np.ndarray, scale: float, threshold=(0.5, 4)) -> np.ndarray:
    """Mask of components whose sqrt-area is within threshold*scale
    (reference ocrolib/psegutils.py:55-63)."""
    boxmap = np.zeros(binary.shape, dtype=np.uint8)
    for o in binary_objects(binary):
        if o is None:
            continue
        a = sl.area(o) ** 0.5
        if a < threshold[0] * scale or a > threshold[1] * scale:
            continue
        boxmap[o] = 1
    return boxmap


def remove_hlines(binary: np.ndarray, scale: float, maxsize: float = 10) -> np.ndarray:
    """Drop components wider than maxsize*scale (reference
    ocropus-gpageseg:339-345)."""
    labels, n = label(binary)
    objects = find_objects(labels, n)
    for i, b in enumerate(objects):
        if b is not None and sl.dim1(b) > maxsize * scale:
            region = labels[b]
            region[region == i + 1] = 0
    return (labels != 0).astype(np.uint8)


def compute_colseps_conv(
    binary: np.ndarray, scale: float, csminheight: float = 10, maxcolseps: int = 3
) -> np.ndarray:
    """Whitespace column separators by smoothing + vertical-edge gradient
    (reference ocropus-gpageseg:223-245).

    Runs at HALF resolution: every map here is smoothed by >= scale/2
    pixels before thresholding, so whitespace-column detection is
    insensitive to a 2x downsample (2-px boundary quantization is well
    inside the smoothing blur); the mask upsamples by pixel doubling.
    Halves the dominant filter cost of the segment stage."""
    h, w = binary.shape
    if min(h, w) >= 64 and scale >= 6:
        # 2x2 max-pool over the even-cropped image (ink presence preserved)
        bb = binary[: 2 * (h // 2), : 2 * (w // 2)]
        small = np.maximum(
            np.maximum(bb[0::2, 0::2], bb[1::2, 0::2]),
            np.maximum(bb[0::2, 1::2], bb[1::2, 1::2]),
        )
        seps_small = _colseps_conv_full(small, scale / 2, csminheight, maxcolseps)
        seps = np.zeros((h, w), dtype=np.uint8)
        up = np.repeat(np.repeat(seps_small, 2, axis=0), 2, axis=1)
        seps[: up.shape[0], : up.shape[1]] = up
        return seps
    return _colseps_conv_full(binary, scale, csminheight, maxcolseps)


def _colseps_conv_full(
    binary: np.ndarray, scale: float, csminheight: float = 10, maxcolseps: int = 3
) -> np.ndarray:
    smoothed = gaussian_filter_fast(binary.astype(np.float32), (scale, scale * 0.5))
    smoothed = uniform_filter(smoothed, (5.0 * scale, 1))
    thresh = smoothed < np.amax(smoothed) * 0.1
    grad = gaussian_gradient(binary.astype(np.float32), (scale, scale * 0.5), axis=1)
    grad = uniform_filter(grad, (10.0 * scale, 1))
    grad = grad > 0.5 * np.amax(grad)
    seps = np.minimum(
        thresh, maximum_filter(grad.astype(np.uint8), (int(scale), int(5 * scale))) > 0
    )
    seps = maximum_filter(seps.astype(np.uint8), (int(2 * scale), 1)) > 0
    seps = select_regions(seps, sl.dim0, min_v=csminheight * scale, nbest=maxcolseps)
    return seps.astype(np.uint8)


def compute_separators_morph(
    binary: np.ndarray, scale: float, sepwiden: int = 10, maxseps: int = 2
) -> np.ndarray:
    """Vertical black (ruled) separators (reference ocropus-gpageseg:177-186)."""
    d0 = int(max(5, scale / 4))
    d1 = int(max(5, scale)) + sepwiden
    thick = r_dilation(binary.astype(np.float32), (d0, d1))
    vert = r_dilation(r_erosion(thick, (int(10 * scale), 1)), (int(10 * scale), 1))
    vert = r_erosion(vert, (d0 // 2 or 1, sepwiden or 1))
    vert = select_regions(vert > 0.5, sl.dim1, min_v=3, nbest=2 * maxseps)
    vert = select_regions(vert, sl.dim0, min_v=20 * scale, nbest=maxseps)
    return vert.astype(np.uint8)


def compute_gradmaps(binary: np.ndarray, scale: float, usegauss: bool,
                     vscale: float, hscale: float):
    """Baseline/topline gradient maps (reference ocropus-gpageseg:287-303)."""
    boxmap = compute_boxmap(binary, scale)
    return compute_gradmaps_from_boxmap(binary, boxmap, scale, usegauss,
                                        vscale, hscale)


def compute_gradmaps_from_boxmap(binary: np.ndarray, boxmap: np.ndarray,
                                 scale: float, usegauss: bool,
                                 vscale: float, hscale: float):
    cleaned = boxmap * binary
    if usegauss:
        grad = gaussian_gradient(
            cleaned.astype(np.float32), (vscale * 0.3 * scale, hscale * 6 * scale), axis=0
        )
    else:
        grad = gaussian_gradient(
            cleaned.astype(np.float32), (max(4, vscale * 0.3 * scale), hscale * scale),
            axis=0,
        )
        grad = uniform_filter(grad, (vscale, hscale * 6 * scale))

    def norm_max(v):
        m = np.amax(v)
        return v / m if m > 0 else v

    top = norm_max((grad > 0) * grad)
    bottom = norm_max((grad < 0) * (-grad))
    return bottom, top, boxmap


def compute_line_seeds(
    binary: np.ndarray,
    bottom: np.ndarray,
    top: np.ndarray,
    colseps: np.ndarray,
    scale: float,
    threshold: float = 0.2,
    vscale: float = 1.0,
) -> np.ndarray:
    """Mark regions between detected baselines and toplines as line seeds
    (reference ocropus-gpageseg:306-332)."""
    t = threshold
    vrange = int(vscale * scale)
    bmarked = maximum_filter(
        (bottom == maximum_filter(bottom, (vrange, 1))).astype(np.uint8), (2, 2)
    )
    bmarked = bmarked * (bottom > t * np.amax(bottom) * t) * (1 - colseps)
    tmarked = maximum_filter(
        (top == maximum_filter(top, (vrange, 1))).astype(np.uint8), (2, 2)
    )
    tmarked = tmarked * (top > t * np.amax(top) * t / 2) * (1 - colseps)
    tmarked = maximum_filter(tmarked, (1, 20))
    # Vectorized form of the reference's per-column transition walk
    # (ocropus-gpageseg:318-327): for each baseline-marker pixel (y0,x),
    # fill [y0-delta, y0), and fill up from the nearest topline marker
    # y1 <= y0 when no other baseline marker sits between them and the
    # gap is < 5*scale. "Nearest transition below (y0,1) in descending
    # (y,s) order is a topline" == lastT[y0] > lastB[y0-1], with the
    # walk's trailing (0,0) sentinel reproduced by forcing row 0 of the
    # topline mask. Interval fills become one scatter-diff + cumsum —
    # no Python loop over columns. Verified bit-equal to the loop on
    # randomized inputs and the bench corpus.
    H, W = binary.shape
    delta = max(3, int(scale / 2))
    bmm = bmarked > 0
    tmm = tmarked > 0
    tmm_s = tmm.copy()
    tmm_s[0, :] = True
    ys = np.arange(H, dtype=np.int32)[:, None]
    last_t = np.maximum.accumulate(np.where(tmm_s, ys, np.int32(-1)), axis=0)
    last_b = np.maximum.accumulate(np.where(bmm, ys, np.int32(-1)), axis=0)
    last_b_below = np.empty_like(last_b)
    last_b_below[0] = -1
    last_b_below[1:] = last_b[:-1]
    yy, xx = np.nonzero(bmm)
    diff = np.zeros((H + 1, W), np.int32)
    np.add.at(diff, (np.maximum(0, yy - delta), xx), 1)
    np.add.at(diff, (yy, xx), -1)
    y_t = last_t[yy, xx]
    sel = (y_t > last_b_below[yy, xx]) & ((yy - y_t) < 5 * scale)
    np.add.at(diff, (y_t[sel], xx[sel]), 1)
    np.add.at(diff, (yy[sel], xx[sel]), -1)
    seeds = (np.cumsum(diff[:-1], axis=0) > 0).astype(np.int32)
    seeds = maximum_filter(seeds.astype(np.uint8), (1, int(1 + scale))) > 0
    seeds = seeds * (1 - colseps)
    seed_labels, _ = label(seeds > 0)
    return seed_labels


def compute_segmentation(
    binary: np.ndarray,
    scale: float,
    labels: np.ndarray | None = None,
    objects=None,
    **params,
) -> np.ndarray:
    """Complete line segmentation of an ink=1 binary page
    (reference ocropus-gpageseg:348-375). Returns int32 label image.

    When the caller passes the page's component labeling (labels,
    objects), hline-removal / boxmap / label-propagation reuse it instead
    of relabeling — the page is labeled once per segmentation."""
    p = dict(DEFAULTS, **params)
    binary = np.asarray(binary, dtype=np.uint8)
    if labels is None:
        labels, n = label(binary)
        objects = find_objects(labels, n)
    n = len(objects)
    # hline removal: drop components wider than maxsize*scale (G3)
    keep = np.ones(n + 1, dtype=bool)
    keep[0] = False
    for i, o in enumerate(objects):
        if o is not None and sl.dim1(o) > 10 * scale:
            keep[i + 1] = False
    binary = (keep[labels] & (binary > 0)).astype(np.uint8)
    colseps = compute_colseps_conv(binary, scale, p["csminheight"], p["maxcolseps"])
    reuse_components = True
    if p["maxseps"] > 0:
        seps = compute_separators_morph(binary, scale, p["sepwiden"], p["maxseps"])
        colseps = np.maximum(colseps, seps)
        binary = np.minimum(binary, 1 - seps)
        reuse_components = False  # black seps cut components; relabel below
    mask = p.get("mask")
    if mask is not None:
        # G7 apply_mask: user-provided separator mask merged into colseps
        # and carved out of the ink (reference ocropus-gpageseg:268-276)
        mask = np.asarray(mask, dtype=np.uint8)
        colseps = np.maximum(colseps, mask)
        binary = np.minimum(binary, 1 - colseps)
        reuse_components = False  # mask may cut components; relabel below
    # boxmap (G10): components with sqrt-area in (0.5, 4) * scale
    if reuse_components:
        boxkeep = np.zeros(n + 1, dtype=bool)
        for i, o in enumerate(objects):
            if o is None or not keep[i + 1]:
                continue
            a = sl.area(o) ** 0.5
            if 0.5 * scale <= a <= 4 * scale:
                boxkeep[i + 1] = True
        boxmap = boxkeep[labels].astype(np.uint8)
    else:
        boxmap = compute_boxmap(binary, scale)
    bottom, top, _ = compute_gradmaps_from_boxmap(
        binary, boxmap, scale, p["usegauss"], p["vscale"], p["hscale"]
    )
    seeds = compute_line_seeds(
        binary, bottom, top, colseps, scale, p["threshold"], p["vscale"]
    )
    if reuse_components:
        # propagate seed labels component-wise on the existing labeling
        first = seed_label_table(labels, n, seeds, boxmap > 0)
        llabels = np.where(boxmap > 0, first[labels], 0).astype(np.int32)
    else:
        llabels = propagate_labels(boxmap, seeds, conflict=0)
    spread = spread_labels(seeds, maxdist=scale)
    llabels = np.where(llabels > 0, llabels, spread * binary)
    return (llabels * binary).astype(np.int32)


def compute_lines(segmentation: np.ndarray, scale: float):
    """Label image -> line records [(label, bounds)] dropping lines
    narrower than 2*scale or shorter than scale (reference
    ocrolib/psegutils.py:65-80)."""
    objects = find_objects(segmentation)
    lines = []
    for i, o in enumerate(objects):
        if o is None:
            continue
        if sl.dim1(o) < 2 * scale or sl.dim0(o) < scale:
            continue
        mask = segmentation[o] == i + 1
        if not mask.any():
            continue
        lines.append({"label": i + 1, "bounds": o, "mask": mask})
    return lines


def reading_order(bounds_list) -> np.ndarray:
    """Pairwise partial reading order over line bboxes (reference
    ocrolib/psegutils.py:127-164): u before v if u is above v with x
    overlap, or left of v with no separating line between them."""
    n = len(bounds_list)
    order = np.zeros((n, n), dtype=np.uint8)

    def x_overlaps(u, v):
        return u[1].start < v[1].stop and u[1].stop > v[1].start

    def separates(w, u, v):
        if w[0].stop < min(u[0].start, v[0].start):
            return False
        if w[0].start > max(u[0].stop, v[0].stop):
            return False
        return w[1].start < u[1].stop and w[1].stop > v[1].start

    for i, u in enumerate(bounds_list):
        for j, v in enumerate(bounds_list):
            if x_overlaps(u, v):
                if u[0].start < v[0].start:
                    order[i, j] = 1
            elif u[1].stop < v[1].start:
                if not any(separates(w, u, v) for w in bounds_list):
                    order[i, j] = 1
    return order


def topsort(order: np.ndarray) -> list[int]:
    """DFS topological sort with the reference's iteration/tie-break order
    (reference ocrolib/psegutils.py:166-181) — the emitted sequence IS the
    reading order the span invariant keys on."""
    n = len(order)
    visited = np.zeros(n, dtype=bool)
    out: list[int] = []

    def visit(k: int):
        if visited[k]:
            return
        visited[k] = True
        for l in np.nonzero(order[:, k])[0]:
            visit(int(l))
        out.append(k)

    for k in range(n):
        visit(k)
    return out


def extract_masked(
    image: np.ndarray, line: dict, pad: int = 3, expand: int = 3
) -> np.ndarray:
    """Cut a line bbox (+pad) from the white=1 image, blank other lines'
    ink via the expanded mask, background-fill (reference
    ocrolib/psegutils.py:88-125)."""
    o = line["bounds"]
    mask = line["mask"].astype(np.uint8)
    if pad > 0:
        mask = np.pad(mask, pad, mode="constant", constant_values=0)
    cut_img = sl.cut(image, o, margin=pad, bg=1.0)
    if expand > 0:
        mask = maximum_filter(mask.astype(np.uint8), (expand, expand)) > 0
    return np.where(mask, cut_img, np.amax(cut_img))


def segment_page(bin_white1: np.ndarray, **params) -> dict:
    """Full segmentation of a binarized page ({0,1}, 1 = white background).
    Returns {status, scale, lines: [{order,y0,x0,y1,x1,png}]}."""
    p = dict(DEFAULTS, **params)
    ink = (1 - np.asarray(bin_white1)).astype(np.uint8)  # invert: ink=1
    # label ONCE; all downstream component logic reuses this labeling
    labels, n = label(ink)
    objects = find_objects(labels, n)
    h, w = ink.shape
    slots = int(w * h / (30 * 30))
    # component-count sanity guards are skippable, mirroring the
    # reference's --nocheck (ocropus-gpageseg:38,400 — its CI drives
    # table.bin.png, which trips the slots bound, with -n)
    if not p.get("nocheck", False):
        if n < 10:
            return {"status":
                    f"too few connected components for a page image (got {n})",
                    "scale": 0.0, "lines": []}
        if n > slots:
            return {"status": f"too many connected components ({n} > {slots})",
                    "scale": 0.0, "lines": []}
    scale = estimate_scale_from_objects(objects, ink.shape)
    if np.isnan(scale) or scale > 1000.0:
        return {"status": f"bad scale ({scale:g})", "scale": 0.0, "lines": []}
    if scale < p["minscale"]:
        return {"status": f"scale ({scale:g}) less than minscale", "scale": scale,
                "lines": []}
    segmentation = compute_segmentation(ink, scale, labels=labels, objects=objects,
                                        **params)
    nlines_raw = int(segmentation.max())
    if nlines_raw > p["maxlines"]:
        return {"status": f"too many lines ({nlines_raw})", "scale": scale, "lines": []}
    lines = compute_lines(segmentation, scale)
    order = reading_order([l["bounds"] for l in lines])
    lsort = topsort(order)
    cleaned = remove_small_components(ink, p["noise"])
    white = (1 - cleaned).astype(np.float32)  # white=1 background for extraction
    out_lines = []
    for rank, idx in enumerate(lsort):
        l = lines[idx]
        img = extract_masked(white, l, pad=p["pad"], expand=p["expand"])
        o = l["bounds"]
        out_lines.append(
            {
                "order": rank,
                "y0": int(o[0].start),
                "x0": int(o[1].start),
                "y1": int(o[0].stop),
                "x1": int(o[1].stop),
                "png": png.encode_gray(img),
            }
        )
    result = {"status": "", "scale": float(scale), "lines": out_lines}
    if p.get("keep_pseg"):
        # G14 relabel in reading order as 0x010000 + (rank+1) (reference
        # ocropus-gpageseg:444-449), serialized in the reference's RGB
        # disk convention (S5)
        remap = np.zeros(int(segmentation.max()) + 1, dtype=np.int32)
        for rank, idx in enumerate(lsort):
            remap[lines[idx]["label"]] = 0x010000 + rank + 1
        result["pseg_png"] = png.encode_segmentation(remap[segmentation])
    return result


LINE_ITEM = pa.struct(
    [
        pa.field("order", pa.int32()),
        pa.field("y0", pa.int32()),
        pa.field("x0", pa.int32()),
        pa.field("y1", pa.int32()),
        pa.field("x1", pa.int32()),
        pa.field("png", pa.binary()),
    ]
)


def segment_binary(binary, status: str, mask_png: bytes | None = None,
                   **params) -> dict:
    """One binarized page -> ``segment_page``'s dict with status 'ok', the
    skip reason, or an ``error:`` status. ``binary`` is binarize's {0,1}
    uint8 array (1 = white) or its PNG, decoded here; ``status`` is
    binarize's, and a page it did not pass keeps that status."""
    if status != "ok" or binary is None:
        return {"status": status if status != "ok" else "no binary image",
                "scale": 0.0, "lines": []}
    try:
        if isinstance(binary, bytes):
            binary = png.decode_binary(binary)
        if mask_png is not None:
            # G7: sibling .mask.png media span; bright pixels mark
            # separator regions (reference apply_mask feeds
            # read_image_binary output — 1 where bright — straight
            # into maximum(colseps, mask), ocropus-gpageseg:268-276)
            params["mask"] = png.decode_binary(mask_png)
        r = segment_page(binary, **params)
    except Exception as e:
        r = {"status": f"error: {type(e).__name__}: {e}", "scale": 0.0, "lines": []}
    r["status"] = r["status"] or "ok"
    return r


def append_segments(batch: pa.Table, results: list[dict]) -> pa.Table:
    """Page rows + their ``segment_binary`` results -> the rows plus the
    lines, seg_status and seg_scale columns (the first two are what
    ``explode_lines`` reads)."""
    out = batch.append_column(
        "lines", pa.array([r["lines"] for r in results], type=pa.list_(LINE_ITEM)))
    out = out.append_column(
        "seg_status", pa.array([r["status"] for r in results], type=pa.string()))
    return out.append_column(
        "seg_scale", pa.array([r["scale"] for r in results], type=pa.float64()))


def segment_batch(batch: pa.Table, **params) -> pa.Table:
    """Stateless map_batches UDF: bin_png -> lines list column + status."""
    bins = batch.column("bin_png").to_pylist()
    masks = (
        batch.column("mask_png").to_pylist()
        if "mask_png" in batch.column_names
        else [None] * len(bins)
    )
    results = [segment_binary(data, st, mk, **params) for data, st, mk in
               zip(bins, batch.column("bin_status").to_pylist(), masks)]
    out = batch.drop_columns(
        ["bin_png"]
        + [c for c in ("nrm_png", "mask_png") if c in batch.column_names]
    )
    return append_segments(out, results)


def explode_lines(batch: pa.Table, page_markers: bool = False) -> pa.Table:
    """Pages -> line rows (the 1→N flat_map point, SURVEY.md G16).
    Output: doc_id, media_ref, span_offset, line_order, bbox, line_png,
    page_status.

    With page_markers=True, each page additionally emits ONE marker row
    (line_order=-1, line_png=None) carrying its seg_status, so the page
    accounting travels in the same stream as the lines — the heavy
    binarize/segment work runs exactly once."""
    doc_ids, refs, offs = (
        batch.column("doc_id").to_pylist(),
        batch.column("media_ref").to_pylist(),
        batch.column("span_offset").to_pylist(),
    )
    lines = batch.column("lines").to_pylist()
    statuses = (
        batch.column("seg_status").to_pylist()
        if "seg_status" in batch.column_names
        else ["ok"] * len(doc_ids)
    )
    rows = {k: [] for k in
            ("doc_id", "media_ref", "span_offset", "line_order", "y0", "x0", "y1",
             "x1", "line_png", "page_status")}

    def emit(d, r, o, order, y0, x0, y1, x1, png, st):
        rows["doc_id"].append(d)
        rows["media_ref"].append(r)
        rows["span_offset"].append(o)
        rows["line_order"].append(order)
        rows["y0"].append(y0)
        rows["x0"].append(x0)
        rows["y1"].append(y1)
        rows["x1"].append(x1)
        rows["line_png"].append(png)
        rows["page_status"].append(st)

    for d, r, o, ls, st in zip(doc_ids, refs, offs, lines, statuses):
        if page_markers:
            emit(d, r, o, -1, 0, 0, 0, 0, None, st)
        for l in ls:
            emit(d, r, o, l["order"], l["y0"], l["x0"], l["y1"], l["x1"],
                 l["png"], "ok")
    return pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], pa.string()),
            "media_ref": pa.array(rows["media_ref"], pa.string()),
            "span_offset": pa.array(rows["span_offset"], pa.int32()),
            "line_order": pa.array(rows["line_order"], pa.int32()),
            "y0": pa.array(rows["y0"], pa.int32()),
            "x0": pa.array(rows["x0"], pa.int32()),
            "y1": pa.array(rows["y1"], pa.int32()),
            "x1": pa.array(rows["x1"], pa.int32()),
            "line_png": pa.array(rows["line_png"], pa.binary()),
            "page_status": pa.array(rows["page_status"], pa.string()),
        }
    )
