"""Morphology kit on numpy (behavioral equivalent of reference
ocrolib/morph.py:14-284: label / find_objects / rectangular
dilation-erosion-opening-closing / select_regions / propagate_labels /
spread_labels / renumbering)."""

from __future__ import annotations

import numpy as np

from .imgops import find_objects, label, maximum_filter, minimum_filter


def r_dilation(a: np.ndarray, size) -> np.ndarray:
    """Rectangular binary/gray dilation (morph.r_dilation)."""
    return maximum_filter(a, size)


def r_erosion(a: np.ndarray, size) -> np.ndarray:
    return minimum_filter(a, size)


def r_opening(a: np.ndarray, size) -> np.ndarray:
    return r_dilation(r_erosion(a, size), size)


def r_closing(a: np.ndarray, size) -> np.ndarray:
    return r_erosion(r_dilation(a, size), size)


def select_regions(binary: np.ndarray, f, min_v: float = 0, nbest: int = 100000) -> np.ndarray:
    """Keep components whose score f(slicepair) passes; at most nbest by
    score (morph.select_regions, ocrolib/morph.py)."""
    labels, n = label(binary)
    objects = find_objects(labels, n)
    scores = np.array([f(o) if o is not None else -np.inf for o in objects], dtype=np.float64)
    keep = np.zeros(n + 1, dtype=bool)
    order = np.argsort(-scores)
    taken = 0
    for idx in order:
        if taken >= nbest:
            break
        if scores[idx] > min_v:
            keep[idx + 1] = True
            taken += 1
    return keep[labels]


def seed_label_table(labels: np.ndarray, n: int, seeds: np.ndarray,
                     region: np.ndarray, conflict: int = 0) -> np.ndarray:
    """Per-component seed label (index = component id of ``labels``, 0..n):
    the seed under the component's first seeded pixel of ``region`` in
    row-major order, or ``conflict`` where its seeded pixels carry more
    than one distinct seed; 0 for unseeded components. ``np.unique``'s
    first-occurrence index picks the first seed, one scatter marks the
    conflicts."""
    mask = region & (seeds > 0)
    comp = labels[mask]
    sd = seeds[mask]
    first = np.zeros(n + 1, dtype=np.int64)
    ids, at = np.unique(comp, return_index=True)
    first[ids] = sd[at]
    bad = np.zeros(n + 1, dtype=bool)
    bad[comp[sd != first[comp]]] = True
    first[bad] = conflict
    return first


def propagate_labels(regions: np.ndarray, seeds: np.ndarray, conflict: int = 0) -> np.ndarray:
    """Propagate seed labels to the components of `regions` they touch;
    components touched by >1 distinct seed get `conflict`
    (morph.propagate_labels, ocrolib/morph.py:174-188)."""
    rlab, rn = label(regions)
    if rn == 0:
        return np.zeros_like(rlab)
    first = seed_label_table(rlab, rn, seeds, rlab > 0, conflict)
    return first[rlab].astype(np.int32)


def spread_labels(labels: np.ndarray, maxdist: float = 9999999) -> np.ndarray:
    """Spread labels into the background up to maxdist pixels, by iterative
    8-neighborhood dilation (reference uses an exact EDT nearest-label,
    morph.spread_labels ocrolib/morph.py:126-133; the iterative variant
    assigns by chamfer distance — ties may differ, which only affects
    pixels equidistant between two lines)."""
    lab = np.asarray(labels).astype(np.int32)
    steps = int(np.ceil(maxdist))
    ys, xs = np.nonzero(lab)
    if len(ys) == 0:
        return lab.copy()
    # the spread front advances <=1 px per step: restrict the iteration
    # to the seed bounding box padded by maxdist (page margins never
    # receive labels and would otherwise be re-scanned every step)
    h, w = lab.shape
    y0, y1 = max(0, ys.min() - steps), min(h, ys.max() + 1 + steps)
    x0, x1 = max(0, xs.min() - steps), min(w, xs.max() + 1 + steps)
    out = lab.copy()
    sub = out[y0:y1, x0:x1]
    for _ in range(steps):
        bg = sub == 0
        if not bg.any():
            break
        grown = maximum_filter(sub, 3)
        sub[bg] = grown[bg]
    return out


def keep_marked(binary: np.ndarray, markers: np.ndarray) -> np.ndarray:
    """Keep only components of binary that contain a marker pixel."""
    lab, n = label(binary)
    if n == 0:
        return np.zeros_like(binary)
    hit = np.zeros(n + 1, dtype=bool)
    ids = np.unique(lab[(markers > 0) & (lab > 0)])
    hit[ids] = True
    return (hit[lab] & (binary > 0)).astype(binary.dtype)


def remove_small_components(binary: np.ndarray, min_px: int) -> np.ndarray:
    """Drop components with fewer than min_px pixels (reference
    common.remove_noise, ocrolib/common.py:861-869)."""
    lab, n = label(binary)
    if n == 0:
        return np.asarray(binary).copy()
    counts = np.bincount(lab.ravel(), minlength=n + 1)
    keep = counts >= min_px
    keep[0] = False
    return (keep[lab]).astype(np.asarray(binary).dtype)
