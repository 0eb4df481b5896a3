"""Property-based tests for the numpy filter kernels: each optimized
implementation (window-doubling max, cumsum mean, box-cascade gaussian,
run-based labeling) must agree with the obvious brute-force definition."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dup_ocropy_ray.functions import imgops

_imgs = arrays(
    np.float32,
    st.tuples(st.integers(1, 23), st.integers(1, 23)),
    elements=st.floats(0, 1, width=32),
)


def _brute_max1d(a, size, axis):
    lo = size // 2
    hi = size - 1 - lo
    out = np.empty_like(a)
    n = a.shape[axis]
    am = np.moveaxis(a, axis, 0)
    om = np.moveaxis(out, axis, 0)
    for i in range(n):
        s = slice(max(0, i - lo), min(n, i + hi + 1))
        om[i] = am[s].max(axis=0)
    return out


_max_dtypes = st.sampled_from([np.float32, np.uint8, np.bool_, np.int32])


@settings(max_examples=120, deadline=None)
@given(_imgs, _max_dtypes, st.floats(0, 1), st.integers(0, 1))
def test_maximum_filter1d_matches_bruteforce(a, dtype, frac, axis):
    # integer and bool pages as the segmenter passes them; windows from 1
    # up to 2n+1, wider than the axis on both sides
    a = (a * 255).astype(dtype) if dtype != np.bool_ else a > 0.5
    size = 1 + int(frac * 2 * a.shape[axis])
    got = imgops.maximum_filter1d(a, size, axis)
    want = _brute_max1d(a, size, axis)
    assert got.dtype == a.dtype
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(_imgs, st.integers(1, 7), st.integers(0, 1))
def test_uniform_filter1d_matches_bruteforce(a, size, axis):
    lo = size // 2
    hi = size - 1 - lo
    n = a.shape[axis]
    am = np.moveaxis(np.asarray(a, np.float64), axis, 0)
    want = np.empty_like(am)
    for i in range(n):
        # edge-replicate padding semantics
        idx = np.clip(np.arange(i - lo, i + hi + 1), 0, n - 1)
        want[i] = am[idx].mean(axis=0)
    got = np.moveaxis(imgops.uniform_filter1d(a, size, axis), axis, 0)
    assert np.allclose(got, want, atol=1e-4)


def _brute_label(b):
    """Flood-fill 4-connected labeling."""
    h, w = b.shape
    lab = np.zeros((h, w), dtype=np.int32)
    nxt = 0
    for y in range(h):
        for x in range(w):
            if b[y, x] and lab[y, x] == 0:
                nxt += 1
                stack = [(y, x)]
                while stack:
                    cy, cx = stack.pop()
                    if cy < 0 or cy >= h or cx < 0 or cx >= w:
                        continue
                    if not b[cy, cx] or lab[cy, cx]:
                        continue
                    lab[cy, cx] = nxt
                    stack += [(cy + 1, cx), (cy - 1, cx), (cy, cx + 1), (cy, cx - 1)]
    return lab, nxt


@settings(max_examples=60, deadline=None)
@given(arrays(np.bool_, st.tuples(st.integers(1, 16), st.integers(1, 16))))
def test_label_matches_floodfill(b):
    got, n_got = imgops.label(b)
    want, n_want = _brute_label(b)
    assert n_got == n_want
    # same partition: components must map 1:1 (labels may be permuted)
    if n_got:
        mapping = {}
        for g, w in zip(got.ravel(), want.ravel()):
            assert (g == 0) == (w == 0)
            if g:
                assert mapping.setdefault(g, w) == w
        assert len(set(mapping.values())) == len(mapping)


def _label_runs_py(binary: np.ndarray) -> tuple[np.ndarray, int]:
    """Sequential run-based union-find labeling — the implementation
    ``imgops.label`` vectorized, kept here as its bit-exactness
    reference."""
    b = np.asarray(binary) != 0
    h, w = b.shape
    labels = np.zeros((h, w), dtype=np.int32)
    if not b.any():
        return labels, 0
    # bulk run extraction: one diff over the zero-padded image
    bp = np.zeros((h, w + 2), dtype=np.int8)
    bp[:, 1:-1] = b
    d = np.diff(bp, axis=1)
    sy, sx = np.nonzero(d == 1)  # run starts (col index in original coords)
    ey, ex = np.nonzero(d == -1)  # run ends (exclusive)
    # starts/ends are row-major sorted and pair up 1:1 within each row
    row_first = np.searchsorted(sy, np.arange(h), side="left")
    row_last = np.searchsorted(sy, np.arange(h), side="right")
    parent: list[int] = [0]  # union-find; 0 = background

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    sx_l = sx.tolist()
    ex_l = ex.tolist()
    run_label = [0] * len(sx_l)
    prev_lo = prev_hi = 0  # run index range of the previous row
    for y in range(h):
        lo, hi = int(row_first[y]), int(row_last[y])
        if lo == hi:
            prev_lo = prev_hi = lo
            continue
        pi = prev_lo
        for r in range(lo, hi):
            s = sx_l[r]
            e = ex_l[r]
            lab = 0
            while pi < prev_hi and ex_l[pi] <= s:
                pi += 1
            pj = pi
            while pj < prev_hi and sx_l[pj] < e:
                plab = find(run_label[pj])
                if lab == 0:
                    lab = plab
                elif plab != lab:
                    parent[max(plab, lab)] = min(plab, lab)
                    lab = min(plab, lab)
                pj += 1
            if lab == 0:
                parent.append(len(parent))
                lab = len(parent) - 1
            run_label[r] = lab
            labels[y, s:e] = lab
        prev_lo, prev_hi = lo, hi
    # flatten + renumber densely
    n = len(parent)
    roots = np.zeros(n, dtype=np.int32)
    for i in range(1, n):
        roots[i] = find(i)
    uniq = np.unique(roots[1:]) if n > 1 else np.array([], dtype=np.int32)
    remap = np.zeros(n, dtype=np.int32)
    remap[uniq] = np.arange(1, len(uniq) + 1, dtype=np.int32)
    dense = remap[roots]
    dense[0] = 0
    labels = dense[labels]
    return labels, int(len(uniq))


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.bool_, st.tuples(st.integers(1, 40), st.integers(1, 40))),
)
def test_label_bit_exact_vs_sequential_unionfind(b):
    """The vectorized searchsorted+pointer-jumping labeling must return
    the IDENTICAL label image (not just the same partition) as the
    sequential run-based union-find it replaced."""
    got, n_got = imgops.label(b)
    want, n_want = _label_runs_py(b)
    assert n_got == n_want
    assert np.array_equal(got, want)


def test_label_bit_exact_dense_random():
    rng = np.random.default_rng(7)
    for density in (0.1, 0.45, 0.6, 0.9):
        b = rng.random((120, 83)) < density
        got, n_got = imgops.label(b)
        want, n_want = _label_runs_py(b)
        assert n_got == n_want and np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(_imgs, st.floats(0.5, 30.0))
def test_box_gaussian_preserves_mass_and_range(a, sigma):
    out = imgops.box_gaussian_filter1d(a, sigma, 0)
    assert out.shape == a.shape
    assert out.min() >= -1e-4 and out.max() <= 1 + 1e-4


@settings(max_examples=30, deadline=None)
@given(_imgs, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
def test_rotate_rowmeans_matches_rotate(a, angles):
    if a.shape[0] < 2 or a.shape[1] < 2:
        return
    got = imgops.rotate_rowmeans(a, angles, cval=1.0)
    for ang, m in zip(angles, got):
        want = imgops.rotate(a, ang, cval=1.0, order=0).mean(axis=1)
        np.testing.assert_array_equal(m, want)
