"""Unit tests for the pure-python/numpy kernel library."""

import numpy as np
import pytest

from dup_ocropy_ray.functions import hashing, imgops, morph, png, sl
from dup_ocropy_ray.functions.text import normalize_text, project_text, requote


# ------------------------------------------------------------------- text


def test_normalize_text():
    assert normalize_text("  a\n b\t c ") == "a b c"
    assert normalize_text("ﬁne ﬂow") == "fine flow"
    assert normalize_text("“q”") == "''q''"
    assert normalize_text("x–y—z") == "x-y-z"


def test_project_text():
    assert project_text("a  b.C 12!", "exact") == "a b.C 12!"
    assert project_text("a b C 12!", "nospace") == "abC12!"
    assert project_text("a b-C 12!", "letdig") == "abC12"
    assert project_text("a b-C 12!", "letters") == "abC"
    assert project_text("a b-C 12!", "digits") == "12"
    assert project_text("a b-C 12!", "lnc") == "ABC"
    assert project_text(" . . . . . ", "exact") == "...."
    with pytest.raises(ValueError):
        project_text("x", "nope")


def test_requote():
    assert requote("he said ''hi''") == 'he said "hi"'


# -------------------------------------------------------------------- png


def test_png_roundtrip_gray():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(37, 53)).astype(np.uint8)
    data = png.encode_gray(img)
    back = png.decode(data)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)


def test_png_float_and_binary():
    img = np.linspace(0, 1, 100).reshape(10, 10)
    g = png.decode_gray(png.encode_gray(img))
    assert g.shape == (10, 10)
    assert abs(g[0, 0] - 0.0) < 2 / 255 and abs(g[-1, -1] - 1.0) < 2 / 255
    b = np.zeros((8, 8), dtype=np.uint8)
    b[2:6, 2:6] = 1
    back = png.decode_binary(png.encode_gray(b))
    np.testing.assert_array_equal(back, b)


def _png_filtered(img: np.ndarray, ctype: int, ftypes) -> bytes:
    """8-bit PNG whose scanline y is written with filter ftypes[y] (PNG
    spec 9.2-9.4: Sub, Up, Average, Paeth predict from the left, up and
    upper-left bytes)."""
    import struct
    import zlib

    h, w = img.shape[:2]
    bpp = 1 if img.ndim == 2 else img.shape[2]
    rows = img.reshape(h, w * bpp).astype(np.int32)
    raw = bytearray()
    for y, ft in enumerate(ftypes):
        prev = rows[y - 1] if y else np.zeros(w * bpp, np.int32)
        raw.append(ft)
        for x in range(w * bpp):
            left = int(rows[y, x - bpp]) if x >= bpp else 0
            up = int(prev[x])
            ul = int(prev[x - bpp]) if x >= bpp else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = left
            elif ft == 2:
                pred = up
            elif ft == 3:
                pred = (left + up) // 2
            else:
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
            raw.append((int(rows[y, x]) - pred) & 0xFF)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b""))


def test_png_decode_all_scanline_filters():
    """Filters 1-4, each on every scanline and mixed with filter 0: the
    all-filter-0 fast path must not stand in for the general unfilter."""
    rng = np.random.default_rng(5)
    gray = rng.integers(0, 256, size=(9, 11)).astype(np.uint8)
    rgb = rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8)
    for img, ctype in ((gray, 0), (rgb, 2)):
        h = img.shape[0]
        for ft in (1, 2, 3, 4):
            for ftypes in ([ft] * h, [0, ft] * (h // 2) + [ft] * (h % 2),
                           [0] * (h - 1) + [ft]):
                back = png.decode(_png_filtered(img, ctype, ftypes))
                np.testing.assert_array_equal(back, img)
        mixed = [(0, 1, 2, 3, 4)[y % 5] for y in range(h)]
        np.testing.assert_array_equal(
            png.decode(_png_filtered(img, ctype, mixed)), img)
        np.testing.assert_array_equal(
            png.decode(_png_filtered(img, ctype, [0] * h)), img)


# ------------------------------------------------------------------ imgops


def test_label_and_find_objects():
    a = np.zeros((10, 12), dtype=np.uint8)
    a[1:3, 1:4] = 1
    a[5:9, 6:9] = 1
    a[0, 11] = 1
    lab, n = imgops.label(a)
    assert n == 3
    assert (lab > 0).sum() == a.sum()
    objs = imgops.find_objects(lab, n)
    boxes = sorted((o[0].start, o[1].start, o[0].stop, o[1].stop) for o in objs)
    assert boxes == [(0, 11, 1, 12), (1, 1, 3, 4), (5, 6, 9, 9)]


def test_label_diagonal_not_connected():
    a = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    _, n = imgops.label(a)
    assert n == 2  # 4-connectivity


def test_uniform_and_max_filters():
    a = np.zeros((9, 9))
    a[4, 4] = 9.0
    u = imgops.uniform_filter(a, 3)
    assert abs(u[4, 4] - 1.0) < 1e-9
    assert abs(u.sum() - 9.0) < 1e-9
    m = imgops.maximum_filter(a, 3)
    assert m[3:6, 3:6].min() == 9.0 and m[0, 0] == 0.0


def test_gaussian_filter_preserves_mass_interior():
    a = np.zeros((41, 41))
    a[20, 20] = 1.0
    g = imgops.gaussian_filter(a, 2.0)
    assert abs(g.sum() - 1.0) < 1e-6
    assert g[20, 20] == g.max()


def test_zoom_and_rotate():
    a = np.zeros((20, 30))
    a[5:15, 10:20] = 1.0
    z = imgops.zoom(a, 0.5)
    assert z.shape == (10, 15)
    assert 0.1 < z.mean() / a.mean() < 2.0
    r = imgops.rotate(a, 90.0)
    assert r.shape == a.shape
    r0 = imgops.rotate(a, 0.0)
    np.testing.assert_allclose(r0, a)


def test_percentile_filter():
    rng = np.random.default_rng(1)
    a = rng.random((30, 40))
    p = imgops.percentile_filter(a, 50, (5, 5), block_rows=7)
    assert p.shape == a.shape
    # interior median of a constant patch is that constant
    b = np.full((20, 20), 3.0)
    np.testing.assert_allclose(imgops.percentile_filter(b, 80, (4, 3)), b)


# ------------------------------------------------------------------- morph


def test_morph_basics():
    a = np.zeros((12, 12), dtype=np.uint8)
    a[3:9, 3:9] = 1
    a[0, 0] = 1  # noise pixel
    opened = morph.r_opening(a.astype(float), 3)
    assert opened[0, 0] == 0 and opened[5, 5] == 1
    cleaned = morph.remove_small_components(a, 4)
    assert cleaned[0, 0] == 0 and cleaned[5, 5] == 1


def test_propagate_and_spread_labels():
    regions = np.zeros((8, 20), dtype=np.uint8)
    regions[2:6, 2:8] = 1
    regions[2:6, 12:18] = 1
    seeds = np.zeros((8, 20), dtype=np.int32)
    seeds[3, 3] = 5
    seeds[3, 13] = 9
    out = morph.propagate_labels(regions, seeds)
    assert out[4, 4] == 5 and out[4, 15] == 9 and out[0, 0] == 0
    sp = morph.spread_labels(seeds, maxdist=30)
    assert sp[3, 3] == 5 and sp[3, 13] == 9
    assert (sp > 0).all()


def test_seed_label_table_matches_row_major_walk():
    """First seed per component in row-major order, ``conflict`` where a
    component meets two distinct seeds: as a per-pixel walk finds them."""
    from dup_ocropy_ray.functions.imgops import label

    rng = np.random.default_rng(2)
    for _ in range(50):
        h, w = rng.integers(1, 30, size=2)
        regions = rng.random((h, w)) < 0.6
        seeds = (rng.integers(1, 4, size=(h, w))
                 * (rng.random((h, w)) < 0.2)).astype(np.int32)
        labels, n = label(regions)
        want = np.zeros(n + 1, dtype=np.int64)
        seen = np.zeros(n + 1, dtype=bool)
        bad = np.zeros(n + 1, dtype=bool)
        for c, s in zip(labels.ravel(), seeds.ravel()):
            if c == 0 or s == 0:
                continue
            if not seen[c]:
                seen[c], want[c] = True, s
            elif want[c] != s:
                bad[c] = True
        want[bad] = -1
        got = morph.seed_label_table(labels, n, seeds, labels > 0, conflict=-1)
        np.testing.assert_array_equal(got, want)


def test_keep_marked():
    binary = np.zeros((6, 10), dtype=np.uint8)
    binary[1:3, 1:3] = 1
    binary[4:6, 6:9] = 1
    markers = np.zeros_like(binary)
    markers[1, 1] = 1
    kept = morph.keep_marked(binary, markers)
    assert kept[1, 1] == 1 and kept[5, 7] == 0


# --------------------------------------------------------------------- sl


def test_sl_algebra():
    u = sl.box(2, 3, 6, 9)
    v = sl.box(4, 5, 10, 7)
    assert sl.area(u) == 24 and sl.dim0(u) == 4 and sl.dim1(u) == 6
    assert sl.xoverlap(u, v) == 2 and sl.yoverlap(u, v) == 2
    assert sl.raster(sl.union(u, v)) == (2, 3, 10, 9)
    assert sl.raster(sl.intersect(u, v)) == (4, 5, 6, 7)
    assert sl.before_x(sl.box(0, 0, 2, 3), sl.box(0, 5, 2, 8))
    img = np.arange(100.0).reshape(10, 10)
    c = sl.cut(img, sl.box(0, 0, 3, 3), margin=2, bg=-1)
    assert c.shape == (7, 7) and c[0, 0] == -1 and c[2, 2] == img[0, 0]


# ---------------------------------------------------------------- hashing


def test_hash_strings_stable():
    h1 = hashing.hash_strings(["abc", "def", "abc"])
    assert h1[0] == h1[2] != h1[1]
    assert h1.dtype == np.uint64


def test_minhash_jaccard_estimate():
    a, b = hashing.minhash_params(128)
    s1 = set(hashing.word_shingles("the quick brown fox jumps over the lazy dog", 2))
    s2 = set(hashing.word_shingles("the quick brown fox leaps over the lazy dog", 2))
    true_j = hashing.jaccard(s1, s2)
    h1 = hashing.minhash_signature(hashing.hash_strings(sorted(s1)), a, b)
    h2 = hashing.minhash_signature(hashing.hash_strings(sorted(s2)), a, b)
    est = (h1 == h2).mean()
    assert abs(est - true_j) < 0.2
    # identical docs -> identical signatures -> identical band keys
    assert (h1 == hashing.minhash_signature(hashing.hash_strings(sorted(s1)), a, b)).all()
    assert (hashing.minhash_bands(h1, 16) == hashing.minhash_bands(h1, 16)).all()


def test_simhash_similar_docs_close():
    t1 = "ray data streaming execution with arrow batches " * 3
    t2 = "ray data streaming execution with arrow blocks " * 3
    t3 = "completely different words about cooking pasta dinner " * 3
    d12 = hashing.hamming64(hashing.simhash64(t1), hashing.simhash64(t2))
    d13 = hashing.hamming64(hashing.simhash64(t1), hashing.simhash64(t3))
    assert d12 < d13


def test_rolling_fingerprints_overlap():
    t1 = "shared prefix of reasonable length here " * 6 + "tail one"
    t2 = "shared prefix of reasonable length here " * 6 + "other ending"
    f1 = set(hashing.rolling_fingerprints(t1, keep_mod=4).tolist())
    f2 = set(hashing.rolling_fingerprints(t2, keep_mod=4).tolist())
    assert f1 and f2 and len(f1 & f2) > 0


# ------------------------------------------------------------ gt encoding


def test_gt_explode_implode_roundtrip():
    from dup_ocropy_ray.functions.text import gt_explode, gt_implode

    assert gt_explode("abc") == ["a", "b", "c"]
    # multi-char symbol written _xx_ (ligature/digraph)
    assert gt_explode("a_ffi_b") == ["a", "ffi", "b"]
    # escaped literal underscore
    assert gt_explode("a_\001_b") == ["a", "_", "b"]
    for s in ["hello", "a_ffi_x_st_z"]:
        assert gt_implode(gt_explode(s)) == s
    assert gt_implode(["_"]) == "___"
    assert gt_implode(["a", "qu", "z"]) == "a_qu_z"
    import pytest as _pytest

    with _pytest.raises(ValueError):
        gt_implode(["toolong"])


def test_png_palette_decode():
    """Color type 3 (indexed) PNGs decode via PLTE lookup — the format the
    reference's tests/table.mask.png fixture uses."""
    import struct as _struct
    import zlib as _zlib

    idx = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)
    plte = bytes([0, 0, 0, 255, 255, 255, 255, 0, 0])  # black, white, red
    raw = b"".join(b"\x00" + row.tobytes() for row in idx)

    def chunk(tag, body):
        c = tag + body
        return _struct.pack(">I", len(body)) + c + _struct.pack(
            ">I", _zlib.crc32(c) & 0xFFFFFFFF
        )

    data = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", _struct.pack(">IIBBBBB", 3, 2, 8, 3, 0, 0, 0))
        + chunk(b"PLTE", plte)
        + chunk(b"IDAT", _zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    out = png.decode(data)
    assert out.shape == (2, 3, 3)
    np.testing.assert_array_equal(out[0, 0], [0, 0, 0])
    np.testing.assert_array_equal(out[0, 1], [255, 255, 255])
    np.testing.assert_array_equal(out[1, 0], [255, 0, 0])


def test_batch_minhash_matches_per_doc():
    """The batched reduceat signature path must equal per-doc
    minhash_signature over the same shingle-hash segments, including the
    permutation-chunked path and empty docs."""
    import numpy as np

    texts = ["the quick brown fox jumps over the lazy dog",
             "", "one two", "a b c d e f g", "single"]
    vals, offs = hashing.batch_shingle_hashes(texts, 3)
    a, b = hashing.minhash_params(64)
    sigs = hashing.batch_minhash_signatures(vals, offs, a, b)
    for i in range(len(texts)):
        seg = vals[offs[i]:offs[i + 1]]
        ref = hashing.minhash_signature(seg, a, b)
        assert (sigs[i] == ref).all(), i
    bands = hashing.batch_minhash_bands(sigs, 16)
    for i in range(len(texts)):
        assert (bands[i] == hashing.minhash_bands(sigs[i], 16)).all()
    # shingle counts: n-k+1 full shingles, one for short docs, zero empty
    assert list(np.diff(offs)) == [7, 0, 1, 5, 1]


def test_batch_minhash_empty_doc_sentinel():
    """Empty docs in a mixed batch get the all-max sentinel signature."""
    texts = ["alpha beta gamma delta epsilon zeta", "", "eta theta iota"]
    vals, offs = hashing.batch_shingle_hashes(texts, 2)
    a, b = hashing.minhash_params(32)
    sigs = hashing.batch_minhash_signatures(vals, offs, a, b)
    assert (sigs[1] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
    assert (sigs[0] == hashing.minhash_signature(vals[offs[0]:offs[1]], a, b)).all()
    assert (sigs[2] == hashing.minhash_signature(vals[offs[2]:offs[3]], a, b)).all()


def test_pyrnn_legacy_model_importer():
    """.pyrnn.gz import (reference ocrolib/common.py:430-450 format):
    synthesize the reference's SeqRecognizer object graph under the
    ocrolib.lstm module names, pickle+gzip it, and verify the restricted
    importer reconstructs a recognizer whose outputs are bit-identical
    to a native net carrying the same weights. Hostile globals must not
    execute."""
    import gzip
    import pickle
    import sys
    import types

    import numpy as np

    from dup_ocropy_ray.nn.lstm import BiLSTMRecognizer
    from dup_ocropy_ray.nn.pyrnn import load_pyrnn

    # --- mimic module with the reference's class names
    mod = types.ModuleType("ocrolib.lstm")

    def mk(name):
        cls = type(name, (), {"__module__": "ocrolib.lstm"})
        setattr(mod, name, cls)
        return cls

    LSTM, Rev, Par, Stk, Sm, Codec, SeqR = (
        mk("LSTM"), mk("Reversed"), mk("Parallel"), mk("Stacked"),
        mk("Softmax"), mk("Codec"), mk("SeqRecognizer"))
    pkg = types.ModuleType("ocrolib")
    pkg.lstm = mod
    sys.modules["ocrolib"] = pkg
    sys.modules["ocrolib.lstm"] = mod
    try:
        src = BiLSTMRecognizer(ni=8, ns=6, charset=["", "~", "a", "b"],
                               seed=42)

        def lstm_obj(layer):
            o = LSTM()
            o.WGI, o.WGF, o.WCI, o.WGO = (layer.Wi, layer.Wf, layer.Wc,
                                          layer.Wo)
            o.WIP, o.WFP, o.WOP = layer.pi, layer.pf, layer.po
            return o

        rev = Rev(); rev.net = lstm_obj(src.bwd)
        par = Par(); par.nets = (lstm_obj(src.fwd), rev)
        sm = Sm(); sm.W2 = src.out.W
        stk = Stk(); stk.nets = [par, sm]
        codec = Codec()
        codec.code2char = {0: "", 1: "~", 2: "a", 3: "b"}
        rec = SeqR(); rec.lstm = stk; rec.codec = codec; rec.Ni = 8
        blob = gzip.compress(pickle.dumps(rec, protocol=2))
    finally:
        del sys.modules["ocrolib.lstm"]
        del sys.modules["ocrolib"]

    net = load_pyrnn(blob)
    assert net.ni == 8 and net.ns == 6
    assert net.codec.size() == 4
    rng = np.random.default_rng(0)
    xs = rng.random((37, 8))
    np.testing.assert_array_equal(src.forward(xs), net.forward(xs))
    assert net.predict_string(xs) == src.predict_string(xs)

    # hostile global (os.system REDUCE): resolves to an inert shim class
    # whose instantiation never runs the named callable
    payload = b"cos\nsystem\n(S'echo pwned'\ntR."
    import subprocess  # noqa: F401  (nothing to spawn; marker import)
    try:
        load_pyrnn(gzip.compress(payload))
        raised = False
    except Exception:
        raised = True
    assert raised  # not a SeqRecognizer graph -> rejected, not executed
