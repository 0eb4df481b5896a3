"""Stage-kernel tests: binarize, segment, lineest (no Ray needed)."""

import numpy as np
import pytest

from dup_ocropy_ray.functions import png
from dup_ocropy_ray.sources import glyphs
from dup_ocropy_ray.sources.fixtures import build_corpus, training_lines
from dup_ocropy_ray.stages.binarize import binarize_page, check_page, normalize_raw_image
from dup_ocropy_ray.stages.lineest import check_line, normalize_line
from dup_ocropy_ray.stages.segment import (
    estimate_scale,
    reading_order,
    segment_page,
    topsort,
)

LINES = ["the quick brown fox", "pack my box with", "five dozen jugs", "of liquid here"]


@pytest.fixture(scope="module")
def page():
    return glyphs.render_page(LINES)


@pytest.fixture(scope="module")
def binarized(page):
    return binarize_page(page)


def test_normalize_raw_image():
    assert normalize_raw_image(np.zeros((5, 5))) is None
    out = normalize_raw_image(np.array([[0.2, 0.8]]))
    assert out.min() == 0.0 and out.max() == 1.0


def test_check_page_guards():
    ok = np.zeros((700, 700))
    ok[100:110, 100:200] = 1.0
    assert check_page(ok) == ""
    assert "not tall enough" in check_page(np.zeros((100, 700)))
    assert "too tall" in check_page(np.zeros((10001, 700)))


def test_binarize_clean_page_preserves_ink(page, binarized):
    r = binarized
    assert r["status"] == ""
    ink_raw = (page < 0.5).mean()
    ink_bin = (r["bin"] == 0).mean()
    assert abs(ink_raw - ink_bin) < 0.005
    assert r["nrm"].shape == page.shape


def test_binarize_small_page_skips():
    small = np.ones((120, 200))
    small[40:60, 40:120] = 0.0
    assert "not tall enough" in binarize_page(small)["status"]


def test_segment_finds_lines_in_reading_order(page, binarized):
    r = segment_page(binarized["bin"])
    assert r["status"] == ""
    assert len(r["lines"]) == len(LINES)
    orders = [l["order"] for l in r["lines"]]
    assert orders == sorted(orders) == list(range(len(LINES)))
    tops = [l["y0"] for l in sorted(r["lines"], key=lambda l: l["order"])]
    assert tops == sorted(tops)  # single column: reading order == top-down


def test_segment_line_images_decode(page, binarized):
    r = segment_page(binarized["bin"])
    for l in r["lines"]:
        img = png.decode_gray(l["png"])
        assert img.shape[0] >= 20 and img.shape[1] > img.shape[0]
        assert (img < 0.5).sum() > 50  # has ink


def test_segment_rejects_blank_page():
    blank = np.ones((700, 700), dtype=np.uint8)
    r = segment_page(blank)
    assert r["status"] != "" and r["lines"] == []


def test_estimate_scale_on_glyph_page(binarized):
    ink = (1 - binarized["bin"]).astype(np.uint8)
    s = estimate_scale(ink)
    assert 12 < s < 40


def test_reading_order_two_columns():
    # two columns: left column lines 0,1; right column lines 2,3
    b = [
        (slice(0, 10), slice(0, 40)),
        (slice(20, 30), slice(0, 40)),
        (slice(0, 10), slice(60, 100)),
        (slice(20, 30), slice(60, 100)),
    ]
    order = reading_order(b)
    seq = topsort(order)
    # column-major: 0,1 then 2,3
    assert seq.index(0) < seq.index(1)
    assert seq.index(2) < seq.index(3)
    assert seq.index(0) < seq.index(2)


def test_normalize_line_height():
    img = glyphs.render_line("hello world")
    norm = normalize_line(img)
    assert norm.shape[0] == 48
    assert norm.shape[1] > 48
    # still white-background
    assert norm.mean() > 0.5


def test_check_line_guards():
    line = glyphs.render_line("hello world")
    ink = np.amax(line) - line
    assert check_line(ink) == ""
    assert "not tall enough" in check_line(np.zeros((10, 100)) + (np.arange(100) % 2))
    wide = np.zeros((30, 4500))
    wide[10:20, ::10] = 1
    assert "too wide" in check_line(wide)


def test_build_corpus_shapes(tmp_path):
    paths = build_corpus(str(tmp_path), num_docs=4, seed=1, skew_doc_pages=2)
    import pyarrow.parquet as pq

    docs = pq.read_table(paths["docs"])
    media = pq.read_table(paths["media"])
    gt = pq.read_table(paths["groundtruth"])
    assert docs.num_rows == 4
    # pages: 2 (skew doc) + 1 + 1 + 3 (edge doc: small + masked 2-col +
    # skewed); media additionally carries the ".mask" sibling entry
    assert paths["num_pages"] == 7
    assert media.num_rows == 8
    # edge-case doc's SMALL page has no gt lines; masked page has 6,
    # skewed page 4
    gt_edge = gt.to_pandas().query("doc_id == 'doc-000003'")
    assert len(gt_edge) == 10
    assert set(gt_edge["media_ref"].str.split("/").str[-1]) == {
        "page-mask.png", "page-skewed.png"}
    # deterministic: same seed -> same bytes
    paths2 = build_corpus(str(tmp_path / "again"), num_docs=4, seed=1, skew_doc_pages=2)
    media2 = pq.read_table(paths2["media"])
    assert media.column("bytes").to_pylist() == media2.column("bytes").to_pylist()


def test_training_lines_deterministic():
    a = training_lines(num=5, seed=3)
    b = training_lines(num=5, seed=3)
    assert [t for t, _ in a] == [t for t, _ in b]
    assert all((x == y).all() for (_, x), (_, y) in zip(a, b))


def test_page_segmentation_png_roundtrip():
    """S5/G14: pseg serialized in the reference's RGB convention —
    labels 0x010000+(rank+1) in reading order, white disk background."""
    import numpy as np

    from dup_ocropy_ray.functions import png
    from dup_ocropy_ray.sources.glyphs import render_page
    from dup_ocropy_ray.stages.segment import segment_page

    page = render_page(["the quick brown fox jumps", "over the lazy dog today",
                        "pack my box with five dozen", "liquor jugs and words"])
    r = segment_page((page > 0.5).astype(np.uint8), keep_pseg=True)
    assert r["status"] == ""
    seg = png.decode_segmentation(r["pseg_png"])
    labs = sorted(set(seg.ravel()) - {0})
    assert labs == [0x010000 + i + 1 for i in range(len(r["lines"]))]
    # white background on disk maps back to 0 in memory
    rgb = png.decode(r["pseg_png"])
    assert (rgb[0, 0] == 255).all()
    assert (png.decode_segmentation(png.encode_segmentation(seg)) == seg).all()


def test_recognizer_text_quality():
    """End-to-end text quality gate on rendered lines: mean CER vs the
    rendered ground truth must stay low. Guards against silent model /
    normalization drift (blank predictions pass all structural checks)."""
    import numpy as np
    import pyarrow as pa

    from dup_ocropy_ray.functions import png
    from dup_ocropy_ray.functions.edist import levenshtein
    from dup_ocropy_ray.sources.glyphs import render_line
    from dup_ocropy_ray.stages.recognize import LineRecognizer

    texts = [
        "the fast key order sort",
        "pack my box with five dozen",
        "window small hash scan",
        "data slow small filter",
    ]
    rec = LineRecognizer()
    b = pa.table({"line_png": pa.array(
        [png.encode_gray(render_line(t)) for t in texts], pa.binary())})
    out = rec(b)
    preds = out.column("text").to_pylist()
    assert all(s == "ok" for s in out.column("rec_status").to_pylist())
    errs = sum(levenshtein(p, t) for p, t in zip(preds, texts))
    total = sum(len(t) for t in texts)
    cer = errs / total
    # page-extracted crops (the pipeline's real input) measure ~0.00 CER;
    # clean rendered lines measured ~0.011 after the rare-char training
    # pool (random-char words cover x/z beside arbitrary neighbors) —
    # gate at 0.02 (~2x margin), the bar VERDICT r1 asked for
    assert cer < 0.02, (cer, preds)


def test_apply_mask_splits_columns(binarized):
    """G7 apply_mask: a bright separator stripe through the text splits
    each line at the stripe and reorders column-major (reference
    ocropus-gpageseg:268-276)."""
    r0 = segment_page(binarized["bin"])
    n0 = len(r0["lines"])
    mask = np.zeros_like(binarized["bin"])
    mask[:, 197:203] = 1
    r1 = segment_page(binarized["bin"], mask=mask)
    assert len(r1["lines"]) == 2 * n0
    # column-major: first half of the orders all left of the stripe
    ordered = sorted(r1["lines"], key=lambda l: l["order"])
    assert all(l["x1"] <= 203 for l in ordered[:n0])
    assert all(l["x0"] >= 197 for l in ordered[n0:])


def test_training_lines_from_pages_match_render():
    """Page-extracted training crops align with their gt text and carry
    the extraction chain's conventions (white=1 background, float)."""
    from dup_ocropy_ray.sources.fixtures import training_lines_from_pages

    pairs = training_lines_from_pages(num_pages=6, seed=11)
    assert len(pairs) >= 10
    for text, img in pairs:
        assert text and img.ndim == 2
        assert img.max() <= 1.0 and img.min() >= 0.0
        assert img.mean() > 0.5  # mostly white background
    # deterministic
    pairs2 = training_lines_from_pages(num_pages=6, seed=11)
    assert [t for t, _ in pairs] == [t for t, _ in pairs2]


def test_recognizer_llocs():
    """R8 side outputs (.llocs/.prob analogues): per-char positions are
    monotone in raw line pixels, probs in [0,1], chars match the raw
    decode (reference ocropus-rpred:170-203)."""
    import pyarrow as pa

    from dup_ocropy_ray.stages.recognize import LineRecognizer

    rec = LineRecognizer(keep_llocs=True)
    texts = ["the fast key order sort", "window small hash scan"]
    b = pa.table({"line_png": pa.array(
        [png.encode_gray(glyphs.render_line(t)) for t in texts], pa.binary())})
    out = rec(b)
    for i, t in enumerate(texts):
        ll = out.column("llocs")[i].as_py()
        assert len(ll) >= len(t) - 3
        xs = [e["x"] for e in ll]
        assert xs == sorted(xs)
        assert all(0.0 <= e["prob"] <= 1.0 for e in ll)
        # first emission lands within the first couple of glyphs
        assert 0 <= xs[0] < 45


def test_aligned_locs_match_gt():
    """Alocs (gt-aligned CTC locations): alignment emits exactly the gt
    characters in order with monotone positions — even where the free
    decode might err (reference ocropus-rpred:183-196)."""
    import pyarrow as pa

    from dup_ocropy_ray.stages.recognize import AlignedLocs

    gt = "pack my box with five dozen"
    b = pa.table({
        "line_png": pa.array([png.encode_gray(glyphs.render_line(gt))], pa.binary()),
        "gt_text": pa.array([gt], pa.string()),
    })
    out = AlignedLocs()(b)
    al = out.column("alocs")[0].as_py()
    # alignment reproduces the gt char sequence (spaces usually align to
    # blank, so compare the non-space sequence)
    want = [c for c in gt if c != " "]
    got = [e["ch"] for e in al if e["ch"] != " "]
    assert got == want, (got, want)
    xs = [e["x"] for e in al]
    assert xs == sorted(xs)


# --------------------------------------------------------- stage registry


def test_registry_composes_named_stages(ray_session):
    """SURVEY §2.7 extension surface: pipelines as data — a registry
    chain must equal calling the stage functions directly."""
    import pandas as pd
    import numpy as np
    import ray.data as rd

    from dup_ocropy_ray.pipelines.extract import extract_docs
    from dup_ocropy_ray.stages.registry import (
        apply_stages,
        get_stage,
        register_stage,
        registered_stages,
    )

    assert {"nlbin", "gpageseg", "rpred", "html-extract",
            "pdf-extract"} <= set(registered_stages())
    df = pd.DataFrame({"doc_id": np.arange(5, dtype="int64"),
                       "text": [f"w{j} " * (4 + j) for j in range(5)]})
    ds = rd.from_pandas(df)
    via_registry = (apply_stages(ds, ["web-wrap", "html-extract"])
                    .to_pandas().sort_values("doc_id").reset_index(drop=True))
    direct = (extract_docs(rd.from_pandas(df)).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(via_registry, direct)

    try:
        get_stage("no-such-stage")
        assert False, "unknown stage must raise"
    except KeyError as e:
        assert "registered" in str(e)

    # set_params equivalent: kwargs bind to the UDF
    @register_stage("add-col", batch_format="pandas")
    def add_col(b, value=0):
        return b.assign(extra=value)

    out = apply_stages(ds, [("add-col", {"value": 7})]).to_pandas()
    assert (out["extra"] == 7).all()


def test_read_docs_jsonl(ray_session, tmp_path):
    import json

    from dup_ocropy_ray.pipelines.ocr import read_docs

    p = tmp_path / "docs.jsonl"
    with open(p, "w") as f:
        for i in range(7):
            f.write(json.dumps({"doc_id": i, "text": f"line {i}"}) + "\n")
    ds = read_docs(str(p))
    got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == 7 and got["text"].iloc[3] == "line 3"


def reassemble_group(g):
    """Serial per-doc reassembly spec: the doc's spans in offset order,
    each media span followed by its page's ok lines in line_order, with
    the doc's counters."""
    import pyarrow as pa

    from dup_ocropy_ray.stages.reassemble import OUT_SCHEMA

    doc_id = g["doc_id"].iloc[0]
    spans = g[g.rowtype == "span"].sort_values("span_offset")
    lines = g[g.rowtype == "line"]
    pages = g[g.rowtype == "page"]
    page_status = dict(zip(pages["span_offset"], pages["status"]))
    out = []
    n_lines = 0
    chars = 0
    low_conf = 0
    n_pages = 0
    n_skipped = 0
    for _, s in spans.iterrows():
        out.append(
            {
                "kind": s["kind"],
                "text": s["text"],
                "media_ref": s["media_ref"],
                "offset": len(out),
            }
        )
        if s["kind"] == "media":
            n_pages += 1
            if page_status.get(s["span_offset"], "ok") != "ok":
                n_skipped += 1
            mine = lines[lines.span_offset == s["span_offset"]].sort_values(
                "line_order"
            )
            for _, l in mine.iterrows():
                if l["status"] != "ok":
                    continue
                out.append(
                    {
                        "kind": "text",
                        "text": l["text"],
                        "media_ref": None,
                        "offset": len(out),
                    }
                )
                n_lines += 1
                chars += len(l["text"] or "")
                if l["confidence"] < 0.6:
                    low_conf += 1
    return pa.Table.from_pylist(
        [
            {
                "doc_id": doc_id,
                "spans": out,
                "n_pages": n_pages,
                "n_lines": n_lines,
                "n_skipped_pages": n_skipped,
                "chars_decoded": chars,
                "low_confidence_lines": low_conf,
            }
        ],
        schema=OUT_SCHEMA,
    )


def test_reassemble_partition_matches_group_spec():
    """Vectorized partition reassembly == per-doc reference spec
    (reassemble_group) on a frame exercising every edge: skipped pages,
    non-ok lines, text spans between pages, docs with only page rows."""
    import pandas as pd
    import pyarrow as pa

    from dup_ocropy_ray.stages.reassemble import (
        OUT_SCHEMA,
        reassemble_partition,
    )

    def row(doc, rowtype, kind=None, text=None, media_ref=None,
            span_offset=0, line_order=-1, status="ok", confidence=1.0):
        return dict(doc_id=doc, rowtype=rowtype, kind=kind, text=text,
                    media_ref=media_ref, span_offset=span_offset,
                    line_order=line_order, status=status,
                    confidence=confidence)

    rows = [
        # doc a: text span, media page with 2 ok lines (one low-conf) +
        # 1 failed line, another text span, then a SKIPPED media page
        row("a", "span", "text", "intro", None, 0),
        row("a", "span", "media", None, "m1", 1),
        row("a", "line", "text", "l one", "m1", 1, 0, "ok", 0.9),
        row("a", "line", "text", "l two", "m1", 1, 1, "ok", 0.3),
        row("a", "line", "text", "bad", "m1", 1, 2, "seg_fail", 0.9),
        row("a", "span", "text", "middle", None, 2),
        row("a", "span", "media", None, "m2", 3),
        row("a", "page", "media", None, "m2", 3, -1, "too_few_lines"),
        # doc b: only a page-status row (no spans at all)
        row("b", "page", "media", None, "m9", 0, -1, "decode_error"),
        # doc c: one media page, ok status row, one line
        row("c", "span", "media", None, "m3", 0),
        row("c", "page", "media", None, "m3", 0, -1, "ok"),
        row("c", "line", "text", "ccc", "m3", 0, 0, "ok", 0.7),
    ]
    g = pd.DataFrame(rows)

    got = reassemble_partition(g)
    want = pa.concat_tables(
        [reassemble_group(doc) for _, doc in g.groupby("doc_id", sort=True)])
    assert got.schema.equals(OUT_SCHEMA)
    assert got.to_pylist() == want.to_pylist()
