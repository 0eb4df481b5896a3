"""End-to-end Ray pipeline tests: structure, skip accounting, resume."""

import os

import pyarrow.parquet as pq
import pytest

import ray


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from dup_ocropy_ray.sources.fixtures import build_corpus

    root = tmp_path_factory.mktemp("pipecorpus")
    return build_corpus(str(root), num_docs=6, seed=42, skew_doc_pages=3)


def test_ocr_pipeline_structure(ray_session, corpus):
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    out = ocr_pipeline(docs, media_ref).to_pandas()
    assert len(out) == 6
    byid = out.set_index("doc_id")
    # skew doc fans out to 3 pages
    assert byid.loc["doc-000000", "n_pages"] == 3
    # edge-case doc: small page skipped; the masked two-column page (G7)
    # yields its 6 lines and the skewed page (B4) its 4
    assert byid.loc["doc-000005", "n_skipped_pages"] == 1
    assert byid.loc["doc-000005", "n_lines"] == 10
    # spans structure: first span is the passthrough title, then media
    spans = byid.loc["doc-000001", "spans"]
    assert spans[0]["kind"] == "text" and spans[0]["text"].startswith("title of")
    assert spans[1]["kind"] == "media"
    # offsets are the 0..n-1 output order
    assert [s["offset"] for s in spans] == list(range(len(spans)))
    # every line span follows its page's media span
    kinds = [s["kind"] for s in spans]
    assert kinds.count("media") == 1


def test_ocr_line_counts_match_groundtruth(ray_session, corpus):
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    gt = pq.read_table(corpus["groundtruth"]).to_pandas()
    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    out = ocr_pipeline(docs, media_ref).to_pandas()
    n_gt = gt.groupby("doc_id").size()
    for _, row in out.iterrows():
        want = int(n_gt.get(row["doc_id"], 0))
        assert row["n_lines"] == want, (row["doc_id"], row["n_lines"], want)


def _span_seqs(df) -> dict:
    return {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                          for s in r["spans"]]
            for _, r in df.iterrows()}


def test_ocr_output_blocks_are_arrow(ray_session, fixture_corpus):
    """Every output block of the flagship and of the hOCR sink is an
    Arrow table, including the empty ones that the per-bucket shuffle
    emits for empty hash buckets (6 docs over 32 buckets), so the blocks
    concatenate as Arrow. Ray builds an empty block without columns
    where it never calls the bucket UDF, hence the schema promotion."""
    import pyarrow as pa

    from dup_ocropy_ray.pipelines.ocr import ocr_hocr, ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    media_ref = put_media_store(fixture_corpus["media"])
    for sink in (ocr_pipeline, ocr_hocr):
        out = sink(read_docs(fixture_corpus["docs"]), media_ref).materialize()
        blocks = ray.get(out.to_arrow_refs())
        assert all(isinstance(b, pa.Table) for b in blocks), \
            (sink.__name__, sorted({type(b).__name__ for b in blocks}))
        tbl = pa.concat_tables(blocks, promote_options="default")
        assert tbl.num_rows == out.count() > 0, sink.__name__


_FRESH_SESSION_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[3]),
         object_store_memory=200 << 20,
         include_dashboard=False, logging_level="ERROR")
try:
    import ray.data as rd
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store
    media = (rd.read_parquet(sys.argv[2]) if sys.argv[4] == "dataset"
             else put_media_store(sys.argv[2]))
    df = ocr_pipeline(read_docs(sys.argv[1]), media).to_pandas()
    print(json.dumps([(r["doc_id"], [dict(s) for s in r["spans"]])
                      for _, r in df.iterrows()]))
finally:
    ray.shutdown()
"""


def _run_in_fresh_session(corpus, num_cpus: int, media: str):
    """ocr_pipeline with default arguments in its own Ray session of
    ``num_cpus`` CPUs, ``media`` "broadcast" or "dataset"; the process
    group is killed after 120 s. Returns the (doc_id, spans) frame."""
    import json
    import signal
    import subprocess
    import sys

    import pandas as pd

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FRESH_SESSION_RUN, corpus["docs"],
         corpus["media"], str(num_cpus), media],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"ocr_pipeline with {media} media did not finish "
                    f"within 120 s at num_cpus={num_cpus}")
    assert proc.returncode == 0, err[-2000:]
    return pd.DataFrame(json.loads(out.strip().splitlines()[-1]),
                        columns=["doc_id", "spans"])


def test_ocr_pipeline_finishes_on_one_cpu(ray_session, corpus):
    """With a single Ray CPU no stage may hold the CPU the others need:
    ocr_pipeline with default arguments finishes in its own 1-CPU Ray
    session and yields the same span sequence as in the test session."""
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    one_cpu = _run_in_fresh_session(corpus, 1, "broadcast")
    ref = ocr_pipeline(read_docs(corpus["docs"]),
                       put_media_store(corpus["media"])).to_pandas()
    assert len(one_cpu) == 6
    assert _span_seqs(one_cpu) == _span_seqs(ref)


@pytest.mark.parametrize("num_cpus", [2, 4])
def test_ocr_pipeline_media_dataset_finishes(ray_session, corpus, num_cpus):
    """A media Dataset at default arguments resolves in a bounded time
    at 2 and 4 CPUs (the former two hash joins reserved aggregator
    memory by partition count and hung there), with the span sequence
    of the broadcast path."""
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    out = _run_in_fresh_session(corpus, num_cpus, "dataset")
    ref = ocr_pipeline(read_docs(corpus["docs"]),
                       put_media_store(corpus["media"])).to_pandas()
    assert len(out) == 6
    assert _span_seqs(out) == _span_seqs(ref)


def test_fragment_plan_mode_guards(tmp_path):
    """A checkpoint produced under one fragmentation scheme must not be
    silently reinterpreted under another — committed doc-hash manifests
    counted as file-group fragments would skip/duplicate documents."""
    import pyarrow as pa

    from dup_ocropy_ray.pipelines.ocr import fragment_plan
    from dup_ocropy_ray.state import checkpoint as ckpt

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"doc_id": pa.array([f"d{i}"])}),
                       str(docs_dir / f"part-{i}.parquet"))
    single = tmp_path / "single.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(["d0"])}), str(single))

    # 1. multi-file input, manifests but no plan (pre-plan checkpoint)
    out1 = str(tmp_path / "out1")
    os.makedirs(out1)
    ckpt.commit_fragment(out1, 0, {"docs": 1})
    with pytest.raises(RuntimeError, match="different fragmentation"):
        fragment_plan(str(docs_dir), 2, out_root=out1)

    # 2. multi-file input resuming a doc_hash-planned checkpoint
    out2 = str(tmp_path / "out2")
    nfrag, _ = fragment_plan(str(single), 4, out_root=out2)
    assert nfrag == 4
    with pytest.raises(RuntimeError, match="file groups"):
        fragment_plan(str(docs_dir), 2, out_root=out2)

    # 3. single-file input resuming a file-group-planned checkpoint
    out3 = str(tmp_path / "out3")
    nfrag, _ = fragment_plan(str(docs_dir), 2, out_root=out3)
    assert nfrag == 2
    with pytest.raises(RuntimeError, match="doc_hash"):
        fragment_plan(str(single), 4, out_root=out3)

    # 4. doc_hash resume must keep the planned fragment count
    with pytest.raises(RuntimeError, match="doc_hash"):
        fragment_plan(str(single), 8, out_root=out2)
    nfrag, _ = fragment_plan(str(single), 4, out_root=out2)  # same: ok
    assert nfrag == 4

    # 5. single-file input, manifests but no plan
    out5 = str(tmp_path / "out5")
    os.makedirs(out5)
    ckpt.commit_fragment(out5, 0, {"docs": 1})
    with pytest.raises(RuntimeError, match="predates plan pinning"):
        fragment_plan(str(single), 4, out_root=out5)


def test_checkpoint_resume(ray_session, corpus, tmp_path):
    from dup_ocropy_ray.pipelines.ocr import run_ocr_with_checkpoint
    from dup_ocropy_ray.state import checkpoint as ckpt

    out_root = str(tmp_path / "out")
    r1 = run_ocr_with_checkpoint(
        corpus["docs"], corpus["media"], out_root, num_fragments=2,
    )
    assert sorted(r1["fragments_run"]) == [0, 1]
    assert ckpt.pending_fragments(out_root, 2) == []
    c = r1["counters"]
    assert c["docs"] == 6 and c["pages"] == 10 and c["skipped_pages"] == 1
    # rerun: nothing pending, counters unchanged
    r2 = run_ocr_with_checkpoint(
        corpus["docs"], corpus["media"], out_root, num_fragments=2,
    )
    assert r2["fragments_run"] == []
    assert r2["counters"] == c
    # simulate kill: delete one manifest -> only that fragment reruns
    os.remove(os.path.join(out_root, "_manifest", "00001.json"))
    r3 = run_ocr_with_checkpoint(
        corpus["docs"], corpus["media"], out_root, num_fragments=2,
    )
    assert r3["fragments_run"] == [1]
    assert r3["counters"] == c


def test_gtedit_roundtrip(ray_session, corpus):
    """Correction-HTML sink and its inverse parser (S10): every ok line's
    PNG and transcript survive the HTML round trip."""
    from dup_ocropy_ray.pipelines.ocr import ocr_correction_html, read_docs
    from dup_ocropy_ray.sources.media import put_media_store
    from dup_ocropy_ray.stages.gtedit import extract_correction_html

    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    out = ocr_correction_html(docs, media_ref).to_pandas()
    assert len(out) >= 4  # docs with at least one recognized line
    total = 0
    for _, row in out.iterrows():
        recs = extract_correction_html(row["html"])
        assert recs, row["doc_id"]
        for r in recs:
            assert r["png"][:4] == b"\x89PNG"
            assert "#" in r["line_id"]
        total += len(recs)
    assert total > 10


def test_ocr_pipeline_media_join_mode(ray_session, corpus):
    """Full pipeline with the 100TB-path media resolution: a media
    Dataset resolved in one shuffle instead of the broadcast store.
    Every output value matches the broadcast run: span sequences and
    all counters (the corpus's masked page locks mask parity)."""
    import pandas as pd
    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    docs = read_docs(corpus["docs"])
    media_ds = rd.read_parquet(corpus["media"])
    out = ocr_pipeline(docs, media_ds).to_pandas()
    bref = put_media_store(corpus["media"])
    ref = ocr_pipeline(docs, bref).to_pandas()
    a = out.set_index("doc_id").sort_index()
    b = ref.set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_dewarp_line_stats_media_join(ray_session, corpus):
    """The dewarp tool shares the OCR front half, so a media Dataset
    (one-shuffle resolution) gives the same line geometry as the
    broadcast store."""
    import pandas as pd
    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import dewarp_line_stats, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    def run(media):
        out = dewarp_line_stats(read_docs(corpus["docs"]), media).to_pandas()
        return out.sort_values(["doc_id", "media_ref", "line_order"]) \
            .reset_index(drop=True)

    via_join = run(rd.read_parquet(corpus["media"]))
    via_broadcast = run(put_media_store(corpus["media"]))
    assert len(via_broadcast) > 0
    pd.testing.assert_frame_equal(via_join, via_broadcast)


def test_media_join_path(ray_session, corpus):
    """Scale path: one shuffle of page and media rows instead of
    broadcast."""
    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import explode_media_spans, read_docs
    from dup_ocropy_ray.sources.media import resolve_media_join

    docs = read_docs(corpus["docs"])
    pages = docs.map_batches(explode_media_spans, batch_format="pyarrow")
    media = rd.read_parquet(corpus["media"])
    joined = resolve_media_join(pages, media).to_pandas()
    assert len(joined) == 10
    assert joined["page_png"].map(lambda b: b[:4] == b"\x89PNG").all()


def test_debug_html_sink(ray_session, corpus):
    """S11 debug/results-browser sink: per-doc HTML with page thumbnail,
    per-line text + half-width image (reference ocropus-visualize-results)."""
    from dup_ocropy_ray.pipelines.ocr import ocr_debug_html, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    out = ocr_debug_html(docs, media_ref).to_pandas()
    assert len(out) == 6
    byid = out.set_index("doc_id")["html"]
    h = byid["doc-000001"]
    assert h.count("class='thumb'") == 1  # one page thumbnail
    assert "<font color='#000066'>" in h  # recognized text in ref style
    assert "data:image/png;base64," in h
    # skipped page surfaces its status
    assert "<font color='red'>" in byid["doc-000005"]


def test_debug_html_sink_media_dataset(ray_session, corpus):
    """With a media Dataset the debug sink runs and gives the broadcast
    run's HTML without the page thumbnails, which only the broadcast
    store provides."""
    import re

    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import ocr_debug_html, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    def run(media):
        out = ocr_debug_html(read_docs(corpus["docs"]), media).to_pandas()
        return out.set_index("doc_id")["html"].to_dict()

    via_dataset = run(rd.read_parquet(corpus["media"]))
    via_broadcast = run(put_media_store(corpus["media"]))
    assert len(via_dataset) == 6
    assert sum(h.count("class='thumb'") for h in via_broadcast.values()) > 0
    assert via_dataset == {
        d: re.sub(r"<img class='thumb' [^>]*/><br/>\n", "", h)
        for d, h in via_broadcast.items()}


def test_page_operator_runs_one_task_per_page(ray_session, corpus):
    """Dataset.stats(): the page operator runs a task for each of the
    corpus's 10 pages, with a broadcast store and with a media Dataset
    (whose exchange re-blocks the page rows). Tasks that carried two
    pages would leave fewer tasks than pages; an empty block from the
    repartition can add one task."""
    import re

    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import ocr_recognized_lines, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    for media in (put_media_store(corpus["media"]),
                  rd.read_parquet(corpus["media"])):
        ds = ocr_recognized_lines(read_docs(corpus["docs"]), media)
        stats = ds.materialize().stats()
        tasks = re.findall(r"Operator \d+ \S*PageProcessor\): "
                           r"(\d+) tasks executed", stats)
        assert len(tasks) == 1 and int(tasks[0]) >= 10, \
            (type(media).__name__, stats)


def test_masked_page_reading_order_and_text(ray_session, corpus):
    """G7 end-to-end: the corpus's masked two-column page segments into
    its 6 gt lines, column-major, and the recognized text matches gt."""
    from dup_ocropy_ray.functions.edist import levenshtein
    from dup_ocropy_ray.pipelines.ocr import ocr_recognized_lines, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    gt = pq.read_table(corpus["groundtruth"]).to_pandas()
    gt = gt[gt["media_ref"].str.endswith("page-mask.png")]
    assert len(gt) == 6
    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    rec = ocr_recognized_lines(docs, media_ref).to_pandas()
    rec = rec[
        rec["media_ref"].str.endswith("page-mask.png") & (rec["line_order"] >= 0)
    ].sort_values("line_order")
    assert len(rec) == 6
    pairs = list(zip(rec["text"], gt.sort_values("line_order")["gt_text"]))
    errs = sum(levenshtein(p, t) for p, t in pairs)
    total = sum(len(t) for _, t in pairs)
    assert errs / total < 0.25, pairs


def test_hocr_structure(ray_session, corpus):
    """S9/A8/A9: hOCR docs carry ocr_page divs per page, ocr_line spans
    with bbox titles in reading order, and paragraph breaks at gaps
    larger than the median x-height."""
    import re

    from dup_ocropy_ray.pipelines.ocr import ocr_hocr, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    gt = pq.read_table(corpus["groundtruth"]).to_pandas()
    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    out = ocr_hocr(docs, media_ref).to_pandas().set_index("doc_id")
    # skew doc: one ocr_page div per its 3 pages
    h0 = out.loc["doc-000000", "html"]
    assert h0.count("class='ocr_page'") == 3
    # line count matches gt; bboxes are well-formed and top-sorted per page
    n_lines = h0.count("class='ocr_line'")
    assert n_lines == len(gt[gt.doc_id == "doc-000000"])
    boxes = [
        tuple(map(int, m))
        for m in re.findall(r"title='bbox (\d+) (\d+) (\d+) (\d+)'", h0)
    ]
    assert all(x0 < x1 and y0 < y1 for x0, y0, x1, y1 in boxes)
    assert "class='ocr_par'" in h0


def test_poison_pill_media_skips_not_fails(ray_session, corpus, tmp_path):
    """Skip-don't-fail (reference safe_process1 semantics): corrupt media
    bytes become a skipped-page status row; every other doc is unaffected."""
    import pyarrow as pa
    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs

    media = pq.read_table(corpus["media"]).to_pandas()
    media.loc[media.index[1], "bytes"] = b"corrupt \x00 not a png"
    tbl = pa.Table.from_pandas(media, preserve_index=False)
    store = dict(zip(tbl.column("media_ref").to_pylist(),
                     tbl.column("bytes").to_pylist()))
    sref = ray.put(store)
    docs = read_docs(corpus["docs"])
    out = ocr_pipeline(docs, sref).to_pandas()
    assert len(out) == 6  # no doc dropped
    # exactly one extra skipped page beyond the corpus's small-page skip
    assert int(out["n_skipped_pages"].sum()) == 2


def test_skewed_page_deskewed_and_read(ray_session, corpus):
    """B4 end-to-end: the corpus's 0.75-degree-rotated page is deskewed
    by binarize and its lines recognized against gt."""
    from dup_ocropy_ray.functions.edist import levenshtein
    from dup_ocropy_ray.pipelines.ocr import ocr_recognized_lines, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    gt = pq.read_table(corpus["groundtruth"]).to_pandas()
    gt = gt[gt["media_ref"].str.endswith("page-skewed.png")]
    assert len(gt) == 4
    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    rec = ocr_recognized_lines(docs, media_ref).to_pandas()
    rec = rec[
        rec["media_ref"].str.endswith("page-skewed.png") & (rec["line_order"] >= 0)
    ].sort_values("line_order")
    assert len(rec) == 4
    pairs = list(zip(rec["text"], gt.sort_values("line_order")["gt_text"]))
    errs = sum(levenshtein(p, t) for p, t in pairs)
    total = sum(len(t) for _, t in pairs)
    assert errs / total < 0.1, pairs


def test_media_join_no_masks_and_dangling_ref(ray_session):
    """Dataset path edge cases: a corpus with ZERO mask entries still
    gets a (null) mask_png column, and a dangling or null media_ref must
    surface as a null page_png row (skip-don't-fail), never silently
    drop the page. Through the whole pipeline such a page counts as
    skipped, with the same output on both media paths."""
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data as rd

    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline
    from dup_ocropy_ray.sources.media import resolve_media_join

    pages = rd.from_pandas(pd.DataFrame(
        {"doc_id": ["d1", "d2", "d3"],
         "media_ref": ["p1", "p-missing", None],
         "span_offset": [0, 0, 0]}))
    media = rd.from_pandas(pd.DataFrame(
        {"media_ref": ["p1"], "bytes": [b"\x89PNGx"]}))
    out = resolve_media_join(pages, media).to_pandas()
    out = out.set_index("doc_id").sort_index()
    assert len(out) == 3
    assert out.loc["d1", "page_png"] == b"\x89PNGx"
    assert out.loc["d2", "page_png"] is None
    assert out.loc["d3", "page_png"] is None
    assert out["mask_png"].isna().all()

    span = pa.struct([("kind", pa.string()), ("text", pa.string()),
                      ("media_ref", pa.string()), ("offset", pa.int32())])
    docs = rd.from_arrow(pa.table({
        "doc_id": ["n1", "n2"],
        "spans": pa.array([
            [{"kind": "text", "text": "hi", "media_ref": None, "offset": 0},
             {"kind": "media", "text": None, "media_ref": None,
              "offset": 1}],
            [{"kind": "media", "text": None, "media_ref": "p-missing",
              "offset": 0}]], pa.list_(span))}))
    via_ds = ocr_pipeline(docs, rd.from_arrow(pa.table(
        {"media_ref": ["p1"], "bytes": [b"\x89PNGx"]}))).to_pandas()
    via_bc = ocr_pipeline(docs, ray.put({"p1": b"\x89PNGx"})).to_pandas()
    a = via_ds.set_index("doc_id").sort_index()
    b = via_bc.set_index("doc_id").sort_index()
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    assert list(a["n_pages"]) == [1, 1]
    assert list(a["n_skipped_pages"]) == [1, 1]
    assert [s["kind"] for s in a.loc["n1", "spans"]] == ["text", "media"]


def test_extract_then_ocr_matches_direct_ocr(ray_session, corpus):
    """North-rule composition: docs re-rendered as boilerplate-laden
    HTML (text spans -> <p>, media spans -> <img>) then pushed through
    extraction + OCR must produce the SAME span sequence (kind, text,
    media_ref, order) as OCR over the original interleaved docs."""
    from dup_ocropy_ray.pipelines.extract import (
        docs_to_html_docs,
        extract_then_ocr,
    )
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    docs = read_docs(corpus["docs"])
    media_ref = put_media_store(corpus["media"])
    direct = ocr_pipeline(docs, media_ref).to_pandas()
    via_html = extract_then_ocr(
        docs_to_html_docs(read_docs(corpus["docs"])), media_ref
    ).to_pandas()

    d = direct.set_index("doc_id").sort_index()
    h = via_html.set_index("doc_id").sort_index()
    assert list(d.index) == list(h.index)
    for doc_id in d.index:
        a = [(s["kind"], s["text"], s["media_ref"], s["offset"])
             for s in d.loc[doc_id, "spans"]]
        b = [(s["kind"], s["text"], s["media_ref"], s["offset"])
             for s in h.loc[doc_id, "spans"]]
        assert a == b, doc_id


def test_bucket_join_matches_native_join(ray_session):
    """The fixed-bucket shuffle join and Ray Data's native hash join
    must be row-identical on the paired-docs workload (the native path
    stays exercised here even though queries default to bucket)."""
    from dup_ocropy_ray.pipelines.queries import _paired_docs

    sf = "/root/testdata/sf0.001"
    a = (_paired_docs(sf).to_pandas()
         .sort_values("doc_id_a").reset_index(drop=True))
    b = (_paired_docs(sf, native=True).to_pandas()
         .sort_values("doc_id_a").reset_index(drop=True))
    a = a[sorted(a.columns)]
    b = b[sorted(b.columns)]
    assert len(a) > 0
    assert a.equals(b)


def test_bucket_join_property_random_frames(ray_session):
    """bucket_join == pandas inner merge on randomized inputs: dup keys
    (m:n fan-out), string keys, missing keys on either side, colliding
    column names, and an empty side."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import bucket_join

    rng = np.random.default_rng(11)
    for trial in range(4):
        nl, nr = int(rng.integers(1, 300)), int(rng.integers(1, 300))
        keyspace = [f"k{i}" for i in range(int(rng.integers(2, 40)))]
        left = pd.DataFrame({
            "k": rng.choice(keyspace, nl),
            "v": rng.integers(0, 1000, nl),
            "shared": rng.integers(0, 10, nl),
        })
        right = pd.DataFrame({
            "rk": rng.choice(keyspace, nr),
            "w": rng.integers(0, 1000, nr),
            "shared": rng.integers(0, 10, nr),
        })
        got = (bucket_join(rd.from_pandas(left).repartition(3),
                           rd.from_pandas(right).repartition(2),
                           "k", "rk", num_partitions=8)
               .to_pandas())
        want = left.merge(right.rename(columns={"shared": "shared_r"}),
                          left_on="k", right_on="rk")
        sort_cols = ["k", "v", "shared", "rk", "w", "shared_r"]
        got = got[sort_cols].sort_values(sort_cols).reset_index(drop=True)
        want = want[sort_cols].sort_values(sort_cols).reset_index(drop=True)
        assert got.equals(want), f"trial {trial}: {len(got)} vs {len(want)}"

    # empty side -> empty result with the right columns
    empty = pd.DataFrame({"rk": pd.Series([], dtype="object"),
                          "w": pd.Series([], dtype="int64")})
    got = (bucket_join(rd.from_pandas(left).repartition(2),
                       rd.from_pandas(empty), "k", "rk", num_partitions=4)
           .to_pandas())
    assert len(got) == 0


def test_bucket_join_modes_property_random_frames(ray_session):
    """left/semi/anti bucket_join == the pandas reference semantics on
    randomized inputs with duplicate keys on both sides and keys
    missing from either side."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import bucket_join

    rng = np.random.default_rng(23)
    for trial in range(3):
        nl, nr = int(rng.integers(5, 200)), int(rng.integers(5, 200))
        keyspace = [f"k{i}" for i in range(int(rng.integers(6, 30)))]
        left = pd.DataFrame({
            "k": rng.choice(keyspace, nl),
            "v": rng.integers(0, 1000, nl),
        })
        # right draws from half the keyspace so both semi and anti have
        # survivors with high probability
        right = pd.DataFrame({
            "rk": rng.choice(keyspace[: len(keyspace) // 2], nr),
            "w": rng.integers(0, 1000, nr),
        })

        def run(how):
            return bucket_join(
                rd.from_pandas(left).repartition(3),
                rd.from_pandas(right).repartition(2),
                "k", "rk", num_partitions=8, how=how).to_pandas()

        # left: pandas left merge (null right cols on misses)
        got = run("left")
        want = left.merge(right, left_on="k", right_on="rk", how="left")
        cols = ["k", "v", "rk", "w"]
        got = (got[cols].sort_values(cols).reset_index(drop=True))
        want = (want[cols].sort_values(cols).reset_index(drop=True))
        assert got.astype("object").where(got.notna(), None).equals(
            want.astype("object").where(want.notna(), None)), f"left {trial}"

        # semi / anti: membership filters, dup right keys don't fan out
        hits = set(right["rk"])
        got_semi = run("semi").sort_values(["k", "v"]).reset_index(drop=True)
        want_semi = (left[left["k"].isin(hits)]
                     .sort_values(["k", "v"]).reset_index(drop=True))
        assert got_semi.equals(want_semi), f"semi {trial}"
        got_anti = run("anti").sort_values(["k", "v"]).reset_index(drop=True)
        want_anti = (left[~left["k"].isin(hits)]
                     .sort_values(["k", "v"]).reset_index(drop=True))
        assert got_anti.equals(want_anti), f"anti {trial}"
        assert len(got_semi) + len(got_anti) == nl

    # zero-survivor edge: the DATASET keeps the left schema (to_pandas
    # on an all-empty dataset drops columns — a Ray quirk, not ours)
    full = pd.DataFrame({"rk": left["k"], "w": left["v"]})
    got = bucket_join(rd.from_pandas(left).repartition(2),
                      rd.from_pandas(full).repartition(2),
                      "k", "rk", num_partitions=4, how="anti")
    assert got.count() == 0
    assert got.schema().names == ["k", "v"]

    # outer: pandas full outer merge (unmatched rows of BOTH sides)
    got = bucket_join(rd.from_pandas(left).repartition(3),
                      rd.from_pandas(right).repartition(2),
                      "k", "rk", num_partitions=8, how="outer").to_pandas()
    want = left.merge(right, left_on="k", right_on="rk", how="outer")
    cols = ["k", "v", "rk", "w"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    assert got.astype("object").where(got.notna(), None).equals(
        want.astype("object").where(want.notna(), None)), "outer"

    # explicit fixture where BOTH unmatched directions occur
    l2 = pd.DataFrame({"k": ["a", "b"], "v": [1, 2]})
    r2 = pd.DataFrame({"rk": ["b", "c"], "w": [20, 30]})
    got2 = bucket_join(rd.from_pandas(l2), rd.from_pandas(r2),
                       "k", "rk", num_partitions=4,
                       how="outer").to_pandas()
    assert len(got2) == 3
    assert got2["v"].isna().any() and got2["w"].isna().any()

    import pytest

    with pytest.raises(ValueError):
        bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="cross")
    with pytest.raises(ValueError):
        bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="outer", hot_keys=["k0"])


def test_run_job_cli_smoke_and_resume(corpus, tmp_path):
    """scripts/run_job.py is the `ray job submit` target: drive it as a
    real subprocess (own Ray session, CLI arg wiring, checkpoint
    layout), then rerun to confirm the resume path reports zero pending
    fragments."""
    import json
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_root = str(tmp_path / "jobout")
    cmd = [sys.executable, os.path.join(repo, "scripts", "run_job.py"),
           "--pipeline", "ocr", "--docs", corpus["docs"],
           "--media", corpus["media"], "--out", out_root,
           "--fragments", "2"]
    env = dict(os.environ, RAY_ADDRESS="local")
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=600)
    assert r1.returncode == 0, r1.stderr[-2000:]
    rec1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert sorted(rec1["fragments_run"]) == [0, 1]
    assert rec1["counters"]["docs"] == 6

    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                        timeout=600)
    assert r2.returncode == 0, r2.stderr[-2000:]
    rec2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rec2["fragments_run"] == []
    assert rec2["counters"] == rec1["counters"]


def test_profile_table_nulls_and_distincts(ray_session):
    """profile_table on a frame with nulls, duplicate values across
    blocks, and an all-null column — exact distincts must dedup across
    blocks; nulls counted, excluded from distinct/min/max."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import profile_table

    df = pd.DataFrame({
        "a": ["x", "y", "x", None, "z", "y", None, "x"],
        "b": [1, 2, 3, 4, 1, 2, 3, 4],
        "c": [None] * 8,
    })
    got = profile_table(rd.from_pandas(df).repartition(4),
                        ["a", "b", "c"], num_partitions=4)
    got = got.set_index("column")
    assert got.loc["a", "n"] == 8 and got.loc["a", "n_null"] == 2
    assert got.loc["a", "n_distinct"] == 3
    assert got.loc["a", "min_s"] == "x" and got.loc["a", "max_s"] == "z"
    assert got.loc["b", "n_distinct"] == 4
    assert got.loc["b", "min_s"] == "1" and got.loc["b", "max_s"] == "4"
    assert got.loc["c", "n_null"] == 8 and got.loc["c", "n_distinct"] == 0

    # sparse column: entirely null in SOME batches, not others — the
    # driver reduce must skip the None partials, not crash on them
    sparse = pd.DataFrame({"a": [None] * 40 + ["v"] + [None] * 40})
    got2 = profile_table(rd.from_pandas(sparse).repartition(8), ["a"],
                         num_partitions=2).set_index("column")
    assert got2.loc["a", "n_null"] == 80
    assert got2.loc["a", "n_distinct"] == 1
    assert got2.loc["a", "min_s"] == "v" and got2.loc["a", "max_s"] == "v"


def test_salted_join_skew_correctness(ray_session):
    """Hot-key salting: a planted key holding half the left side routes
    through dedicated salt partitions (left split, right replicated) —
    results must be IDENTICAL to the unsalted join for all four modes,
    and detect_hot_keys must find the planted key."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import (
        bucket_join, detect_hot_keys)

    rng = np.random.default_rng(31)
    n = 600
    keys = np.where(rng.random(n) < 0.5, "HOT",
                    rng.choice([f"k{i}" for i in range(40)], n))
    left = pd.DataFrame({"k": keys, "v": np.arange(n, dtype="int64")})
    right = pd.DataFrame({
        "rk": ["HOT", "HOT", "k1", "k2", "k3", "zz"],
        "w": np.arange(6, dtype="int64"),
    })
    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(2)

    hot = detect_hot_keys(lds, "k", frac=0.05)
    assert "HOT" in hot

    for how in ["inner", "left", "semi", "anti"]:
        plain = (bucket_join(lds, rds, "k", "rk", num_partitions=8,
                             how=how).to_pandas())
        salted = (bucket_join(lds, rds, "k", "rk", num_partitions=8,
                              how=how, hot_keys=["HOT"], salt=4)
                  .to_pandas())
        cols = sorted(plain.columns)
        plain = (plain[cols].sort_values(cols).reset_index(drop=True))
        salted = (salted[cols].sort_values(cols).reset_index(drop=True))
        assert salted.astype("object").where(salted.notna(), None).equals(
            plain.astype("object").where(plain.notna(), None)), how
    # the HOT key's inner fan-out is 2 rows per left row (2 right dups)
    n_hot_left = int((left["k"] == "HOT").sum())
    inner = bucket_join(lds, rds, "k", "rk", num_partitions=8,
                        hot_keys=["HOT"], salt=4).to_pandas()
    assert int((inner["k"] == "HOT").sum()) == 2 * n_hot_left


def test_corr_pairs_known_values_and_layout_invariance(ray_session):
    """corr_pairs on planted correlations: y=2x -> 1.0, z=-x -> -1.0,
    and the result must not depend on the block layout."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import corr_pairs

    rng = np.random.default_rng(17)
    x = rng.standard_normal(500)
    df = pd.DataFrame({
        "x": x, "y": 2.0 * x + 1.0, "z": -x,
        "w": rng.standard_normal(500),
    })
    a = corr_pairs(rd.from_pandas(df).repartition(1), ["x", "y", "z", "w"])
    b = corr_pairs(rd.from_pandas(df).repartition(7), ["x", "y", "z", "w"])
    byp = a.set_index(["col_a", "col_b"])["corr"]
    assert byp[("x", "y")] == 1.0
    assert byp[("x", "z")] == -1.0
    assert abs(byp[("x", "w")]) < 0.2
    pd.testing.assert_frame_equal(a, b)

    # catastrophic-cancellation regime: huge mean, tiny variance — the
    # centered two-pass formula must stay exact where raw moments lose
    # every significant digit
    big = pd.DataFrame({"p": 1e8 + x, "r": 1e8 + 2 * x, "s": x})
    c = corr_pairs(rd.from_pandas(big).repartition(5),
                   ["p", "r", "s"]).set_index(["col_a", "col_b"])["corr"]
    assert c[("p", "r")] == 1.0 and c[("p", "s")] == 1.0

    # NaN rows are dropped pairwise (SQL corr semantics), not poisoning
    nan_df = pd.DataFrame({"x": x, "y": 2.0 * x, "z": x.copy()})
    nan_df.loc[5, "z"] = np.nan
    c2 = corr_pairs(rd.from_pandas(nan_df).repartition(3),
                    ["x", "y", "z"]).set_index(["col_a", "col_b"])["corr"]
    assert c2[("x", "y")] == 1.0
    ref = np.corrcoef(np.delete(x, 5), np.delete(x.copy(), 5))[0, 1]
    assert abs(c2[("x", "z")] - round(ref, 6)) <= 1e-6


def test_exact_quantile_selection_edges(ray_session):
    """Distributed quickselect vs numpy on adversarial data: heavy
    duplicates (a single value holding the median), tiny n, and a
    forced multi-round narrowing (max_collect=4)."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import exact_quantile

    rng = np.random.default_rng(41)

    def ref(v, q):
        return float(np.sort(v)[max(math.ceil(q * len(v)) - 1, 0)])

    # duplicates: 60% of mass on one value
    v1 = np.concatenate([np.full(600, 7.25), rng.standard_normal(400)])
    # continuous, multi-round narrowing
    v2 = rng.standard_normal(5000) * 1e6
    # tiny
    v3 = np.array([3.0, 1.0, 2.0])
    for v in (v1, v2, v3):
        ds = rd.from_pandas(pd.DataFrame({"x": v})).repartition(4)
        got = exact_quantile(ds, "x", qs=(0.1, 0.5, 0.9),
                             nbins=64, max_collect=4)
        for q, val in zip(got["q"], got["value"]):
            assert val == ref(v, q), (q, val, ref(v, q))


def test_worker_death_task_retry(ray_session, tmp_path):
    """Fault tolerance the 100TB design leans on: a map_batches task
    whose worker DIES mid-batch (os._exit — simulating OOM-kill /
    preemption) is retried transparently by Ray and the pipeline
    completes with a complete, correct result."""
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    flag = str(tmp_path / "kill_once")

    def f(b: pd.DataFrame, _flag=flag) -> pd.DataFrame:
        if b["x"].iloc[0] == 0 and not os.path.exists(_flag):
            with open(_flag, "w") as fh:
                fh.write("died")
            os._exit(1)
        return pd.DataFrame({"y": b["x"] * 2})

    ds = rd.from_pandas(pd.DataFrame({"x": np.arange(100)})).repartition(4)
    out = ds.map_batches(f, batch_format="pandas", batch_size=25).to_pandas()
    assert os.path.exists(flag), "the crash never happened"
    assert len(out) == 100 and out["y"].sum() == 2 * sum(range(100))


def test_bucket_join_unmatched_rows_keep_exact_arrow_types(ray_session):
    """left/outer partitions holding unmatched rows must emit the SAME
    Arrow schema as fully-matched partitions (int64 stays int64 with
    nulls, never NaN-coerced to float64), so an Arrow-level consumer —
    a chained groupby, second join, or write_parquet — never hits
    schema-unification failures, and >2^53 int values survive exactly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from dup_ocropy_ray.pipelines.relational import bucket_join

    big = 2**60 + 7  # would round to 2**60 through a float64 round-trip
    left = pd.DataFrame({"k": np.array([1, 2, 3, 4], dtype=np.int64),
                         "v": np.array([10, big, 30, 40], dtype=np.int64)})
    right = pd.DataFrame({"rk": np.array([2, 4, 5], dtype=np.int64),
                          "w": np.array([200, 400, 500], dtype=np.int64)})
    for how in ("left", "outer", "inner"):
        ds = bucket_join(rd.from_pandas(left).repartition(3),
                         rd.from_pandas(right).repartition(2),
                         "k", "rk", num_partitions=8, how=how)
        sch = ds.schema()
        types = dict(zip(sch.names, sch.types))
        assert types["v"] == pa.int64(), (how, types)
        assert types["w"] == pa.int64(), (how, types)
        # Arrow-level consumers work across mixed-match partitions
        tbl = pa.concat_tables(
            [pa.Table.from_pandas(b) if not isinstance(b, pa.Table) else b
             for b in ds.iter_batches(batch_format="pyarrow")])
        got_big = [v for v in tbl.column("v").to_pylist() if v == big]
        assert got_big == [big], how
        if how != "inner":
            assert tbl.column("w").null_count >= 1
    # write_parquet over an outer result with unmatched rows round-trips
    import tempfile

    d = tempfile.mkdtemp()
    bucket_join(rd.from_pandas(left), rd.from_pandas(right),
                "k", "rk", num_partitions=4,
                how="outer").write_parquet(d)
    back = rd.read_parquet(d).to_pandas()
    assert len(back) == 5


def test_lpt_fragment_groups_balance_and_determinism(tmp_path):
    """Size-aware fragment planning: a skewed file set packs by LPT so
    no fragment carries more than ~(max_file + fair share); groups are
    deterministic and cover every file exactly once."""
    from dup_ocropy_ray.pipelines.ocr import _lpt_groups

    sizes = [9000, 100, 100, 100, 4000, 4000, 200, 300]
    files = []
    for i, s in enumerate(sizes):
        p = tmp_path / f"part-{i:03d}.parquet"
        p.write_bytes(b"x" * s)
        files.append(str(p))
    groups = _lpt_groups(sorted(files), 4)
    assert sorted(f for g in groups for f in g) == sorted(files)
    loads = [sum(len(open(f, "rb").read()) for f in g) for g in groups]
    # the 9000-byte file dominates; every other bin stays near fair share
    assert max(loads) == 9000
    assert _lpt_groups(sorted(files), 4) == groups  # deterministic
    # zero-byte files must not starve a bin (reader indexes group[0])
    z = tmp_path / "zero.parquet"
    z.write_bytes(b"")
    gz = _lpt_groups(sorted(files + [str(z)]), 4)
    assert all(g for g in gz)
    total = sum(sizes)
    fair = total / 4
    assert max(loads) <= max(sizes) + fair


def test_zorder_blocks_match_numpy_reference(ray_session):
    """Morton interleave bit-exact vs a per-bit reference, and the
    distributed block planner's envelopes equal a single-process
    sort-and-slice replay of the same curve."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from dup_ocropy_ray.pipelines.relational import morton2, zorder_blocks

    rng = np.random.default_rng(7)
    bx = rng.integers(0, 64, 5000).astype(np.int64)
    by = rng.integers(0, 64, 5000).astype(np.int64)
    z = morton2(bx, by, bits=6)
    # reference: interleave via string bits
    for i in rng.integers(0, 5000, 20):
        xb = format(bx[i], "06b")
        yb = format(by[i], "06b")
        inter = "".join(yb[j] + xb[j] for j in range(6))
        assert z[i] == int(inter, 2)
    # planner vs replay
    rid = np.arange(5000, dtype=np.int64)
    df = pd.DataFrame({"bx": bx, "by": by, "rid": rid})
    got = zorder_blocks(
        rd.from_pandas(df).repartition(8),
        "bx", "by", lambda b, zz: (zz << np.int64(20)) | b["rid"].to_numpy(np.int64),
        bits=6, block_size=512)
    order = np.lexsort((rid, z))
    exp_rows = []
    for blk in range(0, 5000, 512):
        sel = order[blk:blk + 512]
        exp_rows.append({
            "block": blk // 512, "n_rows": len(sel),
            "min_bx": bx[sel].min(), "max_bx": bx[sel].max(),
            "min_by": by[sel].min(), "max_by": by[sel].max(),
            "min_z": z[sel].min(), "max_z": z[sel].max(),
        })
    exp = pd.DataFrame(exp_rows).astype("int64")
    pd.testing.assert_frame_equal(got, exp[got.columns])
