"""Main-content extraction pipeline (the north rule's HTML leg): wrap →
parse → boilerplate-strip → interleaved spans, as stateless Ray Data
``map_batches`` stages.

Scale shape: per-doc map only — no shuffle, no materialization, columns
pruned at the read. The parse kernel (functions/htmlx.py) is pure Python
per document (inherent to DOM work), so the stage is sized by batch
count, not vector width; at 100 TB it is embarrassingly parallel and the
streaming executor pipelines it against the read.

Synthetic-source note: the sandbox's documents table is plain text, so
``wrap_stage`` renders each row into a deterministic boilerplate-laden
page (sources/webgen.py) first; on a real web corpus the wrap stage is
dropped and ``extract_stage`` consumes the raw HTML column directly.
"""

from __future__ import annotations

from collections import Counter

import pandas as pd

import ray.data as rd

from ..functions import htmlx
from ..sources.webgen import wrap_html


def wrap_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, text) -> (doc_id, html): deterministic page render."""
    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "html": [wrap_html(int(i), t if isinstance(t, str) else "")
                 for i, t in zip(b["doc_id"], b["text"])],
    })


def extract_text_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, html) -> (doc_id, main_text): boilerplate-stripped main
    content as one normalized string."""
    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "main_text": [htmlx.extract_main_text(h) for h in b["html"]],
    })


def extract_spans_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, html) -> exploded span rows (doc_id, offset, kind, text,
    media_ref) — the interleaved text+media sequence contract
    ``(kind, text, media_ref, order)``."""
    ids, offs, kinds, texts, refs = [], [], [], [], []
    for i, h in zip(b["doc_id"], b["html"]):
        for s in htmlx.extract_spans(h):
            ids.append(int(i))
            offs.append(s["offset"])
            kinds.append(s["kind"])
            texts.append(s["text"])
            refs.append(s["media_ref"])
    return pd.DataFrame({
        "doc_id": pd.Series(ids, dtype="int64"),
        "offset": pd.Series(offs, dtype="int32"),
        "kind": pd.Series(kinds, dtype=str),
        "text": pd.Series(texts, dtype=object),
        "media_ref": pd.Series(refs, dtype=object),
    })


def markdown_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, html) -> (doc_id, markdown): main content rendered as
    Markdown blocks (functions/mdx.py) instead of one flat string."""
    from ..functions.mdx import to_markdown

    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "markdown": [to_markdown(h) for h in b["html"]],
    })


def wrap_docs(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(wrap_stage, batch_format="pandas",
                          batch_size=batch_size)


def extract_docs(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    """documents(doc_id, text) -> (doc_id, main_text) via the synthetic
    wrap; identity-checked against the source text by the driver."""
    return wrap_docs(ds, batch_size).map_batches(
        extract_text_stage, batch_format="pandas", batch_size=batch_size)


def extract_spans_table(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return wrap_docs(ds, batch_size).map_batches(
        extract_spans_stage, batch_format="pandas", batch_size=batch_size)


def span_counts(ds: rd.Dataset, batch_size: int = 256) -> pd.DataFrame:
    """Per-doc structural summary of the extracted span sequence:
    (doc_id, n_text, n_media, main_chars). Computed doc-at-a-time inside
    one map stage — no shuffle — and oracle-expressible because the wrap
    layout is a pure function of (doc_id, word count)."""

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        ids, nt, nm, mc = [], [], [], []
        for i, h in zip(b["doc_id"], b["html"]):
            spans = htmlx.extract_spans(h)
            ids.append(int(i))
            nt.append(sum(1 for s in spans if s["kind"] == "text"))
            nm.append(sum(1 for s in spans if s["kind"] == "media"))
            mc.append(sum(len(s["text"]) for s in spans
                          if s["kind"] == "text"))
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "n_text": pd.Series(nt, dtype="int64"),
            "n_media": pd.Series(nm, dtype="int64"),
            "main_chars": pd.Series(mc, dtype="int64"),
        })

    out = (wrap_docs(ds, batch_size)
           .map_batches(summarize, batch_format="pandas",
                        batch_size=batch_size)
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


_JT_COLS = ("n_blocks", "n_bad", "n_short", "n_neargood", "n_good",
            "n_good_final", "good_chars")


def justext_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, html) -> per-page jusText block-classification summary
    (htmlx.segment_blocks / justext_classify): context-free class
    counts, final good-block count, good-block char mass."""
    stats = [htmlx.justext_stats(h) for h in b["html"]]
    cols = {"doc_id": b["doc_id"].astype("int64")}
    for k in _JT_COLS:
        cols[k] = pd.Series([s[k] for s in stats], dtype="int64")
    return pd.DataFrame(cols)


def justext_table(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    """documents(doc_id, text) -> per-doc jusText stats over the
    deterministic wrapped pages. Per-doc map only — no shuffle; the DOM
    walk is inherently per-document Python, so the stage scales by
    batch count like the extractor."""
    return wrap_docs(ds, batch_size).map_batches(
        justext_stage, batch_format="pandas", batch_size=batch_size)


def cetr_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, text) -> per-page CETR summary (functions/cetr.py):
    wrap into the deterministic page, line/TTR/smooth/2-means, and
    score the kept text against the known source — recall/precision in
    permille so the table stays integer-exact. One fused per-doc map
    (wrap + extract + score share the row, so neither the page nor the
    content text crosses a stage boundary)."""
    from ..functions.cetr import cetr_stats

    rows = {k: [] for k in ("doc_id", "n_lines", "n_content_lines",
                            "content_chars", "recall_permille",
                            "precision_permille")}
    for i, t in zip(b["doc_id"], b["text"]):
        text = t if isinstance(t, str) else ""
        s = cetr_stats(wrap_html(int(i), text))
        want = set(text.split())
        got = set(s["content_text"].split())
        rows["doc_id"].append(int(i))
        rows["n_lines"].append(s["n_lines"])
        rows["n_content_lines"].append(s["n_content_lines"])
        rows["content_chars"].append(s["content_chars"])
        rows["recall_permille"].append(
            1000 * len(want & got) // max(1, len(want)))
        rows["precision_permille"].append(
            1000 * len(want & got) // max(1, len(got)))
    return pd.DataFrame({k: pd.Series(v, dtype="int64")
                         for k, v in rows.items()})


def cetr_table(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    """documents(doc_id, text) -> per-doc CETR extraction quality table.
    Per-doc map only — no shuffle; same scale shape as justext_table."""
    return ds.map_batches(cetr_stage, batch_format="pandas",
                          batch_size=batch_size)


def ensemble_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, text) -> cross-extractor agreement row: the DOM scorer
    (htmlx.extract_main_text), jusText good blocks, and CETR each
    extract the same wrapped page; pairwise word-set Jaccard (permille)
    between their outputs is the per-doc confidence signal — high
    three-way agreement means the page's content boundary is
    unambiguous, divergence flags pages worth auditing. One fused
    per-doc map, no shuffle."""
    from ..functions.cetr import extract_main_text_cetr
    from ..functions.htmlx import (classify_context_free,
                                   extract_main_text, justext_classify,
                                   segment_blocks)

    def jac_pm(a: set, b_: set) -> int:
        u = len(a | b_)
        return 1000 * len(a & b_) // u if u else 1000

    rows = {k: [] for k in ("doc_id", "dom_chars", "justext_chars",
                            "cetr_chars", "agree_dom_justext",
                            "agree_dom_cetr", "agree_justext_cetr")}
    for i, t in zip(b["doc_id"], b["text"]):
        html = wrap_html(int(i), t if isinstance(t, str) else "")
        dom = extract_main_text(html)
        blocks = segment_blocks(html)
        # jusText content = final good UNION context-free neargood: in
        # language-independent mode short-paragraph pages have no
        # anchoring good block, so neargood is the content signal there
        fin = justext_classify(blocks)
        cf = classify_context_free(blocks)
        jt = " ".join(
            blk["text"] for blk, f, c in zip(blocks, fin, cf)
            if f == "good" or c == "neargood")
        ce = extract_main_text_cetr(html)
        sd, sj, sc = set(dom.split()), set(jt.split()), set(ce.split())
        rows["doc_id"].append(int(i))
        rows["dom_chars"].append(len(dom))
        rows["justext_chars"].append(len(jt))
        rows["cetr_chars"].append(len(ce))
        rows["agree_dom_justext"].append(jac_pm(sd, sj))
        rows["agree_dom_cetr"].append(jac_pm(sd, sc))
        rows["agree_justext_cetr"].append(jac_pm(sj, sc))
    return pd.DataFrame({k: pd.Series(v, dtype="int64")
                         for k, v in rows.items()})


def ensemble_table(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return ds.map_batches(ensemble_stage, batch_format="pandas",
                          batch_size=batch_size)


# ------------------------------------------------------------- PDF leg


def render_pdf_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, text) -> (doc_id, pdf bytes): deterministic layout-
    bearing PDF render (sources/pdfgen.py; odd doc_ids two-column)."""
    from ..sources.pdfgen import render_pdf

    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "pdf": [render_pdf(int(i), t if isinstance(t, str) else "")
                for i, t in zip(b["doc_id"], b["text"])],
    })


def pdf_text_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, pdf) -> (doc_id, pdf_text): object scan, FlateDecode,
    content-stream execution, column-aware reading order."""
    from ..functions.pdfx import extract_pdf_text

    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "pdf_text": [extract_pdf_text(bytes(p)) for p in b["pdf"]],
    })


def pdf_extract_docs(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    """documents(doc_id, text) -> (doc_id, pdf_text) round-trip; same
    shuffle-free shape as the HTML leg (binary payloads stay inside the
    fused map stages, never shuffled)."""
    return (ds.map_batches(render_pdf_stage, batch_format="pandas",
                           batch_size=batch_size)
            .map_batches(pdf_text_stage, batch_format="pandas",
                         batch_size=batch_size))


# ---------------------------------------------- interleaved-spans surface


# Docs per batch of the interleaved-spans extraction stage.
EXTRACT_BATCH_SIZE = 128
_SPAN_TYPE = None


def _span_list_type() -> "pa.DataType":
    import pyarrow as pa

    global _SPAN_TYPE
    if _SPAN_TYPE is None:
        _SPAN_TYPE = pa.list_(pa.struct([
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]))
    return _SPAN_TYPE


def extract_interleaved_stage(batch: "pa.Table") -> "pa.Table":
    """North-rule table shape in and out — (doc_id, spans) where spans
    is list<struct<kind,text,media_ref,offset>>. Spans of kind='html'
    (raw markup in ``text``) are boilerplate-stripped IN PLACE into
    their extracted text+media sub-spans; all other spans pass through.
    Offsets are renumbered densely per document, preserving order.

    One self-contained map — no shuffle, no media store: the HTML is
    inline in the span, so each doc row extracts independently."""
    import pyarrow as pa

    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = batch.column("spans").to_pylist()
    out_spans = []
    for ss in spans_col:
        new: list[dict] = []
        for s in sorted(ss or [], key=lambda x: x["offset"]):
            if s["kind"] == "html":
                for sub in htmlx.extract_spans(s["text"] or ""):
                    new.append({"kind": sub["kind"], "text": sub["text"],
                                "media_ref": sub["media_ref"],
                                "offset": len(new)})
            else:
                new.append({"kind": s["kind"], "text": s["text"],
                            "media_ref": s["media_ref"],
                            "offset": len(new)})
        out_spans.append(new)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "spans": pa.array(out_spans, type=_span_list_type()),
    })


def extract_interleaved(docs: rd.Dataset) -> rd.Dataset:
    """Interleaved text+media docs -> same shape with html spans
    replaced by extracted main-content span sequences (the HTML
    counterpart of pipelines/ocr.py's flagship, minus the media store:
    markup travels inline)."""
    return docs.map_batches(extract_interleaved_stage,
                            batch_format="pyarrow",
                            batch_size=EXTRACT_BATCH_SIZE)


# ---------------------------------------------------- resumable runner


def _span_counters(_frag: int, t: "pa.Table") -> dict:
    kinds = Counter(s["kind"] for ss in t["spans"].to_pylist() for s in ss)
    return {"docs": t.num_rows, "text_spans": kinds["text"],
            "media_spans": kinds["media"]}


def run_extract_with_checkpoint(
    docs_path: str,
    out_root: str,
    num_fragments: int = 4,
) -> dict:
    """Resumable interleaved-extraction run (north-rule checkpoint
    contract, same fragment store as the OCR flagship): docs fragment
    by ``checkpoint.fragment_plan`` (input FILE GROUPS for a multi-file
    directory, doc-id hash filters for a single file), and
    ``checkpoint.run_fragments`` runs extract_interleaved on each
    pending fragment and commits a lineage+counter manifest. A killed
    run reprocesses at most one in-flight fragment."""
    from ..state import checkpoint as ckpt

    nfrag, reader = ckpt.fragment_plan(docs_path, num_fragments, out_root)
    return ckpt.run_fragments(
        out_root, nfrag, lambda frag: extract_interleaved(reader(frag)),
        _span_counters, columns=("spans",))


# ------------------------------------------------- extraction -> OCR


def docs_to_html_docs(docs: rd.Dataset) -> rd.Dataset:
    """Inverse rendering for the composition demo/tests: re-render an
    interleaved (doc_id, spans) doc as ONE kind='html' span — text spans
    become <p> blocks, media spans become <img src=ref>, wrapped in nav/
    footer boilerplate the extractor must strip."""
    import html as _h

    import pyarrow as pa

    def render(batch: pa.Table) -> pa.Table:
        out = []
        for ss in batch.column("spans").to_pylist():
            parts = []
            for s in sorted(ss or [], key=lambda x: x["offset"]):
                if s["kind"] == "media":
                    parts.append(f'<img src="{s["media_ref"]}">')
                elif s["text"]:
                    parts.append(f"<p>{_h.escape(s['text'])}</p>")
            html = (
                '<html><body><nav class="menu"><a href="/">Home</a>'
                '<a href="/a">Archive</a></nav>'
                f'<article class="post-body">{"".join(parts)}</article>'
                '<footer class="site-footer">junk trailing boilerplate'
                "</footer></body></html>"
            )
            out.append([{"kind": "html", "text": html,
                         "media_ref": None, "offset": 0}])
        return pa.table({"doc_id": batch.column("doc_id"),
                         "spans": pa.array(out, _span_list_type())})

    return docs.map_batches(render, batch_format="pyarrow", batch_size=128)


def extract_then_ocr(docs: rd.Dataset, media_store_ref, **ocr_kw) -> rd.Dataset:
    """The full interleaved story: html spans expand to text+media span
    sequences, then the media spans flow through the OCR flagship
    (binarize -> segment -> recognize -> reassemble). Pure composition —
    extract_interleaved's output schema IS ocr_pipeline's input
    contract."""
    from .ocr import ocr_pipeline

    return ocr_pipeline(extract_interleaved(docs), media_store_ref, **ocr_kw)


def extract_tables_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, html) -> exploded table cells (doc_id, table_idx,
    row_idx, col_idx, cell) — the structured-data leg of extraction."""
    ids, ti, ri, ci, cv = [], [], [], [], []
    for i, h in zip(b["doc_id"], b["html"]):
        for t_idx, rows in enumerate(htmlx.extract_tables(h)):
            for r_idx, row in enumerate(rows):
                for c_idx, cell in enumerate(row):
                    ids.append(int(i))
                    ti.append(t_idx)
                    ri.append(r_idx)
                    ci.append(c_idx)
                    cv.append(cell)
    return pd.DataFrame({
        "doc_id": pd.Series(ids, dtype="int64"),
        "table_idx": pd.Series(ti, dtype="int64"),
        "row_idx": pd.Series(ri, dtype="int64"),
        "col_idx": pd.Series(ci, dtype="int64"),
        "cell": pd.Series(cv, dtype=str),
    })


def extract_tables_table(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return wrap_docs(ds, batch_size).map_batches(
        extract_tables_stage, batch_format="pandas", batch_size=batch_size)


def boilerplate_strip(
    ds: rd.Dataset,
    k: int = 4,
    frac: float = 0.5,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    site_col: str = "source",
) -> rd.Dataset:
    """Per-site boilerplate removal (the trafilatura/boilerpipe
    frequency heuristic at corpus scale): a paragraph that appears in
    ``>= max(min_docs, ceil(frac * site_docs))`` of a site's documents
    is site template (nav bars, footers, cookie banners) and is
    stripped from every document of that site. Complements
    dedup.paragraph_dedup (corpus-global, keep-one) — boilerplate is
    dropped from ALL copies, and the frequency is judged per site, so
    a phrase common on one site but organic on another is only removed
    where it is template. The synthetic corpus has no paragraph breaks,
    so a "paragraph" is a run of ``k`` whitespace tokens (same chunk
    convention as paragraph_dedup / the jusText twin).

    Scale shape (100 TB): two corpus scans (the strip_dup_spans /
    checkpointed-dedup phase pattern). Scan 1 explodes to per-(site,
    paragraph, doc) rows pre-deduped in-batch, then ONE exchange keyed
    on the (site, para) hash counts document frequency over those
    partials; site doc totals ride the same exploded stream and only
    the site -> threshold map (site-cardinality, i.e. metadata-scale)
    is ray.put-broadcast. The boilerplate key table is (site,
    para)-scale — NOT broadcast: scan 2 anti-bucket_joins the paragraph
    stream against it on a packed 64-bit (site, para) hash, and
    survivors reassemble per document on a doc-keyed exchange (shared
    with paragraph_dedup). Nothing lands on the driver; 64-bit
    hash-only matching (collision odds documented in strip_dup_spans
    apply).

    Returns (id_col, clean_text, n_kept, n_para); documents whose every
    paragraph is template disappear (as do token-less documents).
    """
    import numpy as np
    import pyarrow as pa

    from ..functions import hashing
    from .dedup import _reassemble_paragraphs
    from .relational import bucket_join, grouped_agg, partition_map

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy()
        sites = batch[site_col].to_numpy(dtype=object)
        texts = batch[text_col].to_numpy(dtype=object)
        out_id, out_site, out_ord, out_para, out_np = [], [], [], [], []
        for i, t in enumerate(texts):
            words = (t if isinstance(t, str) else "").split()
            if not words:
                continue
            npara = -(-len(words) // k)
            out_para.extend(" ".join(words[j * k:(j + 1) * k])
                            for j in range(npara))
            out_id.append(np.full(npara, ids[i]))
            out_site.extend([sites[i]] * npara)
            out_ord.append(np.arange(npara, dtype=np.int64))
            out_np.append(np.full(npara, npara, dtype=np.int64))
        if not out_para:
            return pd.DataFrame({id_col: np.array([], dtype=ids.dtype),
                                 site_col: np.array([], dtype=object),
                                 "ord": np.array([], dtype=np.int64),
                                 "para": np.array([], dtype=object),
                                 "n_para": np.array([], dtype=np.int64),
                                 "sp": np.array([], dtype=np.uint64)})
        para = np.asarray(out_para, dtype=object)
        site = np.asarray(out_site, dtype=object)
        sp = hashing.hash_strings(site + "\x1f" + para)
        return pd.DataFrame({id_col: np.concatenate(out_id),
                             site_col: site,
                             "ord": np.concatenate(out_ord),
                             "para": para,
                             "n_para": np.concatenate(out_np),
                             "sp": sp})

    # ---- scan 1: document frequency per (site, paragraph) ----
    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # explode batches hold whole documents, so in-batch distinct
        # (sp, doc) is globally distinct — the shuffle moves partials
        d = batch.drop_duplicates(["sp", id_col])
        return (d.groupby(["sp", site_col], as_index=False, sort=False)
                .size().rename(columns={"size": "c"}))

    def df_final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["sp", site_col], as_index=False,
                         sort=False)["c"].sum()

    exploded = ds.map_batches(explode, batch_format="pandas",
                              batch_size=8192)
    counts = partition_map(
        exploded.map_batches(df_partial, batch_format="pandas",
                             batch_size=65536), "sp", df_final)

    # site doc totals from the same exploded stream (one row per doc):
    # bounded by site count here; at web scale use
    # relational.keyed_combine, the same partial-combine exchange
    # returning a Dataset
    site_first = exploded.map_batches(
        lambda b: b[b["ord"] == 0][[site_col]],
        batch_format="pandas", batch_size=65536)
    site_totals = grouped_agg(site_first, [site_col], counts=True)
    thresh = {
        s: max(min_docs, int(np.ceil(frac * nd)))
        for s, nd in zip(site_totals[site_col], site_totals["n"])
    }
    import ray as _ray

    thresh_ref = _ray.put(thresh)

    def bp_filter(b: pd.DataFrame) -> pd.DataFrame:
        th = b[site_col].map(_ray.get(thresh_ref)).to_numpy()
        return b[b["c"].to_numpy() >= th][["sp"]]

    bp = counts.map_batches(bp_filter, batch_format="pandas",
                            batch_size=65536)

    # ---- scan 2: anti-join the paragraph stream, reassemble docs ----
    paras = ds.map_batches(explode, batch_format="pandas",
                           batch_size=8192)
    para_schema = pa.schema([
        (id_col, pa.int64()), (site_col, pa.string()),
        ("ord", pa.int64()), ("para", pa.string()),
        ("n_para", pa.int64()), ("sp", pa.uint64())])
    bp_schema = pa.schema([("sp", pa.uint64())])
    kept = bucket_join(paras, bp, "sp", "sp", how="anti",
                       left_schema=para_schema, right_schema=bp_schema)
    return _reassemble_paragraphs(kept, id_col)
