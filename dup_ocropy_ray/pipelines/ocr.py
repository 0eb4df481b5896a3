"""The flagship pipeline: interleaved docs -> binarize -> segment ->
recognize -> reassembled interleaved docs (SURVEY.md §3.4 lifecycle).

Shape:

    docs ──explode media spans──► page rows
         ──attach_media: repartition (one page row per block), then a
           dict lookup in the ray.put broadcast store (task pool);
           or, for a media Dataset, one partition_map exchange of page
           and media rows, then the repartition──► +page_png, mask_png
         ──PageProcessor (stateless tasks, one page each):
             binarize_png (B1-B6) ──{0,1} array──► segment_binary
             (G1-G16) ──► explode_lines (1 page → N line rows)
         ──LineRecognizerTask (task pool, model built once per worker
                               process)──► +text
    docs ──spans_to_union_rows──┐
    page statuses ──────────────┼─► union ── partition_map on doc_id
    recognized lines ───────────┘        └─► reassembled docs + counters

Every stage runs on the elastic task pool: no CPU is reserved for one
stage, so any idle CPU picks up whichever stage has work. Only small
text rows enter the final shuffle; pixel columns are dropped at each
stage boundary. Skew (multi-page docs) is equalized twice: pages of one
doc go to separate page tasks, and the line explosion spreads each
page's lines over the recognizer batches.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..sources.media import (attach_media, put_media_store,
                             resolve_media_join)
from ..stages.binarize import binarize_png
from ..stages.recognize import LineRecognizerTask
from ..stages.reassemble import lines_to_union_rows, spans_to_union_rows
from ..stages.segment import append_segments, explode_lines, segment_binary
from ..state import checkpoint as ckpt

# One page per page task, so multi-page documents fan out over the CPUs.
PAGE_BATCH_SIZE = 1
# Big batches fill the recognizer's length buckets -> fewer per-timestep
# python loops; ~2x less recognizer CPU than 64.
LINE_BATCH_SIZE = 256


def read_docs(path: str) -> rd.Dataset:
    from ..tuning import configure_data_context

    configure_data_context()
    if path.endswith(".lance"):
        return rd.read_lance(path)
    if path.endswith((".jsonl", ".json")):
        return rd.read_json(path)
    from ..tuning import parquet_schema

    return rd.read_parquet(path, schema=parquet_schema(path))


def explode_media_spans(batch: pa.Table) -> pa.Table:
    """docs -> page rows (doc_id, media_ref, span_offset). Pure Arrow
    kernels: list_flatten + list_parent_indices + a kind filter — no
    Python per span."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    doc_ids = pc.take(batch.column("doc_id"), parents)
    keep = pc.equal(pc.struct_field(flat, "kind"), "media")
    return pa.table(
        {
            "doc_id": doc_ids.filter(keep).cast(pa.string()),
            "media_ref": pc.struct_field(flat, "media_ref").filter(keep)
                           .cast(pa.string()),
            "span_offset": pc.struct_field(flat, "offset").filter(keep)
                             .cast(pa.int32()),
        }
    )


class PageProcessor:
    """Stage fusing binarize (B1-B6) + segment (G1-G16) + line explosion
    for one page batch. Stateless; runs on the elastic task pool, so
    every idle CPU picks up page work. Binarize hands segmentation its
    {0,1} array directly (the per-page helpers of the registered nlbin
    and gpageseg stages, without their PNG columns); only line crops
    leave this stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        masks = (batch.column("mask_png").to_pylist()
                 if "mask_png" in batch.column_names else None)
        results = []
        for i, data in enumerate(batch.column("page_png").to_pylist()):
            b = binarize_png(data)
            results.append(segment_binary(b["bin"], b["status"],
                                          masks[i] if masks else None))
        pages = batch.select(["doc_id", "media_ref", "span_offset"])
        return explode_lines(append_segments(pages, results), page_markers=True)


def _attach_broadcast(batch: pa.Table, store_ref=None) -> pa.Table:
    """``attach_media`` on the ``ray.put`` broadcast store, fetched
    zero-copy from the local object store (one transfer per node on a
    cluster, never re-shipped per batch)."""
    return attach_media(batch, ray.get(store_ref))


def _page_lines(docs: rd.Dataset, media_store_ref) -> rd.Dataset:
    """docs -> page line rows: explode media spans, resolve their bytes,
    then binarize + segment + explode lines (``PageProcessor``), one page
    per task. The front half shared by every OCR sink.

    ``media_store_ref`` is either a ``ray.ObjectRef`` to a broadcast
    {media_ref: bytes} dict (small-side lookup: put once, read zero-copy
    per node) or a ``ray.data.Dataset`` of (media_ref, bytes) — the
    100 TB path, resolved in one sort-shuffle exchange so neither side
    materializes on one node (``sources/media.py``)."""
    import functools

    pages = docs.map_batches(explode_media_spans, batch_format="pyarrow")
    # One page row per block, so every page is its own page task: a
    # multi-page doc read as one block would otherwise keep all of its
    # pages in one task, which then sets the operator's wall time. The
    # media exchange re-blocks its output, so there the split follows it.
    if isinstance(media_store_ref, rd.Dataset):
        pages = resolve_media_join(pages, media_store_ref).repartition(
            target_num_rows_per_block=PAGE_BATCH_SIZE)
    else:
        pages = pages.repartition(
            target_num_rows_per_block=PAGE_BATCH_SIZE).map_batches(
            functools.partial(_attach_broadcast, store_ref=media_store_ref),
            batch_format="pyarrow",
            batch_size=PAGE_BATCH_SIZE,
        )
    return pages.map_batches(PageProcessor(), batch_format="pyarrow",
                             batch_size=PAGE_BATCH_SIZE)


def ocr_recognized_lines(
    docs: rd.Dataset,
    media_store_ref,
    model_path: str | None = None,
    recognizer_kwargs: dict | None = None,
) -> rd.Dataset:
    """docs -> recognized line rows (doc_id, media_ref, span_offset,
    line_order, bbox, text, confidence, rec_status, page_status), with
    page-marker rows (line_order=-1) carrying segmentation statuses.

    Every stage runs on the ELASTIC TASK POOL (any idle CPU picks up
    page or line work — no static CPU split between stages). Each Ray
    worker process builds the recognizer model once and keeps it for
    later batches and later runs (stages/recognize.py
    ``LineRecognizerTask``). ``media_store_ref`` is a broadcast ref or a
    media Dataset (see ``_page_lines``)."""
    lines = _page_lines(docs, media_store_ref)
    return lines.map_batches(
        LineRecognizerTask(model_path=model_path, **(recognizer_kwargs or {})),
        batch_format="pyarrow",
        batch_size=LINE_BATCH_SIZE,
        # Any ray_remote_args_fn keeps this operator from fusing into
        # the page operator upstream. Fused, the page tasks would take
        # LINE_BATCH_SIZE-row input bundles, so a small run's pages would
        # all go to one task on one CPU.
        ray_remote_args_fn=lambda: {},
    )


def ocr_correction_html(docs: rd.Dataset, media_store_ref, **kw) -> rd.Dataset:
    """docs -> (doc_id, html) correction pages with base64-embedded line
    images + editable transcripts (reference ocropus-gtedit sink, S10)."""
    from ..stages.gtedit import correction_html_from_lines

    kw.setdefault("recognizer_kwargs", {})["keep_png"] = True
    rec = ocr_recognized_lines(docs, media_store_ref, **kw)
    return correction_html_from_lines(rec)


def ocr_debug_html(docs: rd.Dataset, media_store_ref, **kw) -> rd.Dataset:
    """docs -> (doc_id, html) debug/results-browser pages with page
    thumbnails + per-line image/text (reference ocropus-visualize-results
    sink, S11). Thumbnails come from the broadcast store; with a media
    Dataset the pages have no thumbnails."""
    from ..stages.debug_html import debug_html_from_lines

    kw.setdefault("recognizer_kwargs", {})["keep_png"] = True
    rec = ocr_recognized_lines(docs, media_store_ref, **kw)
    return debug_html_from_lines(
        rec, media_store_ref=(media_store_ref if isinstance(
            media_store_ref, ray.ObjectRef) else None))


def ocr_pipeline(docs: rd.Dataset, media_store_ref, **kw) -> rd.Dataset:
    """Compose the full chain lazily; nothing materializes until consumed.
    One pass over the pixels: page accounting rides the line stream as
    marker rows (explode_lines(page_markers=True))."""
    from ..stages.reassemble import reassemble_partition
    from .relational import partition_map

    rec = ocr_recognized_lines(docs, media_store_ref, **kw)
    rec_rows = rec.map_batches(lines_to_union_rows, batch_format="pyarrow")
    span_rows = docs.map_batches(spans_to_union_rows, batch_format="pyarrow")
    return partition_map(span_rows.union(rec_rows), "doc_id",
                         reassemble_partition)


def ocr_hocr(docs: rd.Dataset, media_store_ref, **kw) -> rd.Dataset:
    """docs -> (doc_id, html) hOCR documents (reference ocropus-hocr
    sink, SURVEY.md S9/A8/A9): recognized lines grouped per doc and
    formatted in reading order with the median-xheight paragraph
    heuristic."""
    from ..stages.hocr import hocr_from_lines

    rec = ocr_recognized_lines(docs, media_store_ref, **kw)
    return hocr_from_lines(rec)


def dewarp_line_stats(docs: rd.Dataset, media_store_ref) -> rd.Dataset:
    """Standalone dewarp tool (reference ocropus-dewarp:42-53, R13):
    segment pages, center-normalize each line, return the dewarped
    geometry (doc_id, media_ref, line_order, dw_h, dw_w, ink_frac).
    ``media_store_ref`` as for ``ocr_recognized_lines``."""
    from ..functions import png as _png
    from ..stages.lineest import normalize_line

    lines = _page_lines(docs, media_store_ref)

    def dewarp(batch: pa.Table) -> pa.Table:
        rows = {k: [] for k in
                ("doc_id", "media_ref", "line_order", "dw_h", "dw_w", "ink_frac")}
        for doc, ref, order, data in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("line_order").to_pylist(),
            batch.column("line_png").to_pylist(),
        ):
            if data is None or order < 0:
                continue
            gray = _png.decode_gray(data)
            if gray.size == 0 or gray.max() == gray.min():
                continue
            norm = normalize_line(gray)
            ink = 1.0 - norm / max(norm.max(), 1e-9)
            rows["doc_id"].append(doc)
            rows["media_ref"].append(ref)
            rows["line_order"].append(order)
            rows["dw_h"].append(norm.shape[0])
            rows["dw_w"].append(norm.shape[1])
            rows["ink_frac"].append(round(float((ink > 0.5).mean()), 6))
        return pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], pa.string()),
                "media_ref": pa.array(rows["media_ref"], pa.string()),
                "line_order": pa.array(rows["line_order"], pa.int32()),
                "dw_h": pa.array(rows["dw_h"], pa.int32()),
                "dw_w": pa.array(rows["dw_w"], pa.int32()),
                "ink_frac": pa.array(rows["ink_frac"], pa.float64()),
            }
        )

    return lines.map_batches(dewarp, batch_format="pyarrow")


# counter -> the per-doc output column it sums (``docs`` counts rows)
_OCR_COUNTERS = {"pages": "n_pages", "lines_segmented": "n_lines",
                 "skipped_pages": "n_skipped_pages",
                 "chars_decoded": "chars_decoded",
                 "low_confidence_lines": "low_confidence_lines"}


def _ocr_counters(_frag: int, t: pa.Table) -> dict:
    return {"docs": t.num_rows,
            **{k: int(pc.sum(t[c]).as_py() or 0)
               for k, c in _OCR_COUNTERS.items()}}


def run_ocr_with_checkpoint(
    docs_path: str,
    media_path: str,
    out_root: str,
    num_fragments: int = 4,
    model_path: str | None = None,
) -> dict:
    """Resumable run: docs split into the fragments of
    ``checkpoint.fragment_plan`` (input FILE GROUPS for a multi-file
    directory — each file read once across the whole job — else doc-id
    hash filters), and ``checkpoint.run_fragments`` runs
    ``ocr_pipeline`` on each fragment without a manifest, writes its
    parquet and commits the manifest (lineage + counters). A killed run
    reprocesses at most the one in-flight fragment."""
    media_ref = put_media_store(media_path)
    nfrag, reader = ckpt.fragment_plan(docs_path, num_fragments, out_root)
    return ckpt.run_fragments(
        out_root, nfrag,
        lambda frag: ocr_pipeline(reader(frag), media_ref,
                                  model_path=model_path),
        _ocr_counters, columns=tuple(_OCR_COUNTERS.values()))
