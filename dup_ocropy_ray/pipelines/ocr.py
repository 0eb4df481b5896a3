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

import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

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
    import pyarrow.compute as pc

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


def _doc_fragment_filter(num_fragments: int, frag: int):
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        h = pd.util.hash_array(__import__("numpy").asarray(ids, dtype=object))
        keep = (h % num_fragments) == frag
        return batch.filter(pa.array(keep))

    return fn


def _lpt_groups(files: list[str], nfrag: int) -> list[list[str]]:
    """Size-aware fragment grouping — greedy LPT (longest processing
    time) bin packing on file byte sizes, so a skewed input directory
    (one 10 GiB file among 4 GiB siblings) doesn't hand one fragment
    3x the work of the others the way round-robin `files[i::n]` can.
    Deterministic: ties break on (size desc, path), bins on (load,
    index); groups and their members come out sorted for stable plan
    files."""
    # floor each size at 1 byte: zero-byte files would otherwise never
    # raise a bin's load, piling into bin 0 and leaving other bins EMPTY
    # (reader(frag) indexes groups[frag][0]); with positive sizes the
    # first nfrag placements land in distinct bins, so no group is empty
    sizes = [(max(os.path.getsize(p), 1), p) for p in files]
    sizes.sort(key=lambda t: (-t[0], t[1]))
    loads = [0] * nfrag
    groups: list[list[str]] = [[] for _ in range(nfrag)]
    for sz, p in sizes:
        i = min(range(nfrag), key=lambda j: (loads[j], j))
        loads[i] += sz
        groups[i].append(p)
    return [sorted(g) for g in groups]


def fragment_plan(docs_path: str, num_fragments: int,
                  out_root: str | None = None):
    """Checkpoint fragmentation plan shared by the OCR / extraction /
    dedup jobs: returns (nfrag, reader) where reader(frag) yields that
    fragment's docs Dataset.

    Scale path — the input is a directory of many parquet files (the
    100 TB shape): fragments are FILE GROUPS, so running all fragments
    reads each input file exactly once (1/F of the corpus per fragment),
    instead of N full-corpus scans with a hash filter (the dedup job's
    two-scan pattern, dedup.run_dedup_with_checkpoint). The file list
    is PINNED in ``<out_root>/_plan.json`` on the first run: a resume
    re-reads the recorded groups, so files that appear in (or vanish
    from) the input directory between runs cannot silently reassign
    docs across already-committed fragments — new files need a new
    out_root (or a completed job rerun).

    Fallback — a single file (or jsonl/lance path): per-fragment
    doc-id-hash filter scans; fine at test scale, and corpus-scale
    inputs are always many files."""
    import glob as _glob
    import json

    from ..tuning import configure_data_context, parquet_schema

    files = (sorted(_glob.glob(os.path.join(docs_path, "**", "*.parquet"),
                               recursive=True))
             if os.path.isdir(docs_path) and not docs_path.endswith(".lance")
             else [])
    plan_path = (os.path.join(out_root, "_plan.json") if out_root else None)
    if len(files) > 1:
        if plan_path and os.path.exists(plan_path):
            with open(plan_path) as f:
                plan = json.load(f)
            if plan.get("mode", "file_groups") != "file_groups":
                raise RuntimeError(
                    f"checkpoint at {out_root} was fragmented by "
                    f"{plan.get('mode')!r}, not file groups — its committed "
                    f"manifests don't map to file-group fragments; use a "
                    f"fresh out_root")
            groups = plan["groups"]
            nfrag = len(groups)
            missing = [p for g in groups for p in g if not os.path.exists(p)]
            if missing:
                raise FileNotFoundError(
                    f"fragment plan references vanished inputs: "
                    f"{missing[:3]}{'...' if len(missing) > 3 else ''}")
        else:
            if plan_path and ckpt.completed_fragments(out_root):
                # Manifests without a plan = a checkpoint produced by a
                # different fragmentation scheme (pre-plan doc-id-hash
                # runs). Mapping those fragment ids onto file groups
                # would silently skip/duplicate documents on resume.
                raise RuntimeError(
                    f"checkpoint at {out_root} has committed fragments but "
                    f"no _plan.json — it was produced under a different "
                    f"fragmentation scheme; use a fresh out_root")
            nfrag = min(num_fragments, len(files))
            groups = _lpt_groups(files, nfrag)
            if plan_path:
                os.makedirs(out_root, exist_ok=True)
                tmp = plan_path + f".tmp{os.getpid()}"
                with open(tmp, "w") as f:
                    json.dump({"mode": "file_groups", "groups": groups}, f)
                os.replace(tmp, plan_path)

        def reader(frag: int) -> rd.Dataset:
            configure_data_context()
            return rd.read_parquet(groups[frag],
                                   schema=parquet_schema(groups[frag][0]))

        return nfrag, reader

    if plan_path and os.path.exists(plan_path):
        with open(plan_path) as f:
            plan = json.load(f)
        if plan.get("mode") != "doc_hash" or \
                plan.get("num_fragments") != num_fragments:
            raise RuntimeError(
                f"checkpoint at {out_root} was planned as "
                f"{plan.get('mode')!r}/{plan.get('num_fragments')} but this "
                f"run would fragment by doc_hash/{num_fragments}; use a "
                f"fresh out_root or the original settings")
    elif plan_path:
        if ckpt.completed_fragments(out_root):
            raise RuntimeError(
                f"checkpoint at {out_root} has committed fragments but no "
                f"_plan.json — it predates plan pinning; use a fresh "
                f"out_root")
        os.makedirs(out_root, exist_ok=True)
        tmp = plan_path + f".tmp{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump({"mode": "doc_hash", "num_fragments": num_fragments},
                      f)
        os.replace(tmp, plan_path)

    def reader(frag: int) -> rd.Dataset:
        return read_docs(docs_path).map_batches(
            _doc_fragment_filter(num_fragments, frag),
            batch_format="pyarrow")

    return num_fragments, reader


def run_ocr_with_checkpoint(
    docs_path: str,
    media_path: str,
    out_root: str,
    num_fragments: int = 4,
    model_path: str | None = None,
    **pipeline_kw,
) -> dict:
    """Resumable run: partition docs into fragments (per input FILE
    GROUP when the input is a multi-file directory — each file read
    once across the whole job — else doc-id-hash filters, see
    fragment_plan); for each fragment without a manifest, run the
    pipeline, write parquet, then commit the manifest (lineage +
    counters) atomically. A killed run reprocesses at most the one
    in-flight fragment (state/checkpoint.py)."""
    os.makedirs(out_root, exist_ok=True)
    media_ref = put_media_store(media_path)
    num_fragments, frag_reader = fragment_plan(docs_path, num_fragments,
                                               out_root=out_root)
    pending = ckpt.pending_fragments(out_root, num_fragments)
    for frag in pending:
        frag_t0 = time.time()
        docs = frag_reader(frag)
        out = ocr_pipeline(docs, media_ref, model_path=model_path, **pipeline_kw)
        frag_dir = ckpt.fragment_dir(out_root, frag)
        tmp_dir = frag_dir + ".tmp"
        # a run killed mid-write leaves partial part files in .tmp; Ray's
        # write_parquet appends by default, so clear before retrying or the
        # committed fragment would carry duplicate rows
        import shutil

        shutil.rmtree(tmp_dir, ignore_errors=True)
        result = out.materialize()
        result.write_parquet(tmp_dir)
        # a fragment with zero docs writes no files at all — commit an
        # empty directory so the manifest/rename contract still holds
        os.makedirs(tmp_dir, exist_ok=True)
        if os.path.exists(frag_dir):
            shutil.rmtree(frag_dir)
        os.replace(tmp_dir, frag_dir)
        parts_files = [f for f in os.listdir(frag_dir)
                       if f.endswith(".parquet")]
        tbl = (pa.concat_tables([pq.read_table(os.path.join(frag_dir, f))
                                 for f in parts_files])
               if parts_files else None)
        if tbl is None:
            counters = {"docs": 0, "pages": 0, "lines_segmented": 0,
                        "skipped_pages": 0, "chars_decoded": 0,
                        "low_confidence_lines": 0}
            wall = time.time() - frag_t0
            ckpt.commit_fragment(out_root, frag, counters, metrics={
                "wall_sec": round(wall, 3), "pages_per_sec": None})
            continue
        counters = {
            "docs": tbl.num_rows,
            "pages": int(pa.compute.sum(tbl.column("n_pages")).as_py() or 0),
            "lines_segmented": int(pa.compute.sum(tbl.column("n_lines")).as_py() or 0),
            "skipped_pages": int(
                pa.compute.sum(tbl.column("n_skipped_pages")).as_py() or 0
            ),
            "chars_decoded": int(
                pa.compute.sum(tbl.column("chars_decoded")).as_py() or 0
            ),
            "low_confidence_lines": int(
                pa.compute.sum(tbl.column("low_confidence_lines")).as_py() or 0
            ),
        }
        wall = time.time() - frag_t0
        ckpt.commit_fragment(out_root, frag, counters, metrics={
            "wall_sec": round(wall, 3),
            "pages_per_sec": round(counters["pages"] / wall, 3)
            if wall > 0 else None,
        })
    return {
        "fragments_run": pending,
        "counters": ckpt.aggregate_counters(out_root),
    }
