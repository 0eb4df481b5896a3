"""Document reassembly: interleave recognized text spans with the original
spans in reading order (the output invariant: span-sequence equality on
(kind, text, media_ref, order), BASELINE.json / FIXTURES.md).

Implemented as one ``relational.partition_map`` on ``doc_id`` over a
union of small row kinds (original span rows, recognized line rows and
page status rows): each partition reassembles all of its docs in one
vectorized call, and pixel data never enters the shuffle (SURVEY.md
§7.4 "never carry pixel data through the groupby"). Within a doc rows
sort by (span_offset, line_order); text spans for a page follow that
page's media span in reading order (reference semantics:
ocropus-gpageseg:440-449 reading-order renumber + ocropus-hocr:65-159
in-order assembly).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

OUT_SPAN = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

OUT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(OUT_SPAN)),
        pa.field("n_pages", pa.int64()),
        pa.field("n_lines", pa.int64()),
        pa.field("n_skipped_pages", pa.int64()),
        pa.field("chars_decoded", pa.int64()),
        pa.field("low_confidence_lines", pa.int64()),
    ]
)

# union row schema: original spans have rowtype='span', recognized lines
# 'line', page statuses 'page'
UNION_FIELDS = [
    ("doc_id", pa.string()),
    ("rowtype", pa.string()),
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("span_offset", pa.int32()),
    ("line_order", pa.int32()),
    ("status", pa.string()),
    ("confidence", pa.float64()),
]
UNION_SCHEMA = pa.schema([pa.field(n, t) for n, t in UNION_FIELDS])


def spans_to_union_rows(batch: pa.Table) -> pa.Table:
    """Explode original docs (doc_id, spans) into union rows — pure
    Arrow list_flatten/list_parent_indices, no Python per span."""
    import pyarrow.compute as pc

    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    n = len(flat)
    return pa.Table.from_arrays(
        [
            pc.take(batch.column("doc_id"), parents).cast(pa.string()),
            pa.nulls(n, pa.string()).fill_null("span"),
            pc.struct_field(flat, "kind").cast(pa.string()),
            pc.struct_field(flat, "text").cast(pa.string()),
            pc.struct_field(flat, "media_ref").cast(pa.string()),
            pc.struct_field(flat, "offset").cast(pa.int32()),
            pa.nulls(n, pa.int32()).fill_null(-1),
            pa.nulls(n, pa.string()).fill_null("ok"),
            pa.nulls(n, pa.float64()).fill_null(1.0),
        ],
        schema=UNION_SCHEMA,
    )


def lines_to_union_rows(batch: pa.Table) -> pa.Table:
    """Recognized line rows -> union rows. Marker rows (line_order = -1,
    emitted by explode_lines(page_markers=True)) become 'page' accounting
    rows carrying the page's seg status; real lines become 'line' rows."""
    import pyarrow.compute as pc

    n = batch.num_rows
    lo = batch.column("line_order")
    marker = pc.and_kleene(pc.is_valid(lo), pc.less(lo, 0))
    marker = marker.combine_chunks() if isinstance(marker, pa.ChunkedArray) \
        else marker
    pstat = (batch.column("page_status")
             if "page_status" in batch.column_names
             else pa.nulls(n, pa.string()).fill_null("ok"))
    return pa.Table.from_arrays(
        [
            batch.column("doc_id").cast(pa.string()),
            pc.if_else(marker, "page", "line").cast(pa.string()),
            pc.if_else(marker, "media", "text").cast(pa.string()),
            pc.if_else(marker, pa.nulls(n, pa.string()),
                       batch.column("text").cast(pa.string())),
            batch.column("media_ref").cast(pa.string()),
            batch.column("span_offset").cast(pa.int32()),
            lo.cast(pa.int32()),
            pc.if_else(marker, pstat.cast(pa.string()),
                       batch.column("rec_status").cast(pa.string())),
            batch.column("confidence").cast(pa.float64()),
        ],
        schema=UNION_SCHEMA,
    )


def reassemble_partition(g: pd.DataFrame) -> pa.Table:
    """Partition-level reassembly, fully vectorized: one UDF call handles
    ALL docs hashed into this bucket with no per-row Python. The
    interleave is ONE stable sort on (doc_id, span_offset, rank) — span
    rows carry rank -1, ok line rows rank = line_order, so each page's
    lines land right after their media span; offsets renumber via
    cumcount; the list column builds zero-copy from group sizes
    (ListArray.from_arrays). Per doc: the original spans in offset
    order, each media span followed by its page's ok lines in
    line_order; a page counts as skipped when its status row is not
    ok, a line as low-confidence below 0.6."""
    import numpy as np

    docs = np.sort(g["doc_id"].unique().astype(object))
    if len(docs) == 0:
        return pa.Table.from_pylist([], schema=OUT_SCHEMA)
    spans = g[g.rowtype == "span"]
    lines = g[(g.rowtype == "line") & (g.status == "ok")]
    pages = g[g.rowtype == "page"]

    media = spans.loc[spans["kind"] == "media", ["doc_id", "span_offset"]]
    # a line attaches only to an existing media span of its doc
    lines = lines.merge(media.drop_duplicates(), on=["doc_id", "span_offset"],
                        how="inner")

    out_spans = pd.DataFrame({
        "doc_id": spans["doc_id"].to_numpy(object),
        "kind": spans["kind"].to_numpy(object),
        "text": spans["text"].to_numpy(object),
        "media_ref": spans["media_ref"].to_numpy(object),
        "span_offset": spans["span_offset"].to_numpy(),
        "_rank": np.full(len(spans), -1, dtype=np.int64),
    })
    out_lines = pd.DataFrame({
        "doc_id": lines["doc_id"].to_numpy(object),
        "kind": np.full(len(lines), "text", dtype=object),
        "text": lines["text"].to_numpy(object),
        "media_ref": np.full(len(lines), None, dtype=object),
        "span_offset": lines["span_offset"].to_numpy(),
        "_rank": lines["line_order"].to_numpy(np.int64),
    })
    allr = pd.concat([out_spans, out_lines], ignore_index=True)
    allr = allr.sort_values(["doc_id", "span_offset", "_rank"], kind="stable")
    allr["offset"] = allr.groupby("doc_id", sort=False).cumcount()

    sizes = (allr.groupby("doc_id", sort=False).size()
             .reindex(docs, fill_value=0))
    struct = pa.StructArray.from_arrays(
        [pa.array(allr["kind"].to_numpy(object), pa.string()),
         pa.array(allr["text"].to_numpy(object), pa.string()),
         pa.array(allr["media_ref"].to_numpy(object), pa.string()),
         pa.array(allr["offset"].to_numpy(np.int32), pa.int32())],
        fields=list(OUT_SPAN))
    offsets = np.concatenate([[0], np.cumsum(sizes.to_numpy())])
    spans_col = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), struct)

    def per_doc(s: pd.Series) -> np.ndarray:
        return s.reindex(docs, fill_value=0).to_numpy(np.int64)

    n_pages = per_doc(media.groupby("doc_id").size())
    pstat = pages.drop_duplicates(["doc_id", "span_offset"])
    mm = media.merge(pstat[["doc_id", "span_offset", "status"]],
                     on=["doc_id", "span_offset"], how="left")
    n_skipped = per_doc(
        mm[mm["status"].notna() & (mm["status"] != "ok")]
        .groupby("doc_id").size())
    n_lines = per_doc(lines.groupby("doc_id").size())
    chars = per_doc(lines.assign(_c=lines["text"].fillna("").str.len())
                    .groupby("doc_id")["_c"].sum())
    low_conf = per_doc(lines[lines["confidence"] < 0.6]
                       .groupby("doc_id").size())

    return pa.Table.from_arrays(
        [pa.array(docs, pa.string()), spans_col,
         pa.array(n_pages), pa.array(n_lines), pa.array(n_skipped),
         pa.array(chars), pa.array(low_conf)],
        schema=OUT_SCHEMA)


def map_docs_partitioned(
    rec_lines: "rd.Dataset",
    per_doc,
    schema: pa.Schema,
) -> "rd.Dataset":
    """Run a per-document formatting UDF over ``partition_map``
    partitions on ``doc_id``: one UDF call per partition with a pandas
    groupby inside, instead of one call per doc_id (millions of tiny UDF
    invocations at corpus scale). ``per_doc(g) -> pa.Table`` keeps its
    per-doc signature."""
    from ..pipelines.relational import partition_map

    def per_part(g: pd.DataFrame) -> pa.Table:
        tables = [
            t
            for _, doc in g.groupby("doc_id", sort=True)
            for t in [per_doc(doc)]
            if t.num_rows
        ]
        if not tables:
            return pa.Table.from_pylist([], schema=schema)
        return pa.concat_tables(tables)

    return partition_map(rec_lines, "doc_id", per_part)
