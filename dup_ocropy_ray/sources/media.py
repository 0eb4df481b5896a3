"""Media (image blob) resolution for ``media_ref`` columns.

One lookup, ``attach_media``, serves both scale regimes (SURVEY.md §1.3,
ray_guide "Joins and lookups"):

- **broadcast** (media store fits the object store): ``put_media_store``
  ``ray.put``s a {media_ref: bytes} dict ONCE; each page task reads it
  zero-copy from the object store and calls ``attach_media`` on it.
- **Dataset** (100 TB path): the media store is its own Dataset keyed
  by ``media_ref``. Page rows and media rows are tagged with a hash of
  their base ref and meet in ONE sort-shuffle exchange
  (``groupby.map_groups``, plain tasks, no aggregator actors); each
  partition builds the dict of its own media rows and calls
  ``attach_media``. Neither side materializes on one node, and page
  bytes cross the shuffle once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

# The page-row columns that media resolution carries through.
_PAGE_SCHEMA = pa.schema([("doc_id", pa.string()), ("media_ref", pa.string()),
                         ("span_offset", pa.int32())])
# Page rows and media rows in one exchange: page rows leave ``bytes``
# null, media rows leave ``doc_id`` and ``span_offset`` null.
_TAGGED_SCHEMA = pa.schema([("_part", pa.int64()), ("_media", pa.bool_())]
                           + list(_PAGE_SCHEMA) + [("bytes", pa.binary())])


def load_media_table(path: str) -> pa.Table:
    if path.endswith(".lance"):
        import lance

        return lance.dataset(path).to_table()
    return pq.read_table(path)


def put_media_store(path: str) -> "ray.ObjectRef":
    """Broadcast the media blob store once (driver side)."""
    t = load_media_table(path)
    store = dict(zip(t.column("media_ref").to_pylist(), t.column("bytes").to_pylist()))
    return ray.put(store)


def attach_media(batch: pa.Table, store) -> pa.Table:
    """Page rows + ``page_png`` and ``mask_png`` looked up in ``store``
    ({media_ref: bytes}). ``.get``: a dangling media_ref yields a null
    page_png, which flows into binarize_png's poison-pill handling as a
    skip-status row (skip-don't-fail). G7: a sibling "<ref>.mask" entry
    is a user separator mask (reference ocropus-gpageseg:268-276 reads
    base+".mask.png"); the column is always attached (null where absent)
    for schema stability."""
    refs = batch.column("media_ref").to_pylist()
    out = batch.append_column(
        "page_png", pa.array([store.get(r) for r in refs], pa.binary()))
    return out.append_column(
        "mask_png", pa.array([store.get(r + ".mask") for r in refs], pa.binary()))


def _tag(t: pa.Table, media: bool, num_partitions: int) -> pa.Table:
    """Rows of one side -> ``_TAGGED_SCHEMA``, ``_part`` a process-stable
    hash of the base ref. Every trailing ".mask" is stripped, so a page,
    its blob and its mask (and the mask's own ".mask", should a page ref
    end in ".mask") always share a partition."""
    refs = t.column("media_ref").cast(pa.string())
    base = pc.replace_substring_regex(refs, r"(\.mask)+$", "")
    h = pd.util.hash_array(
        np.asarray(base.to_pylist(), dtype=object), categorize=False)
    cols = {"_part": pa.array((h % num_partitions).astype(np.int64)),
            "_media": pa.nulls(len(t), pa.bool_()).fill_null(media)}
    for f in _TAGGED_SCHEMA:
        if f.name not in cols:
            cols[f.name] = (t.column(f.name).cast(f.type)
                            if f.name in t.column_names
                            else pa.nulls(len(t), f.type))
    return pa.table(cols, schema=_TAGGED_SCHEMA)


def _attach_partition(g: pa.Table) -> pa.Table:
    """One hash partition: its media rows become the lookup dict of its
    page rows. Ray calls it only for non-empty groups; an empty reducer
    emits a column-less block, which the map operators downstream pass
    through without calling their UDFs."""
    is_media = g.column("_media")
    media = g.filter(is_media)
    store = dict(zip(media.column("media_ref").to_pylist(),
                     media.column("bytes").to_pylist()))
    pages = g.filter(pc.invert(is_media)).select(_PAGE_SCHEMA.names)
    return attach_media(pages, store)


def resolve_media_join(pages, media):
    """Scale path: page rows (``_PAGE_SCHEMA``) of one Dataset resolved
    against a media Dataset of (media_ref, bytes), both sides large. One
    sort-shuffle exchange keyed by the base-ref hash, sized by
    ``tuning.suggested_partitions``; output rows as ``attach_media``
    gives them (a dangling ref keeps its row with a null page_png)."""
    from ..tuning import suggested_partitions

    n = suggested_partitions()
    tagged = (pages.map_batches(_tag, fn_kwargs={"media": False,
                                                 "num_partitions": n},
                                batch_format="pyarrow")
              .union(media.map_batches(_tag, fn_kwargs={"media": True,
                                                        "num_partitions": n},
                                       batch_format="pyarrow")))
    return tagged.groupby("_part").map_groups(_attach_partition,
                                              batch_format="pyarrow")
