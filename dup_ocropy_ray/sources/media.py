"""Media (image blob) resolution for ``media_ref`` columns.

One lookup, ``attach_media``, serves both scale regimes (SURVEY.md §1.3,
ray_guide "Joins and lookups"):

- **broadcast** (media store fits the object store): ``put_media_store``
  ``ray.put``s a {media_ref: bytes} dict ONCE; each page task reads it
  zero-copy from the object store and calls ``attach_media`` on it.
- **Dataset** (100 TB path): the media store is its own Dataset keyed
  by ``media_ref``. Page rows and media rows carry their base ref as
  ``_base`` and meet in ONE ``relational.partition_map`` exchange on it
  (a hash tag plus Ray's sort shuffle: plain tasks, no aggregator
  actors); each partition builds the dict of its own media rows and
  calls ``attach_media``. Neither side materializes on one node, and
  page bytes cross the shuffle once.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

# The page-row columns that media resolution carries through.
_PAGE_SCHEMA = pa.schema([("doc_id", pa.string()), ("media_ref", pa.string()),
                         ("span_offset", pa.int32())])
# Page rows and media rows in one exchange: page rows leave ``bytes``
# null, media rows leave ``doc_id`` and ``span_offset`` null.
_SIDE_SCHEMA = pa.schema([("_base", pa.string()), ("_media", pa.bool_())]
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
    ({media_ref: bytes}). ``.get``: a dangling media_ref, or a null one,
    yields a null page_png, which flows into binarize_png's poison-pill
    handling as a skip-status row (skip-don't-fail). G7: a sibling
    "<ref>.mask" entry is a user separator mask (reference
    ocropus-gpageseg:268-276 reads base+".mask.png"); the column is
    always attached (null where absent) for schema stability."""
    refs = batch.column("media_ref").to_pylist()
    page = [None if r is None else store.get(r) for r in refs]
    mask = [None if r is None else store.get(r + ".mask") for r in refs]
    out = batch.append_column("page_png", pa.array(page, pa.binary()))
    return out.append_column("mask_png", pa.array(mask, pa.binary()))


def _side(t: pa.Table, media: bool) -> pa.Table:
    """Rows of one side -> ``_SIDE_SCHEMA``, ``_base`` the ref with every
    trailing ".mask" stripped, so a page, its blob and its mask (and the
    mask's own ".mask", should a page ref end in ".mask") always share a
    partition."""
    refs = t.column("media_ref").cast(pa.string())
    cols = {"_base": pc.replace_substring_regex(refs, r"(\.mask)+$", ""),
            "_media": pa.nulls(len(t), pa.bool_()).fill_null(media)}
    for f in _SIDE_SCHEMA:
        if f.name not in cols:
            cols[f.name] = (t.column(f.name).cast(f.type)
                            if f.name in t.column_names
                            else pa.nulls(len(t), f.type))
    return pa.table(cols, schema=_SIDE_SCHEMA)


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
    ``partition_map`` exchange on the base ref, at its default partition
    count; output rows as ``attach_media`` gives them (a dangling or
    null ref keeps its row with a null page_png)."""
    from ..pipelines.relational import partition_map

    both = (pages.map_batches(_side, fn_kwargs={"media": False},
                              batch_format="pyarrow")
            .union(media.map_batches(_side, fn_kwargs={"media": True},
                                     batch_format="pyarrow")))
    return partition_map(both, "_base", _attach_partition,
                         batch_format="pyarrow")
