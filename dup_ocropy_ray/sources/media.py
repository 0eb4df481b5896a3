"""Media (image blob) resolution for ``media_ref`` columns.

Two scale regimes (SURVEY.md §1.3, ray_guide "Joins and lookups"):

- **broadcast** (default here; media store fits the object store): the
  driver ``ray.put``s a {media_ref: bytes} dict ONCE; each resolver task
  reads it zero-copy from the object store — never re-shipped per batch.
- **join** (100 TB path): the media store is its own Dataset keyed by
  ``media_ref``; pages join to blobs with a hash-partitioned
  ``Dataset.join`` so neither side is materialized on one node.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray


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


def _media_split_blobs(t: pa.Table) -> pa.Table:
    """media (media_ref, bytes) -> (media_ref, page_png) for base entries."""
    import pyarrow.compute as pc

    keep = pc.invert(pc.ends_with(t.column("media_ref"), pattern=".mask"))
    t = t.filter(keep)
    return t.rename_columns(["media_ref", "page_png"])


def _media_split_masks(t: pa.Table) -> pa.Table:
    """media -> (media_ref, mask_png) for '<ref>.mask' sibling entries
    (G7 user separator masks, reference ocropus-gpageseg:268-276),
    keyed by the BASE ref so they join to their page rows."""
    import pyarrow.compute as pc

    keep = pc.ends_with(t.column("media_ref"), pattern=".mask")
    t = t.filter(keep)
    base = pc.utf8_replace_slice(
        t.column("media_ref"), start=-5, stop=2**30, replacement=""
    )
    return pa.table({"media_ref": base, "mask_png": t.column("bytes")})


def resolve_media_join(pages, media, num_partitions: int = 16):
    """Scale path: hash-partitioned joins pages⋈media on media_ref (both
    sides large).  LEFT OUTER so a dangling media_ref yields a null
    page_png — it flows into binarize's poison-pill handling and emits a
    skip-status page marker instead of silently disappearing (rows-in ==
    rows-out accounting).  A second left join attaches '<ref>.mask'
    sibling separator masks (parity with the broadcast path / G7); the
    mask side is typically tiny but arbitrarily large masks still only
    cost one more hash-partitioned exchange on the same key."""
    import ray.data as rd

    blobs = media.map_batches(_media_split_blobs, batch_format="pyarrow")
    # a corpus with ZERO mask entries leaves the join's right side with no
    # blocks (Ray's hash-join aggregator then has no schema and fails on
    # FieldRef(media_ref)); one sentinel row keeps the schema present and
    # can never match a real page ref
    sentinel = rd.from_arrow(
        pa.table({"media_ref": pa.array(["\x00__no_mask__"], pa.string()),
                  "mask_png": pa.array([None], pa.binary())})
    )
    masks = media.map_batches(
        _media_split_masks, batch_format="pyarrow"
    ).union(sentinel)
    out = pages.join(
        blobs,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("media_ref",),
    )
    return out.join(
        masks,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("media_ref",),
    )
