"""Deduplication operators over a text document table — the large-scale
training-data family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale notes (each documented against its shuffle). Every co-locating
exchange below is ONE ``relational.partition_map`` on the real key
columns (the package's one keyed exchange and its one partition hash);
the per-key work runs vectorized inside each partition, and the
partition count is partition_map's (``tuning.suggested_partitions()``):
- exact: one exchange keyed on the text (partials impossible — dedup
  IS the shuffle) with per-text first-by-id.
- minhash-lsh: shingle→signature per batch (vectorized), explode to
  (band, bucket) rows, one exchange on the band keys, pairwise only
  within buckets, verify with true Jaccard.
- simhash: signature per batch, bucket by the 4x16-bit band trick,
  verify Hamming distance within buckets.
- ngram-jaccard: partition-scoped all-pairs (key = caller-chosen
  partition columns) inside map_groups — exact, SQL-matchable; small
  groups via one docs x vocab matmul, oversized via LSH prefilter.
- embedding: cosine all-pairs within label partitions (numpy matmul per
  group).
- connected_components: pairs -> transitive clusters (iterative
  min-label propagation, delta frontier, per-round block compaction).
- keep_best: clusters + scores -> the kept representative per cluster
  (the final keep/drop decision), two metadata-scale shuffles.
"""

from __future__ import annotations

import time as _time

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions import hashing
from .relational import bucket_join, keyed_combine, partition_map

# exact n-gram Jaccard uses a dense docs x vocab matmul while the matrix
# stays under this many float32 cells (~200 MB); module-level so tests
# can force the per-pair-loop fallback
_DENSE_BUDGET = 50_000_000


# ------------------------------------------------------------------ exact


def exact_dedup(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
                ) -> rd.Dataset:
    """Keep the min-id row per distinct text. One exchange keyed on the
    text: equal texts co-locate, and each partition holds many texts
    (O(partitions) UDF calls, not O(distinct texts))."""

    def first_per_text(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized within the partition: one C-level groupby-head
        return (
            g.sort_values(id_col).groupby(text_col, as_index=False, sort=False).head(1)
        )

    return partition_map(ds, text_col, first_per_text)


# ------------------------------------------------------------- minhash LSH


def minhash_candidates(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    num_bands: int = 32,
    shingle_k: int = 3,
    seed: int = 1234,
) -> rd.Dataset:
    """(band_id, bucket, doc_id) rows — the LSH index. One exchange on
    (band_id, bucket) later yields candidate groups.

    Fully vectorized per batch: tokens are hashed ONCE for the whole batch
    (hashing.batch_shingle_hashes), per-doc signature minima come from one
    ``np.minimum.reduceat`` per permutation chunk, and band keys fold
    vectorized over the doc axis — no per-doc Python loop."""
    a, b = hashing.minhash_params(num_perm, seed)

    def sig_rows(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        vals, offs = hashing.batch_shingle_hashes(
            batch[text_col].tolist(), shingle_k
        )
        sigs = hashing.batch_minhash_signatures(vals, offs, a, b)
        bandkeys = hashing.batch_minhash_bands(sigs, num_bands)  # (n, B)
        return pd.DataFrame(
            {
                id_col: np.repeat(batch[id_col].to_numpy(dtype=object),
                                  num_bands),
                "band_id": np.tile(np.arange(num_bands, dtype=np.int64), n),
                "bucket": bandkeys.reshape(-1),
            }
        )

    return ds.map_batches(sig_rows, batch_format="pandas", batch_size=4096)


def minhash_dup_pairs_ds(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    num_bands: int = 32,
    shingle_k: int = 3,
    threshold: float = 0.7,
    seed: int = 1234,
    prune_corpus: bool = True,
    bloom_bits: int = 1 << 22,
) -> rd.Dataset:
    """Near-duplicate pairs: LSH candidates -> exact Jaccard verify,
    END-TO-END DISTRIBUTED (returns a Dataset of (doc_a, doc_b, jaccard)).

    Stages (nothing pair- or text-sized ever lands on the driver), each
    one ``partition_map`` with a vectorized partition body — NO Ray
    hash-join operators (each join spins up its own aggregator actor
    pool; three of them dominated this pipeline's wall time and their
    empty-partition blocks have no schema):

    1. candidate pairs inside each LSH-bucket hash-partition, locally
       deduped (a pair may still surface from several bands / partitions);
    2. ONE shuffle keyed by doc id over the union of
       (a) corpus rows (id, text) and
       (b) pair-side rows (key=member id, doc_a, doc_b, side) — each pair
       exploded into two rows. Inside each partition: side rows are
       globally deduped (equal (doc_a, doc_b, side) rows co-locate by
       construction), shingle-hash sets are computed ONLY for docs some
       local side row references (the prune that the left_semi join used
       to do, now partition-local), and each side row leaves with its
       member's set as raw uint64 bytes;
    3. ONE candidate-scale shuffle keyed on (doc_a, doc_b): the
       two sides of each pair co-locate, exact Jaccard via per-pair
       C-level ``np.intersect1d`` on sorted-unique uint64 sets,
       threshold filter.

    With ``prune_corpus`` (default on) a Bloom filter over the candidate
    member ids (functions/hashing.py, 4-hash, ``bloom_bits`` wide) is
    built from the materialized pair set and broadcast via ray.put; the
    corpus leg is filtered by membership BEFORE stage 2's exchange, so
    only candidate texts (plus a tunable false-positive trickle — FPs
    just ship harmless extra rows, never alter results) move through the
    corpus-scale shuffle. At 100 TB with realistic dup rates that turns
    the dominant full-text exchange into a candidate-scale one. The
    driver-side bitmap OR is n_blocks x (bloom_bits/8) bytes — size
    bloom_bits to ~10 bits per expected candidate."""
    cand = minhash_candidates(ds, text_col, id_col, num_perm, num_bands,
                              shingle_k, seed)

    # all UDFs below emit EXPLICITLY-SCHEMA'D ARROW tables, id columns typed
    # from the input schema (metadata-only for parquet reads): empty
    # partitions then carry the real schema, so Ray never logs per-block
    # size-calc errors (np.vectorize over 0-row object columns) or RefBundle
    # schema-mismatch warnings, and shuffle schema dedup hashes arrow
    # schemas cleanly
    id_type = _arrow_id_type(ds, id_col)
    _PAIRS_SCHEMA = pa.schema([("doc_a", id_type), ("doc_b", id_type)])
    _SIDED_SCHEMA = pa.schema([
        ("doc_a", id_type), ("doc_b", id_type), ("side", pa.int8()),
        ("sh", pa.binary()),
    ])
    _OUT_SCHEMA = pa.schema([
        ("doc_a", id_type), ("doc_b", id_type), ("jaccard", pa.float64()),
    ])

    def partition_pairs(g: pd.DataFrame) -> pa.Table:
        # fully vectorized all-pairs within (band_id, bucket) groups:
        # lexsort rows by (group, id), then emit every i<j index pair per
        # group with repeat/cumsum arithmetic — O(total_pairs), no Python
        # loop over buckets
        g = g.drop_duplicates(["band_id", "bucket", id_col])
        key = (g["band_id"].to_numpy(np.uint64)
               * np.uint64(0x9E3779B97F4A7C15)
               + g["bucket"].to_numpy(np.uint64))
        ids = g[id_col].to_numpy(dtype=object)
        order = np.lexsort((ids, key))
        key = key[order]
        ids = ids[order]
        # per-row position within its group and group sizes
        grp_change = np.concatenate([[True], key[1:] != key[:-1]])
        grp_id = np.cumsum(grp_change) - 1
        starts = np.flatnonzero(grp_change)
        sizes = np.diff(np.concatenate([starts, [len(key)]]))
        pos = np.arange(len(key)) - starts[grp_id]
        # row i pairs with the (size - 1 - pos) rows after it in its group
        nright = sizes[grp_id] - 1 - pos
        total = int(nright.sum())
        if total == 0:
            return _PAIRS_SCHEMA.empty_table()
        left = np.repeat(np.arange(len(key)), nright)
        # right index = left index + (1..nright) per left row, built from
        # a global arange minus each segment's start offset
        seg_off = np.concatenate([[0], np.cumsum(nright)])[:-1]
        right = left + 1 + (np.arange(total) - np.repeat(seg_off, nright))
        out = pd.DataFrame(
            {"doc_a": ids[left], "doc_b": ids[right]}
        ).drop_duplicates()
        return pa.Table.from_arrays(
            [pa.array(out["doc_a"], id_type),
             pa.array(out["doc_b"], id_type)],
            schema=_PAIRS_SCHEMA,
        )

    raw_pairs = partition_map(cand, ["band_id", "bucket"], partition_pairs)

    bloom_ref = None
    if prune_corpus:
        # pairs feed BOTH the Bloom build and explode_sides: materialize
        # once (pair-scale, rare-by-construction) so the LSH candidate
        # stage doesn't execute twice
        raw_pairs = raw_pairs.materialize()

        def bloom_partial(b: pd.DataFrame) -> pd.DataFrame:
            bits = np.zeros(bloom_bits // 64, dtype=np.uint64)
            ids = np.concatenate([b["doc_a"].to_numpy(dtype=object),
                                  b["doc_b"].to_numpy(dtype=object)])
            if len(ids):
                hashing.bloom_add(bits, ids, bloom_bits)
            return pd.DataFrame({"bits": [bits.tobytes()]})

        parts = raw_pairs.map_batches(
            bloom_partial, batch_format="pandas").to_pandas()
        acc = np.zeros(bloom_bits // 64, dtype=np.uint64)
        # zero candidate pairs -> every block empty -> Ray never calls
        # the UDF and the column is absent; the all-zero bloom then
        # correctly prunes the whole corpus leg
        if "bits" in parts.columns:
            for blob in parts["bits"].dropna():
                acc |= np.frombuffer(blob, dtype=np.uint64)
        import ray

        bloom_ref = ray.put(acc)

    _UNION_SCHEMA = pa.schema([
        ("key", id_type), ("text", pa.string()),
        ("doc_a", id_type), ("doc_b", id_type),
        ("side", pa.int8()),
    ])

    # pair-side rows: each candidate pair becomes two rows, keyed by one
    # member each, sharing the corpus rows' "key" column
    def explode_sides(b: pd.DataFrame) -> pa.Table:
        n = len(b)
        a_ids = b["doc_a"].to_numpy(dtype=object)
        b_ids = b["doc_b"].to_numpy(dtype=object)
        key = np.concatenate([a_ids, b_ids])
        return pa.Table.from_arrays([
            pa.array(key, id_type),
            pa.nulls(2 * n, pa.string()),
            pa.array(np.concatenate([a_ids, a_ids]), id_type),
            pa.array(np.concatenate([b_ids, b_ids]), id_type),
            pa.array(np.concatenate([np.zeros(n, np.int8),
                                     np.ones(n, np.int8)])),
        ], schema=_UNION_SCHEMA)

    def corpus_rows(b: pd.DataFrame) -> pa.Table:
        if bloom_ref is not None and len(b):
            import ray

            bits = ray.get(bloom_ref)  # zero-copy shared bitmap
            b = b[hashing.bloom_contains(
                bits, b[id_col].to_numpy(dtype=object), bloom_bits)]
        n = len(b)
        key = b[id_col].to_numpy(dtype=object)
        return pa.Table.from_arrays([
            pa.array(key, id_type),
            pa.array(b[text_col].to_numpy(dtype=object), pa.string()),
            pa.nulls(n, id_type),
            pa.nulls(n, id_type),
            pa.array(np.full(n, -1, dtype=np.int8)),
        ], schema=_UNION_SCHEMA)

    unioned = (
        ds.select_columns([id_col, text_col])
        .map_batches(corpus_rows, batch_format="pandas")
        .union(raw_pairs.map_batches(explode_sides, batch_format="pandas"))
    )

    # shuffle 1 (corpus-scale): dedupe side rows, hash shingle sets for
    # locally-referenced docs only, hand each side row its member's set as
    # raw little-endian uint64 bytes (binary column — list columns don't
    # survive the pandas block path losslessly)
    def attach_sets(g: pd.DataFrame) -> pa.Table:
        sides = g[g["side"] >= 0]
        empty = _SIDED_SCHEMA.empty_table()
        if len(sides) == 0:
            return empty
        sides = sides.drop_duplicates(["doc_a", "doc_b", "side"])
        need = pd.unique(sides["key"])
        docs = g[(g["side"] < 0) & g["key"].isin(need)]
        if len(docs) == 0:
            return empty
        sets_ = hashing.batch_shingle_sets(
            [t or "" for t in docs["text"]], shingle_k
        )
        by_id = dict(zip(docs["key"], (s.tobytes() for s in sets_)))
        sh = sides["key"].map(by_id)
        sides = sides[sh.notna().to_numpy()]
        sh = sh.dropna()
        return pa.Table.from_arrays([
            pa.array(sides["doc_a"].to_numpy(dtype=object), id_type),
            pa.array(sides["doc_b"].to_numpy(dtype=object), id_type),
            pa.array(sides["side"].to_numpy(np.int8)),
            pa.array(sh.to_numpy(dtype=object), pa.binary()),
        ], schema=_SIDED_SCHEMA)

    sided = partition_map(unioned, "key", attach_sets)

    # shuffle 2 (candidate-scale): both sides of a pair co-locate; pivot
    # and verify with exact Jaccard
    def verify(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["doc_a", "doc_b", "side"], kind="stable")
        ga = g[g["side"] == 0].set_index(["doc_a", "doc_b"])["sh"]
        gb = g[g["side"] == 1].set_index(["doc_a", "doc_b"])["sh"]
        both = pd.DataFrame({"sh_a": ga, "sh_b": gb}).dropna()
        if len(both) == 0:
            return _OUT_SCHEMA.empty_table()
        jac = np.empty(len(both), dtype=np.float64)
        for i, (A, B) in enumerate(zip(both["sh_a"], both["sh_b"])):
            A = np.frombuffer(A or b"", dtype=np.uint64)
            B = np.frombuffer(B or b"", dtype=np.uint64)
            inter = np.intersect1d(A, B, assume_unique=True).size
            union = A.size + B.size - inter
            jac[i] = 1.0 if union == 0 else inter / union
        keep = jac >= threshold
        idx = both.index[keep]
        return pa.Table.from_arrays([
            pa.array(idx.get_level_values(0).to_numpy(dtype=object), id_type),
            pa.array(idx.get_level_values(1).to_numpy(dtype=object), id_type),
            pa.array(jac[keep]),
        ], schema=_OUT_SCHEMA)

    return partition_map(sided, ["doc_a", "doc_b"], verify)


def minhash_dedup_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    num_bands: int = 32,
    shingle_k: int = 3,
    threshold: float = 0.7,
    seed: int = 1234,
) -> pd.DataFrame:
    """Driver-friendly wrapper over ``minhash_dup_pairs_ds``: only the
    VERIFIED pairs (small) are collected."""
    out = minhash_dup_pairs_ds(
        ds, text_col, id_col, num_perm, num_bands, shingle_k, threshold, seed
    ).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ------------------------------------------------- connected components


def _arrow_id_type(ds: rd.Dataset, col: str) -> pa.DataType:
    """Arrow type of ``col`` from a Dataset schema (numpy/py-typed for
    pandas-block datasets; object-dtype means string ids here)."""
    sch = ds.schema()
    t = dict(zip(sch.names, sch.types))[col]
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()


def connected_components(
    edges: rd.Dataset,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_iters: int = 32,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(doc_id, cluster_id) for every node of the undirected dup-pair
    graph; cluster_id = MIN node id reachable — the collapse step that
    turns any pair-producing dedup op's output into canonical keep/drop
    groups (transitive: a~b, b~c puts a,b,c in one cluster even when
    a,c never paired).

    Distributed iterative min-label propagation on vertex-keyed
    ``partition_map`` exchanges: per round, (1) one exchange co-locates
    each node's current label with its incident edges and emits a
    (neighbor, label) message per edge, (2) one more vertex-keyed
    exchange takes the min over incoming messages and the node's own
    label. ``num_partitions`` defaults to the edge volume (~250k
    symmetric edge rows per partition, at least 4), capped at
    partition_map's default. Rounds = graph diameter (near-dup
    components are clique-ish, so 2-3 in practice; ``max_iters`` caps
    pathological chains).
    Everything is EDGE/VERTEX-scale — the candidate graph, not the
    corpus — and the per-round ``materialize()`` holds only (node,
    label) rows in the object store; the driver sees a single changed
    counter per round. That is the shape a multi-node cluster wants for
    iterative graph steps.

    Long-diameter graphs: after ``max_iters`` plain rounds the loop
    engages POINTER JUMPING — each extra round ALSO folds lbl(lbl(v))
    into v via a request/reply pass on the same vertex-keyed exchange,
    so the reachable-label horizon doubles per round and any diameter
    converges in O(log d) further rounds (a 61-node chain used to
    come back as 29 clusters when the plain loop hit the cap silently;
    now it collapses to 1). Near-dup graphs are clique-ish and finish
    in 2-3 plain rounds, never paying the jump pass's extra shuffle."""
    # materialize FIRST: the schema() and count() calls below and the
    # sym materialize would otherwise each execute the caller's
    # (possibly expensive) lazy pair pipeline — measured 2x the whole
    # semantic_dedup pair+cc cost. Edges are pair-scale by contract.
    from ..tuning import suggested_partitions

    edges = edges.materialize()
    id_type = _arrow_id_type(edges, a_col)
    _SYM_SCHEMA = pa.schema([("v", id_type), ("u", id_type),
                             ("lbl", id_type), ("chg", pa.int8())])
    _LAB_SCHEMA = pa.schema([("v", id_type), ("lbl", id_type),
                             ("changed", pa.int64())])
    _MSG_SCHEMA = pa.schema([("node", id_type), ("cand", id_type),
                             ("self", pa.int8())])

    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(pa.schema(
            [("doc_id", id_type), ("cluster_id", id_type)]).empty_table())
    if num_partitions is None:
        # the loop pays ~2 shuffle executions per ROUND, so partition
        # fan-out is pure per-round overhead until partitions are
        # actually full; scale with the symmetric edge volume (~250k
        # rows/partition) up to partition_map's default
        num_partitions = min(suggested_partitions(),
                             max(4, 2 * n_edges // 250_000 + 1))

    def by_vertex(ds: rd.Dataset, key: str, fn) -> rd.Dataset:
        return partition_map(ds, key, fn, num_partitions=num_partitions)

    def sym_rows(b: pd.DataFrame) -> pa.Table:
        a = b[a_col].to_numpy(dtype=object)
        bb = b[b_col].to_numpy(dtype=object)
        v = np.concatenate([a, bb])
        u = np.concatenate([bb, a])
        return pa.Table.from_arrays(
            [pa.array(v, id_type), pa.array(u, id_type),
             pa.nulls(len(v), id_type), pa.nulls(len(v), pa.int8())],
            schema=_SYM_SCHEMA)

    # edge-scale; re-read every round, never re-computed.
    # repartition(shuffle=False) everywhere below is a block-count
    # compaction, not an exchange: Ray's sort shuffle emits one output
    # block per INPUT block (empties included), so without compaction the
    # per-round union feeds ever more blocks back into the next sort and
    # round time grows linearly even as the frontier shrinks
    sym = (edges.map_batches(sym_rows, batch_format="pandas")
           .repartition(num_partitions).materialize())

    def init_labels(g: pd.DataFrame) -> pa.Table:
        v = pd.unique(g["v"])
        return pa.Table.from_arrays(
            [pa.array(v, id_type), pa.array(v, id_type),
             pa.array(np.ones(len(v), dtype=np.int64))], schema=_LAB_SCHEMA)

    lab = by_vertex(sym, "v", init_labels).repartition(
        num_partitions).materialize()

    def send_msgs(g: pd.DataFrame) -> pa.Table:
        labs = g[g["u"].isna()]
        if len(labs) == 0:
            return _MSG_SCHEMA.empty_table()
        lbl_of = dict(zip(labs["v"], labs["lbl"]))
        # DELTA propagation: only edges whose source label changed last
        # round resend — correct for monotone min-propagation (a stable
        # node's label already reached every neighbor the round after it
        # last changed), and it shrinks late-round traffic from all edges
        # to the frontier (converging components go quiet)
        frontier = set(labs.loc[labs["chg"] == 1, "v"])
        es = g[g["u"].notna() & g["v"].isin(frontier)]
        node = np.concatenate([es["u"].to_numpy(dtype=object),
                               labs["v"].to_numpy(dtype=object)])
        cand = np.concatenate([es["v"].map(lbl_of).to_numpy(dtype=object),
                               labs["lbl"].to_numpy(dtype=object)])
        selff = np.concatenate([np.zeros(len(es), np.int8),
                                np.ones(len(labs), np.int8)])
        # the nullable u/lbl columns come back float64 for int ids:
        # cast to the id type so the output schema holds
        return pa.Table.from_arrays(
            [pa.array(node).cast(id_type), pa.array(cand).cast(id_type),
             pa.array(selff)], schema=_MSG_SCHEMA)

    def take_min(g: pd.DataFrame) -> pa.Table:
        new = g.groupby("node", sort=False)["cand"].min()
        selfrows = g[g["self"].isin((1, 3))]
        old = selfrows.set_index("node")["cand"]
        old = old[~old.index.duplicated()]
        # self=3 marks a node whose label already changed EARLIER in
        # this round (the plain pass before a jump merge): the frontier
        # flag must survive the merge or next round's delta propagation
        # skips its neighbors
        prior = (selfrows.set_index("node")["self"] == 3)
        prior = prior[~prior.index.duplicated()]
        new, old = new.align(old, join="left")
        prior = prior.reindex(new.index, fill_value=False)
        v = new.index.to_numpy(dtype=object)
        changed = (old.isna() | (new != old)
                   | prior).to_numpy().astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(v, id_type),
             pa.array(new.to_numpy(dtype=object), id_type),
             pa.array(changed)], schema=_LAB_SCHEMA)

    def lab_as_msgs(t: pa.Table) -> pa.Table:
        # label table re-expressed in message space: self rows keyed by
        # their own node (take_min's "old" side); self = 1 + 2*changed
        # so the plain pass's frontier flag survives the jump merge
        import pyarrow.compute as pc

        selfcode = pc.cast(pc.add(
            pc.multiply(t.column("changed"), 2), 1), pa.int8())
        return pa.Table.from_arrays(
            [t.column("v"), t.column("lbl"), selfcode], schema=_MSG_SCHEMA)

    def jump_requests(t: pa.Table) -> pa.Table:
        # (node=lbl(v), cand=v, self=2) keyed by node: lands in the
        # partition holding lbl(v)'s own label row
        return pa.Table.from_arrays(
            [t.column("lbl"), t.column("v"),
             pa.nulls(t.num_rows, pa.int8()).fill_null(2)],
            schema=_MSG_SCHEMA)

    def jump_reply(g: pd.DataFrame) -> pa.Table:
        # label rows (self=1) + requests (self=2) co-located: answer
        # each request (l, v) with (node=v, cand=lbl(l))
        labs = g[g["self"].isin((1, 3))]
        rq = g[g["self"] == 2]
        if len(rq) == 0:
            return _MSG_SCHEMA.empty_table()
        lbl_of = dict(zip(labs["node"], labs["cand"]))
        v = rq["cand"].to_numpy(dtype=object)
        cand = rq["node"].map(lbl_of).to_numpy(dtype=object)
        return pa.Table.from_arrays(
            [pa.array(v).cast(id_type), pa.array(cand).cast(id_type),
             pa.nulls(len(rq), pa.int8()).fill_null(0)], schema=_MSG_SCHEMA)

    # plain rounds handle the clique-ish common case; from round 3 on
    # (still changing) each round adds the jump pass, doubling the
    # label horizon — 64 jump rounds cover any graph, so hitting the
    # cap means a bug, not a big graph
    _jump_from = min(3, max_iters - 1)
    for _round in range(max_iters + 64):
        # label rows ride the same vertex-keyed exchange as the
        # symmetric edges: mark them with a null "u"
        lab_as_union = lab.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("v"), pa.nulls(t.num_rows, id_type),
                 t.column("lbl"), t.column("changed").cast(pa.int8())],
                schema=_SYM_SCHEMA),
            batch_format="pyarrow",
        )
        msgs = by_vertex(sym.union(lab_as_union), "v", send_msgs)
        lab = by_vertex(msgs, "node", take_min).repartition(
            num_partitions).materialize()
        if _round >= _jump_from and lab.sum("changed"):
            # shortcut pass: v also learns lbl(lbl(v))
            replies = by_vertex(
                lab.map_batches(lab_as_msgs, batch_format="pyarrow")
                .union(lab.map_batches(jump_requests,
                                       batch_format="pyarrow")),
                "node", jump_reply)
            lab = by_vertex(
                lab.map_batches(lab_as_msgs, batch_format="pyarrow")
                .union(replies), "node", take_min).repartition(
                    num_partitions).materialize()
        if not lab.sum("changed"):
            break
    else:
        raise RuntimeError(
            "connected_components failed to converge — label horizon "
            "doubles per jump round, so this indicates a bug, not scale")

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("v"), t.column("lbl")],
            names=["doc_id", "cluster_id"])

    return lab.map_batches(finish, batch_format="pyarrow")


def keep_best(
    docs: rd.Dataset,
    labels: rd.Dataset,
    id_col: str = "doc_id",
    score_col: str = "score",
    emit_all: bool = False,
) -> rd.Dataset:
    """(doc_id, cluster_id) of the KEPT document per dup cluster — the
    final keep/drop decision after pair detection + cluster collapse:
    each cluster keeps its highest-``score_col`` member (ties -> min
    id); docs in no cluster keep themselves. ``docs`` is the scored
    corpus (id + score only — callers prune text/payload columns before
    calling, so the exchanges move metadata-width rows), ``labels`` is
    ``connected_components`` output.

    Two ``partition_map`` exchanges, both metadata-scale: (1)
    doc-id-keyed to attach each doc's cluster label (absent label = own
    id), (2) cluster-keyed to pick the argmax-score member vectorized
    per partition. No broadcast of the label map — dup sets at web scale can
    be a double-digit percentage of the corpus, far past ray.put
    comfort.

    ``emit_all=True`` returns EVERY doc row as (doc_id, cluster_id,
    kept) instead of only the winners — the keep/drop *annotation*
    shape (semantic_dedup composes on this)."""
    id_type = _arrow_id_type(docs, id_col)
    _UNION_SCHEMA = pa.schema([
        ("key", id_type), ("score", pa.float64()), ("cluster", id_type),
    ])
    _LABELED_SCHEMA = pa.schema([
        ("doc_id", id_type), ("cluster_id", id_type),
        ("score", pa.float64()),
    ])
    _OUT_SCHEMA = pa.schema([("doc_id", id_type), ("cluster_id", id_type)]
                            + ([("kept", pa.bool_())] if emit_all else []))

    def doc_rows(b: pd.DataFrame) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(b[id_col].to_numpy(dtype=object), id_type),
             pa.array(b[score_col].to_numpy(np.float64)),
             pa.nulls(len(b), id_type)],
            schema=_UNION_SCHEMA)

    def label_rows(b: pd.DataFrame) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(b["doc_id"].to_numpy(dtype=object), id_type),
             pa.nulls(len(b), pa.float64()),
             pa.array(b["cluster_id"].to_numpy(dtype=object), id_type)],
            schema=_UNION_SCHEMA)

    unioned = docs.map_batches(doc_rows, batch_format="pandas").union(
        labels.map_batches(label_rows, batch_format="pandas"))

    def attach_cluster(g: pd.DataFrame) -> pa.Table:
        d = g[g["cluster"].isna()]
        if len(d) == 0:
            return _LABELED_SCHEMA.empty_table()
        labs = g[g["cluster"].notna()]
        cl_of = dict(zip(labs["key"], labs["cluster"]))
        key = d["key"].to_numpy(dtype=object)
        mapped = d["key"].map(cl_of)
        cluster = mapped.where(mapped.notna(), d["key"]).to_numpy(dtype=object)
        # the nullable cluster column comes back float64 for int ids:
        # cast to the id type so the output schema holds
        return pa.Table.from_arrays(
            [pa.array(key, id_type), pa.array(cluster).cast(id_type),
             pa.array(d["score"].to_numpy(np.float64))],
            schema=_LABELED_SCHEMA)

    labeled = partition_map(unioned, "key", attach_cluster)

    def pick(g: pd.DataFrame) -> pa.Table:
        ordered = g.sort_values(["cluster_id", "score", "doc_id"],
                                ascending=[True, False, True], kind="stable")
        if emit_all:
            kept = ~ordered["cluster_id"].duplicated().to_numpy()
            return pa.Table.from_arrays(
                [pa.array(ordered["doc_id"].to_numpy(dtype=object), id_type),
                 pa.array(ordered["cluster_id"].to_numpy(dtype=object),
                          id_type),
                 pa.array(kept)],
                schema=_OUT_SCHEMA)
        best = ordered.groupby("cluster_id", sort=False, as_index=False).head(1)
        return pa.Table.from_arrays(
            [pa.array(best["doc_id"].to_numpy(dtype=object), id_type),
             pa.array(best["cluster_id"].to_numpy(dtype=object), id_type)],
            schema=_OUT_SCHEMA)

    return partition_map(labeled, "cluster_id", pick)


# ---------------------------------------------------------------- simhash


def simhash_table(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
                  ) -> rd.Dataset:
    """Per-doc 64-bit SimHash plus its 4x16-bit band keys (two signatures
    within Hamming distance 3 share at least one of 4 bands — the
    standard bucketing trick)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        sims = [hashing.simhash64(t or "") for t in batch[text_col]]
        out = pd.DataFrame({id_col: batch[id_col].values})
        out["simhash"] = np.array(sims, dtype=np.uint64).astype(np.int64)
        for bnd in range(4):
            out[f"band{bnd}"] = [
                (int(s) >> (16 * bnd)) & 0xFFFF for s in sims
            ]
        return out

    return ds.map_batches(f, batch_format="pandas", batch_size=8192)


def hamming64_dup_pairs_ds(tbl: rd.Dataset, id_col: str, sig_col: str,
                           max_hamming: int = 3) -> rd.Dataset:
    """Near-dup pairs for ANY 64-bit signature column (SimHash text
    sketches, image dHashes, ...) by 4x16-bit banding + Hamming verify —
    two signatures within Hamming distance 3 share at least one band.
    One exchange: per-row signatures explode to 4 (band_id, band_val)
    rows, one ``partition_map`` keyed on (band_id, band_val);
    pairs are generated inside each partition (python loop only over
    multi-row buckets, which are rare by construction).

    Returns a DATASET — the pair stream never lands on the driver (at
    web scale verified pairs aren't guaranteed small). Cross-band pair
    duplication is resolved IN-PARTITION with no extra exchange: both
    full signatures are present, so each partition emits a pair only
    when its band is the lowest-numbered matching band (exactly one
    partition satisfies that)."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        sig = b[sig_col].to_numpy(np.int64).astype(np.uint64)
        frames = []
        for bnd in range(4):
            frames.append(pd.DataFrame({
                id_col: b[id_col],
                sig_col: b[sig_col],
                "band_id": bnd,
                "band_val": ((sig >> np.uint64(16 * bnd))
                             & np.uint64(0xFFFF)).astype(np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    rows = tbl.map_batches(explode, batch_format="pandas", batch_size=65536)

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        sizes = g.groupby(["band_id", "band_val"])[id_col].nunique()
        multi = set(sizes[sizes >= 2].index)
        if multi:
            for key, sub in g.groupby(["band_id", "band_val"]):
                if key not in multi:
                    continue
                bnd = int(key[0])
                recs = sorted(set(zip(sub[id_col], sub[sig_col])))
                for i in range(len(recs)):
                    # mask to the 64-bit pattern via Python int:
                    # signatures ride as SIGNED int64 and np.uint64() of a
                    # negative raises OverflowError on numpy >= 2.0
                    u1 = int(recs[i][1]) & 0xFFFFFFFFFFFFFFFF
                    for j in range(i + 1, len(recs)):
                        u2 = int(recs[j][1]) & 0xFFFFFFFFFFFFFFFF
                        # exactly-once emission without a dedup exchange:
                        # only the lowest matching band's partition emits
                        first_band = next(
                            b for b in range(4)
                            if (u1 >> (16 * b)) & 0xFFFF
                            == (u2 >> (16 * b)) & 0xFFFF)
                        if first_band != bnd:
                            continue
                        d = hashing.hamming64(recs[i][1], recs[j][1])
                        if d <= max_hamming:
                            out.append((recs[i][0], recs[j][0], d))
        return pd.DataFrame(out, columns=["doc_a", "doc_b", "hamming"])

    return partition_map(rows, ["band_id", "band_val"], partition_pairs)


def hamming64_dup_pairs(tbl: rd.Dataset, id_col: str, sig_col: str,
                        max_hamming: int = 3) -> pd.DataFrame:
    """DataFrame wrapper over ``hamming64_dup_pairs_ds`` for oracle
    checks / small corpora — sorts pairs on the driver. Scale callers
    consume the Dataset variant."""
    allp = hamming64_dup_pairs_ds(tbl, id_col, sig_col,
                                  max_hamming).to_pandas()
    if allp.empty:
        return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
    return (allp.sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


def simhash_dup_pairs(ds: rd.Dataset, text_col: str = "text",
                      id_col: str = "doc_id", max_hamming: int = 3) -> pd.DataFrame:
    """Near-dup pairs by SimHash banding + Hamming verify (see
    ``hamming64_dup_pairs`` for the shuffle shape)."""
    return hamming64_dup_pairs(simhash_table(ds, text_col, id_col),
                               id_col, "simhash", max_hamming)


def image_dup_pairs(media: rd.Dataset, ref_col: str = "media_ref",
                    bytes_col: str = "bytes", max_hamming: int = 6,
                    concurrency=(1, 8)) -> pd.DataFrame:
    """Near-duplicate IMAGES: dHash each blob in an actor-pool decode
    stage (stages/multimodal.ImageDHash), then the same 64-bit banding +
    Hamming pipeline as SimHash text dedup. Decode failures carry a
    status row and never enter the pair search."""
    from ..stages.multimodal import ImageDHash

    def ok_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t.column("status"), "ok"))

    tbl = media.map_batches(
        ImageDHash, fn_constructor_kwargs={
            "bytes_col": bytes_col, "ref_col": ref_col},
        batch_format="pyarrow", batch_size=4, concurrency=concurrency,
    ).map_batches(ok_only, batch_format="pyarrow")
    return hamming64_dup_pairs(tbl, ref_col, "dhash", max_hamming)


# ----------------------------------------------------------- ngram jaccard


def _lsh_candidate_pairs(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """(m, 2) int index pairs sharing at least one LSH band bucket.
    Vectorized: one lexsort per band over the folded band keys."""
    bands = hashing.batch_minhash_bands(sigs, num_bands)  # (n, B)
    out = []
    n = bands.shape[0]
    for b in range(num_bands):
        keys = bands[:, b]
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        # bucket boundaries
        starts = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
        ends = np.concatenate([starts[1:], [n]])
        for s, e in zip(starts, ends):
            if e - s >= 2:
                idx = np.sort(order[s:e])
                iu, ju = np.triu_indices(len(idx), k=1)
                out.append(np.stack([idx[iu], idx[ju]], axis=1))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    allp = np.concatenate(out)
    return np.unique(allp, axis=0)


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    partition_cols: list[str],
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_group_rows: int = 20_000,
    seed: int = 99,
) -> rd.Dataset:
    """Exact token-set Jaccard over all pairs WITHIN a partition (the
    partition columns bound the quadratic blowup; at 100 TB the partition
    is the co-location unit). SQL-matchable (list_distinct/list_intersect
    in the oracle).

    Groups over ``max_group_rows`` (a skewed key like "en/web" at scale)
    switch from exact all-pairs to a MinHash-LSH PREFILTER (32 perms, 16
    bands of 2 rows: detection prob ~0.99 at J=0.5) with exact Jaccard on
    candidates only — bounded work instead of a silent quadratic blowup;
    the approximation is per-oversized-group and documented here, exact
    results are unchanged for every group under the cap."""
    a_par, b_par = hashing.minhash_params(32, seed)

    def _exact(recs, toks):
        rows = []
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                jac = hashing.jaccard(toks[i], toks[j])
                if jac >= threshold:
                    rows.append((recs[i][0], recs[j][0], round(jac, 6)))
        return rows

    def _exact_dense(recs, toks):
        """All-pairs token-set Jaccard via ONE docs x vocab binary-matrix
        matmul: intersection counts are exact in float32 (integer sums
        < 2^24), so results are bit-identical to the per-pair loop —
        just BLAS instead of Python pair iteration."""
        n = len(recs)
        counts = np.array([len(t) for t in toks], dtype=np.int64)
        flat = np.empty(int(counts.sum()), dtype=object)
        pos = 0
        for t in toks:
            for w in t:
                flat[pos] = w
                pos += 1
        th = hashing.hash_strings(flat) if len(flat) else np.empty(
            0, np.uint64)
        vocab, inv = np.unique(th, return_inverse=True)
        M = np.zeros((n, len(vocab)), dtype=np.float32)
        M[np.repeat(np.arange(n), counts), inv] = 1.0
        inter = (M @ M.T).astype(np.float64)
        union = counts[:, None] + counts[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        iu, ju = np.triu_indices(n, 1)
        keep = jac[iu, ju] >= threshold
        iu, ju = iu[keep], ju[keep]
        return [(recs[i][0], recs[j][0], round(float(jac[i, j]), 6))
                for i, j in zip(iu, ju)]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        recs = sorted(zip(g[id_col], g[text_col]))
        toks = [set((t or "").split()) for _, t in recs]
        if len(recs) <= max_group_rows:
            vocab_ub = sum(len(t) for t in toks)
            if len(recs) * max(1, vocab_ub) <= _DENSE_BUDGET:
                rows = _exact_dense(recs, toks)
            else:
                rows = _exact(recs, toks)
        else:
            # LSH prefilter over the SAME whitespace token sets the exact
            # path uses (one hash_strings call over the flattened sets)
            counts = np.array([len(t) for t in toks], dtype=np.int64)
            flat = np.empty(int(counts.sum()), dtype=object)
            pos = 0
            for t in toks:
                for w in t:
                    flat[pos] = w
                    pos += 1
            th = hashing.hash_strings(flat) if len(flat) else np.empty(
                0, np.uint64)
            offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            sigs = hashing.batch_minhash_signatures(th, offs, a_par, b_par)
            cand = _lsh_candidate_pairs(sigs, 16)
            rows = []
            for i, j in cand:
                jac = hashing.jaccard(toks[i], toks[j])
                if jac >= threshold:
                    rows.append((recs[i][0], recs[j][0], round(jac, 6)))
        return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])

    return ds.groupby(partition_cols).map_groups(pairs, batch_format="pandas")


# ------------------------------------------------------- embedding cosine


def embedding_dup_pairs(
    ds: rd.Dataset,
    partition_col: str = "label",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    max_group_rows: int = 20_000,
    seed: int = 7,
) -> rd.Dataset:
    """Embedding near-dup: cosine >= threshold over all pairs within a
    partition, one numpy matmul per group.

    Groups over ``max_group_rows`` switch to a random-hyperplane
    (SimHash) LSH prefilter — 16 projections in 4 bands of 4 bits; at
    cos=0.95 the per-bit agreement is ~0.90, so detection prob is ~0.985
    — with exact cosine verified on candidates only. Exact results are
    unchanged for every group under the cap."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        M = np.stack([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        norms = np.linalg.norm(M, axis=1)
        norms[norms == 0] = 1.0
        Mn = M / norms[:, None]
        n = len(ids)
        if n <= max_group_rows:
            S = Mn @ Mn.T
            iu, ju = np.triu_indices(n, k=1)
            sel = S[iu, ju] >= threshold
            iu, ju, cos = iu[sel], ju[sel], S[iu, ju][sel]
        else:
            rng = np.random.default_rng(seed)
            H = rng.standard_normal((Mn.shape[1], 16))
            bits = (Mn @ H) > 0  # (n, 16)
            # fold each 4-bit band into a bucket key
            weights = (1 << np.arange(4)).astype(np.int64)
            iu_l, ju_l = [], []
            for band in range(4):
                keys = bits[:, band * 4:(band + 1) * 4] @ weights
                order = np.argsort(keys, kind="stable")
                ks = keys[order]
                starts = np.flatnonzero(
                    np.concatenate([[True], ks[1:] != ks[:-1]]))
                ends = np.concatenate([starts[1:], [n]])
                for s, e in zip(starts, ends):
                    if e - s < 2:
                        continue
                    idx = np.sort(order[s:e])
                    a, b = np.triu_indices(len(idx), k=1)
                    iu_l.append(idx[a])
                    ju_l.append(idx[b])
            if iu_l:
                iu = np.concatenate(iu_l)
                ju = np.concatenate(ju_l)
                packed = np.unique(iu.astype(np.int64) * n + ju)
                iu, ju = packed // n, packed % n
                cos = np.einsum("ij,ij->i", Mn[iu], Mn[ju])
                sel = cos >= threshold
                iu, ju, cos = iu[sel], ju[sel], cos[sel]
            else:
                iu = ju = np.array([], dtype=np.int64)
                cos = np.array([], dtype=np.float64)
        return pd.DataFrame(
            {
                "id_a": ids[iu],
                "id_b": ids[ju],
                "cosine": np.round(cos, 6),
            }
        )

    return ds.groupby(partition_col).map_groups(pairs, batch_format="pandas")


# ------------------------------------- substring (word-gram span) dedup
# Training-set substring dedup a la Lee et al. 2022 ("Deduplicating
# Training Data Makes Language Models Better"): find W-word windows that
# repeat across documents, then strip the covered words. Their suffix
# array is replaced by the engine-native shape: window extraction is a
# vectorized per-batch map, co-location of equal grams is ONE
# partition_map exchange keyed on the gram (as in exact dedup), and the
# strip pass re-reads the corpus against a broadcast dup-gram hash set.


def duplicated_ngrams(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
    min_docs: int = 2,
) -> rd.Dataset:
    """(gram, n_docs, n_occ) for every W-word window appearing in >=
    ``min_docs`` distinct docs. Gram strings ride the shuffle so the
    output is self-describing; at 100 TB carry the uint64 gram hash plus
    one exemplar instead and key the exchange on the hash."""

    def gram_rows(b: pd.DataFrame) -> pd.DataFrame:
        grams, doc_idx, _pos = hashing.batch_word_grams(
            b[text_col].tolist(), window)
        return pd.DataFrame({
            "gram": grams,
            id_col: b[id_col].to_numpy()[doc_idx],
        })

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("gram", sort=False).agg(
            n_docs=(id_col, "nunique"), n_occ=(id_col, "size"))
        r = r[r.n_docs >= min_docs].reset_index()
        r["n_docs"] = r.n_docs.astype("int64")
        r["n_occ"] = r.n_occ.astype("int64")
        return r[["gram", "n_docs", "n_occ"]]

    # U-dtype gram buffers are ~4 B/char: cap the map batch so one
    # batch's window array stays ~tens of MB
    rows = ds.map_batches(gram_rows, batch_format="pandas", batch_size=4096)
    return partition_map(rows, "gram", agg)


# Above this many duplicated window hashes the sorted-array broadcast
# (8 B/hash via ray.put) is swapped for a fixed-size Bloom bitmap + an
# exact distributed verification join — a 100 TB corpus at a
# double-digit dup rate produces a probe set in the tens of GB, past
# ray.put comfort, while the bitmap stays bounded (sized from the
# measured dup count, capped at _DUP_BLOOM_MAX_BITS/8 bytes).
_DUP_BROADCAST_MAX = 2_000_000
# Bloom bitmap is sized from the MEASURED dup count (~8 bits/key,
# next power of two): 16 MiB floor, 256 MiB broadcast ceiling (the
# ceiling covers ~268M dup hashes at 8 bits/key; past it the FP rate
# degrades gradually but the exact verification join keeps the output
# correct — only the candidate-shuffle cost grows).
_DUP_BLOOM_MIN_BITS = 1 << 27
_DUP_BLOOM_MAX_BITS = 1 << 31


def _bloom_bits_for(n_keys: int) -> int:
    """Next power of two >= 8 bits/key, clamped to [MIN, MAX]."""
    want = max(8 * max(int(n_keys), 1), _DUP_BLOOM_MIN_BITS)
    return min(1 << int(np.ceil(np.log2(want))), _DUP_BLOOM_MAX_BITS)


def _dup_window_index(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    window: int,
    min_docs: int,
    max_broadcast: int = _DUP_BROADCAST_MAX,
    bloom_bits: "int | None" = None,
):
    """Index of every corpus-duplicated W-window hash, computed WITHOUT
    materializing gram strings: the shuffle carries only (window_hash,
    doc_id) and the per-partition dup test is a groupby-nunique on the
    hash.

    Returns ``("exact", sorted_hashes, None)`` when the dup set fits a
    ray.put broadcast (``max_broadcast`` hashes), else ``("bloom",
    bitmap, dup_ds)``: a fixed-size Bloom bitmap (no false negatives)
    plus the DISTRIBUTED dup-hash Dataset for the exact verification
    join — broadcast bytes stay bounded at any dup rate and Bloom
    false positives are killed downstream by joining candidates
    against ``dup_ds``."""

    def hash_rows(b: pd.DataFrame) -> pd.DataFrame:
        gh, doc_idx, _pos = hashing.batch_window_hashes(
            b[text_col].tolist(), window)
        return pd.DataFrame({
            "h": gh,
            id_col: b[id_col].to_numpy()[doc_idx],
        })

    def dup_only(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("h", sort=False)[id_col].nunique()
        return pd.DataFrame({"h": nd.index[nd >= min_docs].to_numpy(
            dtype=np.uint64)})

    dup = partition_map(
        ds.map_batches(hash_rows, batch_format="pandas", batch_size=8192),
        "h", dup_only)
    # dup-scale (8 B/window), far below corpus scale; pinning it lets
    # the count probe and the downstream consumer share one execution
    dup = dup.materialize()
    n_dup = dup.count()
    if n_dup <= max_broadcast:
        parts = [b["h"].to_numpy(dtype=np.uint64)
                 for b in dup.iter_batches(batch_format="pandas",
                                           batch_size=65536)]
        if not parts:
            return "exact", np.empty(0, dtype=np.uint64), None
        return "exact", np.sort(np.concatenate(parts)), None
    if bloom_bits is None:
        bloom_bits = _bloom_bits_for(n_dup)
    return "bloom", _bloom_over(dup, "h", bloom_bits), dup


def _bloom_over(ds: rd.Dataset, col: str, bloom_bits: int) -> np.ndarray:
    """OR-fold a Bloom bitmap over a uint64 column: one partial bitmap
    per BLOCK (batch_size=None), OR'd on the driver — driver traffic is
    n_blocks x bitmap, not key-scale. At extreme block counts tree-
    reduce the partials; block counts here are partition-scale."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(bloom_bits // 64, dtype=np.uint64)
        if len(b):
            hashing.bloom_add_u64(bits, b[col].to_numpy(np.uint64),
                                  bloom_bits)
        return pd.DataFrame({"bits": [bits.tobytes()]})

    acc = np.zeros(bloom_bits // 64, dtype=np.uint64)
    for b in ds.map_batches(partial, batch_format="pandas",
                            batch_size=None).iter_batches(
                                batch_format="pandas", batch_size=16):
        for buf in b["bits"]:
            acc |= np.frombuffer(buf, dtype=np.uint64)
    return acc


def doc_dup_spans(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
    min_docs: int = 2,
    max_broadcast: int = _DUP_BROADCAST_MAX,
    bloom_bits: "int | None" = None,
) -> rd.Dataset:
    """(doc_id, n_spans, n_dup_spans) per doc with >=1 window: how much
    of each doc is corpus-duplicated substring mass. Both passes are
    HASH-ONLY (batch_window_hashes): no gram strings ever materialize or
    ride a shuffle — only the index query (duplicated_ngrams) pays for
    text.

    Below ``max_broadcast`` dup hashes the second pass probes a
    broadcast sorted array (exact, map-only). Above it — the 100 TB
    double-digit-dup-rate regime — the broadcast is a FIXED-SIZE Bloom
    bitmap: windows that miss survive on the map path (no false
    negatives), Bloom-hit candidates are verified EXACTLY against the
    distributed dup table via one left bucket_join (candidate-scale
    shuffle), so false positives never reach the output."""
    import ray

    mode, probe, dup_ds = _dup_window_index(
        ds, text_col, id_col, window, min_docs, max_broadcast, bloom_bits)
    ref = ray.put(probe)

    if mode == "exact":

        def count(b: pd.DataFrame) -> pd.DataFrame:
            hashes = ray.get(ref)
            gh, doc_idx, _pos = hashing.batch_window_hashes(
                b[text_col].tolist(), window)
            n = len(b)
            n_spans = np.bincount(doc_idx, minlength=n).astype(np.int64)
            if len(hashes) == 0:  # no duplicated windows anywhere
                hit = np.zeros(len(gh), dtype=bool)
            else:
                idx = np.searchsorted(hashes, gh)
                hit = (idx < len(hashes)) & (
                    hashes[np.minimum(idx, len(hashes) - 1)] == gh)
            n_dup = np.bincount(doc_idx[hit], minlength=n).astype(np.int64)
            keep = n_spans > 0
            return pd.DataFrame({
                id_col: b[id_col].to_numpy()[keep],
                "n_spans": n_spans[keep],
                "n_dup_spans": n_dup[keep],
            })

        return ds.map_batches(count, batch_format="pandas", batch_size=4096)

    id_type = _arrow_id_type(ds, id_col)
    nbits = int(probe.size) * 64  # actual (adaptively sized) bitmap

    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        """One (doc, n_spans) row per doc with >=1 window, routed
        STRAIGHT to the doc-keyed shuffle — doc rows need no
        verification, so funneling them through the h-keyed join would
        put the whole corpus on hash(h=0)'s single partition. Window
        count needs only word counts (windows never cross docs)."""
        nw = np.array([len((t or "").split()) for t in b[text_col]],
                      dtype=np.int64)
        n_spans = np.maximum(nw - window + 1, 0)
        keep = n_spans > 0
        return pd.DataFrame({
            id_col: b[id_col].to_numpy()[keep],
            "n_spans": n_spans[keep],
            "n_dup_spans": np.zeros(int(keep.sum()), dtype=np.int64)})

    def cand_rows(b: pd.DataFrame) -> pd.DataFrame:
        """(doc, h, cnt) per DISTINCT Bloom-hit window hash (cnt =
        occurrences) — candidate-scale, hash-only."""
        bits = ray.get(ref)
        gh, doc_idx, _pos = hashing.batch_window_hashes(
            b[text_col].tolist(), window)
        ids = b[id_col].to_numpy()
        hit = hashing.bloom_contains_u64(bits, gh, nbits)
        cand = pd.DataFrame({id_col: ids[doc_idx[hit]], "h": gh[hit]})
        cand = cand.groupby([id_col, "h"], as_index=False, sort=False
                            ).agg(cnt=("h", "size"))
        cand["cnt"] = cand.cnt.astype(np.int64)
        return cand

    # exact verification: semi join keeps candidates whose hash is in
    # the distributed dup table; Bloom false positives vanish here
    ver = bucket_join(
        ds.map_batches(cand_rows, batch_format="pandas", batch_size=4096),
        dup_ds, "h", "h", how="semi",
        left_schema=pa.schema([(id_col, id_type), ("h", pa.uint64()),
                               ("cnt", pa.int64())]),
        right_schema=pa.schema([("h", pa.uint64())]))

    def v_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "n_spans": np.zeros(len(b), dtype=np.int64),
            "n_dup_spans": b["cnt"].to_numpy(np.int64)})

    def fin(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, as_index=False, sort=False)[
            ["n_spans", "n_dup_spans"]].sum()
        out["n_spans"] = out.n_spans.astype(np.int64)
        out["n_dup_spans"] = out.n_dup_spans.astype(np.int64)
        return out

    return partition_map(
        ds.map_batches(doc_rows, batch_format="pandas", batch_size=4096)
        .union(ver.map_batches(v_rows, batch_format="pandas",
                               batch_size=65536)),
        id_col, fin)


def _strip_from_hits(ids: np.ndarray, texts: list, hit_doc: np.ndarray,
                     hit_pos: np.ndarray, window: int,
                     id_col: str) -> pd.DataFrame:
    """Strip every word covered by a hit window [pos, pos+window) —
    shared body of both strip modes. ``hit_doc``/``hit_pos`` index into
    the batch's docs; coverage is a +1/-1 delta over the flat word
    stream + one cumsum (windows never cross doc boundaries, so the
    running sum self-resets at 0 between docs)."""
    tok_lists = [(t or "").split() for t in texts]
    counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
    total = int(counts.sum())
    tok_off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    delta = np.zeros(total + window + 1, dtype=np.int64)
    gstart = tok_off[hit_doc] + hit_pos  # global word index
    np.add.at(delta, gstart, 1)
    np.add.at(delta, gstart + window, -1)
    covered = np.cumsum(delta[:total]) > 0
    doc_of = np.repeat(np.arange(len(counts)), counts)
    flat = np.empty(total, dtype=object)
    p = 0
    for t in tok_lists:
        if t:
            flat[p : p + len(t)] = t
            p += len(t)
    keep_words = ~covered
    kept_per_doc = np.bincount(doc_of[keep_words], minlength=len(counts))
    out_rows = []
    kept_flat = flat[keep_words]
    # one join per surviving doc (object strings; C-level join)
    bounds = np.concatenate([[0], np.cumsum(kept_per_doc)])
    for i in range(len(counts)):
        if kept_per_doc[i] > 0:
            out_rows.append((
                ids[i],
                " ".join(kept_flat[bounds[i]:bounds[i + 1]]),
            ))
    return pd.DataFrame(out_rows, columns=[id_col, "clean_text"])


def strip_dup_spans(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
    min_docs: int = 2,
    max_broadcast: int = _DUP_BROADCAST_MAX,
    bloom_bits: "int | None" = None,
    stats: "dict | None" = None,
) -> rd.Dataset:
    """The dedup TRANSFORM: drop every word covered by any
    corpus-duplicated W-window (aggressive variant — all occurrences
    go; deterministic, so SQL-checkable). Docs left empty are dropped.
    Hash-only like doc_dup_spans. ``stats``, when given, receives the
    chosen probe mode ("exact"/"bloom") and the broadcast byte count —
    the bench's evidence that the Bloom path keeps broadcast bounded.

    Below ``max_broadcast`` dup hashes: broadcast sorted-array probe,
    map-only second pass. Above it: fixed-size Bloom bitmap broadcast;
    every doc row plus its Bloom-hit (pos, h) candidates ride one left
    bucket_join against the distributed dup table (exact — false
    positives get no match and strip nothing), then one doc-keyed
    shuffle reunites verified positions with their doc text and the
    strip runs vectorized per partition. Broadcast bytes stay bounded
    at any dup rate; the trade is two candidate/corpus-scale shuffles,
    which is the regime's honest cost once the dup set outgrows
    ray.put."""
    import ray

    mode, probe, dup_ds = _dup_window_index(
        ds, text_col, id_col, window, min_docs, max_broadcast, bloom_bits)
    if stats is not None:
        stats["mode"] = mode
        stats["broadcast_bytes"] = int(probe.nbytes)
    ref = ray.put(probe)

    if mode == "exact":

        def strip(b: pd.DataFrame) -> pd.DataFrame:
            hashes = ray.get(ref)
            texts = b[text_col].tolist()
            gh, doc_idx, pos = hashing.batch_window_hashes(texts, window)
            if len(hashes) == 0:  # no duplicated windows anywhere
                hit = np.zeros(len(gh), dtype=bool)
            else:
                idx = np.searchsorted(hashes, gh)
                hit = (idx < len(hashes)) & (
                    hashes[np.minimum(idx, len(hashes) - 1)] == gh)
            return _strip_from_hits(b[id_col].to_numpy(), texts,
                                    doc_idx[hit], pos[hit], window, id_col)

        return ds.map_batches(strip, batch_format="pandas", batch_size=4096)

    id_type = _arrow_id_type(ds, id_col)
    nbits = int(probe.size) * 64  # actual (adaptively sized) bitmap

    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        """(doc, text) row per doc with >=1 word, routed STRAIGHT to
        the doc-keyed strip shuffle — doc rows need no verification,
        and funneling them through the h-keyed join would put the whole
        corpus text on hash(h=0)'s single partition."""
        texts = b[text_col].tolist()
        nwords = np.array([len((t or "").split()) for t in texts],
                          dtype=np.int64)
        keep = nwords > 0
        nk = int(keep.sum())
        return pd.DataFrame({
            id_col: b[id_col].to_numpy()[keep],
            "text": np.asarray(texts, dtype=object)[keep],
            "pos": np.full(nk, -1, dtype=np.int64),
            "kind": np.zeros(nk, dtype=np.int8)})

    def cand_rows(b: pd.DataFrame) -> pd.DataFrame:
        """(doc, pos, h) per Bloom-hit window — candidate-scale."""
        bits = ray.get(ref)
        gh, doc_idx, pos = hashing.batch_window_hashes(
            b[text_col].tolist(), window)
        ids = b[id_col].to_numpy()
        hit = hashing.bloom_contains_u64(bits, gh, nbits)
        return pd.DataFrame({
            id_col: ids[doc_idx[hit]],
            "pos": pos[hit].astype(np.int64),
            "h": gh[hit]})

    # exact verification: semi join keeps Bloom-hit windows whose hash
    # is really duplicated; false positives strip nothing
    ver = bucket_join(
        ds.map_batches(cand_rows, batch_format="pandas", batch_size=4096),
        dup_ds, "h", "h", how="semi",
        left_schema=pa.schema([(id_col, id_type), ("pos", pa.int64()),
                               ("h", pa.uint64())]),
        right_schema=pa.schema([("h", pa.uint64())]))

    def v_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "text": np.full(len(b), None, dtype=object),
            "pos": b["pos"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    def strip_part(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["kind"].to_numpy() == 0]
        ids = docs[id_col].to_numpy()
        texts = docs["text"].tolist()
        order = pd.Index(ids)
        ver = g[g["kind"].to_numpy() == 1]
        didx = order.get_indexer(ver[id_col].to_numpy())
        ok = didx >= 0  # candidate for a doc outside this partition set
        return _strip_from_hits(ids, texts, didx[ok],
                                ver["pos"].to_numpy()[ok], window, id_col)

    return partition_map(
        ds.map_batches(doc_rows, batch_format="pandas", batch_size=4096)
        .union(ver.map_batches(v_rows, batch_format="pandas",
                               batch_size=65536)),
        id_col, strip_part)


# --------------------------------------- checkpointed global exact dedup


def run_dedup_with_checkpoint(
    docs_path: str,
    out_root: str,
    num_fragments: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_broadcast: int = _DUP_BROADCAST_MAX,
    bloom_bits: "int | None" = None,
) -> dict:
    """Resumable corpus-wide exact dedup as a `ray job submit` target
    (same fragment/manifest store as the OCR and extraction flagships),
    in the 100 TB shape — TWO corpus scans total, not one per fragment:

    Phase 1 (resumable per INPUT-FILE fragment): project each row to
    (content_hash: uint64, doc_id) and commit a tiny index parquet per
    fragment — a column-pruned 1/F-of-corpus scan each, one full scan
    total.
    Phase 2 (atomic): shuffle ONLY the index by hash bucket and keep,
    per duplicated hash, the min doc_id — the dup map is dup-scale, far
    below corpus scale at real dup rates. Tmp-write + rename.
    Phase 3 (resumable per input-file fragment): re-read each fragment's
    rows, probe the broadcast dup map (sorted-array searchsorted), and
    write the survivors — a row survives iff its hash is not duplicated
    or it owns the min doc_id. Second (and last) full scan.

    A single-file input can't be split by file, so it falls back to
    content-hash ROW fragments (one pruned scan per fragment — fine at
    test scale, and the docstring contract is per-FILE at corpus scale,
    where inputs are always many files). Equality is by 64-bit content
    hash in this path (the in-memory exact_dedup compares the actual
    texts); at 10^12 rows swap in a 128-bit double hash — birthday
    collisions at 64 bits become material around 2^32 distinct texts.
    Counters: rows_in / rows_kept per output manifest."""
    import glob as _glob
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..state import checkpoint as ckpt
    from ..tuning import configure_data_context, parquet_schema

    configure_data_context()
    os.makedirs(out_root, exist_ok=True)
    if os.path.isdir(docs_path):
        files = sorted(_glob.glob(os.path.join(docs_path, "**", "*.parquet"),
                                  recursive=True))
    else:
        files = [docs_path]
    by_file = len(files) > 1
    nfrag = min(num_fragments, len(files)) if by_file else num_fragments
    groups = ([files[i::nfrag] for i in range(nfrag)] if by_file else None)

    def _frag_rows(frag: int, columns: list) -> rd.Dataset:
        """The fragment's rows: its file group (scale path) or a
        content-hash row filter over the whole input (single-file
        fallback)."""
        if by_file:
            return rd.read_parquet(groups[frag], columns=columns,
                                   schema=parquet_schema(groups[frag][0],
                                                         columns))
        ds = rd.read_parquet(docs_path, columns=columns,
                             schema=parquet_schema(docs_path, columns))

        def only(b: pd.DataFrame, _f=frag) -> pd.DataFrame:
            # fragment membership is keyed on CONTENT hash (works for
            # any projection that includes text_col)
            h = hashing.hash_strings(b[text_col].to_numpy(dtype=object))
            return b[(h % np.uint64(nfrag)).astype(np.int64) == _f]

        return ds.map_batches(only, batch_format="pandas",
                              batch_size=65536)

    def _commit_dir(ds_out: rd.Dataset, frag_dir: str) -> int:
        tmp_dir = frag_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)  # stale partial write
        os.makedirs(tmp_dir)  # an EMPTY dataset writes no files at all
        ds_out.write_parquet(tmp_dir)
        if os.path.exists(frag_dir):
            shutil.rmtree(frag_dir)
        os.replace(tmp_dir, frag_dir)
        return sum(pq.read_metadata(os.path.join(frag_dir, f)).num_rows
                   for f in os.listdir(frag_dir) if f.endswith(".parquet"))

    # ---------------- phase 1: per-fragment (hash, id) index
    idx_root = os.path.join(out_root, "index")
    os.makedirs(idx_root, exist_ok=True)
    for frag in ckpt.pending_fragments(idx_root, nfrag):
        rows = _frag_rows(frag, [id_col, text_col])

        def project(b: pd.DataFrame) -> pd.DataFrame:
            h = hashing.hash_strings(b[text_col].to_numpy(dtype=object))
            return pd.DataFrame({"h": h.astype(np.uint64),
                                 id_col: b[id_col].to_numpy()})

        idx = rows.map_batches(project, batch_format="pandas",
                               batch_size=65536)
        n = _commit_dir(idx, ckpt.fragment_dir(idx_root, frag))
        ckpt.commit_fragment(idx_root, frag, {"rows_indexed": int(n)})

    # ---------------- phase 2: dup map (hash -> min id), atomic
    dup_dir = os.path.join(out_root, "dupmap")
    if not os.path.exists(dup_dir):
        idx_files = sorted(_glob.glob(
            os.path.join(idx_root, "fragment=*", "*.parquet")))
        idx_ds = rd.read_parquet(idx_files)

        def dups(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("h", sort=False)[id_col].agg(["min", "size"])
            d = agg[agg["size"] > 1]
            return pd.DataFrame({"h": d.index.to_numpy(np.uint64),
                                 "keep_id": d["min"].to_numpy()})

        _commit_dir(partition_map(idx_ds, "h", dups), dup_dir)

    # ---------------- phase 3: filtered output per fragment
    # Below max_broadcast dup rows: broadcast (sorted hashes, keep ids)
    # and filter map-only. Above it — unbounded dup maps — broadcast a
    # FIXED-SIZE Bloom bitmap instead: rows that miss survive on the
    # map path (no false negatives), Bloom-hit candidates resolve
    # EXACTLY against the distributed dup map via one left bucket_join
    # (candidate-scale shuffle; false positives get no match and
    # survive). The trade is a second scan of each fragment for the
    # candidate leg — the honest cost once the map outgrows ray.put.
    dup_files = sorted(_glob.glob(os.path.join(dup_dir, "*.parquet")))
    n_dup = sum(pq.read_metadata(f).num_rows for f in dup_files)
    import ray as _ray

    use_bloom = n_dup > max_broadcast
    if bloom_bits is None:
        bloom_bits = _bloom_bits_for(n_dup)
    if not use_bloom:
        if dup_files:
            dm = pa.concat_tables(
                [pq.read_table(f) for f in dup_files]).to_pandas()
            order = np.argsort(dm["h"].to_numpy(np.uint64))
            dup_h = dm["h"].to_numpy(np.uint64)[order]
            dup_keep = dm["keep_id"].to_numpy()[order]
        else:
            dup_h = np.empty(0, dtype=np.uint64)
            dup_keep = np.empty(0, dtype=np.int64)
        dref = _ray.put((dup_h, dup_keep))
    else:
        dup_ds = rd.read_parquet(dup_files)
        bits = _bloom_over(dup_ds, "h", bloom_bits)
        dref = _ray.put(bits)
        in_schema = parquet_schema(
            files[0] if by_file else docs_path, None)
        dup_schema = pq.read_schema(dup_files[0])
        # the join suffixes right columns colliding with input names
        kname = ("keep_id_r" if "keep_id" in in_schema.names
                 else "keep_id")

    out_data_root = os.path.join(out_root, "output")
    os.makedirs(out_data_root, exist_ok=True)
    ran = ckpt.pending_fragments(out_data_root, nfrag)
    for frag in ran:
        frag_t0 = _time.time()
        rows = _frag_rows(frag, None)
        rows_in = rows.count()

        def survivors(b: pd.DataFrame) -> pd.DataFrame:
            hs, keeps = _ray.get(dref)
            if len(hs) == 0:
                return b
            h = hashing.hash_strings(
                b[text_col].to_numpy(dtype=object)).astype(np.uint64)
            pos = np.minimum(np.searchsorted(hs, h), len(hs) - 1)
            dup_hit = hs[pos] == h
            keep = ~dup_hit | (keeps[pos] == b[id_col].to_numpy())
            return b[keep]

        def bloom_miss(b: pd.DataFrame) -> pd.DataFrame:
            bts = _ray.get(dref)
            h = hashing.hash_strings(
                b[text_col].to_numpy(dtype=object)).astype(np.uint64)
            return b[~hashing.bloom_contains_u64(bts, h, bloom_bits)]

        def bloom_hit(b: pd.DataFrame) -> pd.DataFrame:
            bts = _ray.get(dref)
            h = hashing.hash_strings(
                b[text_col].to_numpy(dtype=object)).astype(np.uint64)
            m = hashing.bloom_contains_u64(bts, h, bloom_bits)
            out = b[m].copy()
            out["_dup_h"] = h[m]
            return out

        if not use_bloom:
            out = rows.map_batches(survivors, batch_format="pandas",
                                   batch_size=65536)
        else:
            clean = rows.map_batches(bloom_miss, batch_format="pandas",
                                     batch_size=65536)
            cand = rows.map_batches(bloom_hit, batch_format="pandas",
                                    batch_size=65536)
            lschema = pa.schema(
                list(in_schema) + [pa.field("_dup_h", pa.uint64())])
            resolved = bucket_join(
                cand, rd.read_parquet(dup_files), "_dup_h", "h",
                suffix="_r", how="left", left_schema=lschema,
                right_schema=dup_schema)

            def fp_or_keeper(b: pd.DataFrame) -> pd.DataFrame:
                keep = (b[kname].isna().to_numpy()
                        | (b[kname] == b[id_col]).to_numpy())
                return b[keep][[f.name for f in in_schema]]

            out = clean.union(resolved.map_batches(
                fp_or_keeper, batch_format="pandas", batch_size=65536))
        n = _commit_dir(out, ckpt.fragment_dir(out_data_root, frag))
        wall = _time.time() - frag_t0
        ckpt.commit_fragment(out_data_root, frag, {
            "rows_in": int(rows_in), "rows_kept": int(n)}, metrics={
            "wall_sec": round(wall, 3),
            "rows_per_sec": round(rows_in / wall, 3) if wall > 0 else None,
        })
    return {
        "fragments_run": ran,
        "counters": ckpt.aggregate_counters(out_data_root),
    }


def minhash_recall(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    sample_mod: int = 2,
    threshold: float = 0.5,
    num_perm: int = 128,
    num_bands: int = 32,
    shingle_k: int = 3,
    seed: int = 1234,
) -> pd.DataFrame:
    """LSH recall evaluation (the dedup analog of similarity.ann_recall):
    run the PRODUCTION minhash pipeline over the full corpus, then
    measure what fraction of the exact shingle-Jaccard>=threshold pairs
    it recovered on a deterministic doc sample (doc_id % sample_mod ==
    0). Because the pipeline Jaccard-verifies its candidates with the
    same shingle sets, precision is 1.0 by construction — the returned
    n_extra (detected-but-not-true) must be 0 and recall isolates LSH
    banding misses.

    Scale note: the exact ground truth is all-pairs, so the SAMPLE is
    the evaluation's scale contract — size it (via sample_mod) to eval
    scale; the truth leg collects only the sampled texts. Pairs where
    either doc has no shingles are excluded (LSH cannot see
    shingle-less docs)."""
    from ..functions import hashing as _h

    def samp(b: pd.DataFrame) -> pd.DataFrame:
        m = b[id_col].to_numpy(np.int64) % sample_mod == 0
        return b.loc[m, [id_col, text_col]]

    sample = (ds.map_batches(samp, batch_format="pandas",
                             batch_size=65536).to_pandas()
              .sort_values(id_col).reset_index(drop=True))
    sets_ = _h.batch_shingle_sets(
        sample[text_col].fillna("").tolist(), shingle_k)
    ids = sample[id_col].to_numpy(np.int64)
    true_pairs = set()
    for i in range(len(ids)):
        si = sets_[i]
        for j in range(i + 1, len(ids)):
            sj = sets_[j]
            if si.size == 0 and sj.size == 0:
                jac = 1.0  # hashing.jaccard's empty/empty rule
            elif si.size == 0 or sj.size == 0:
                continue
            else:
                inter = np.intersect1d(si, sj).size
                jac = inter / float(si.size + sj.size - inter)
            if jac >= threshold:
                true_pairs.add((int(ids[i]), int(ids[j])))

    pairs = minhash_dup_pairs_ds(
        ds, text_col=text_col, id_col=id_col, num_perm=num_perm,
        num_bands=num_bands, shingle_k=shingle_k, threshold=threshold,
        seed=seed)

    def in_sample(b: pd.DataFrame) -> pd.DataFrame:
        m = ((b["doc_a"].to_numpy(np.int64) % sample_mod == 0)
             & (b["doc_b"].to_numpy(np.int64) % sample_mod == 0))
        return b.loc[m]

    det = pairs.map_batches(in_sample, batch_format="pandas").to_pandas()
    det_pairs = {(min(int(a), int(b)), max(int(a), int(b)))
                 for a, b in zip(det["doc_a"], det["doc_b"])}
    n_hit = len(det_pairs & true_pairs)
    return pd.DataFrame({
        "threshold": [round(threshold, 6)],
        "n_sample_docs": [int(len(ids))],
        "n_true_pairs": [len(true_pairs)],
        "n_detected": [len(det_pairs)],
        "n_hit": [n_hit],
        "n_extra": [len(det_pairs - true_pairs)],
        "recall": [round(n_hit / len(true_pairs), 6)
                   if true_pairs else 1.0],
    })


# ------------------------------------------- corpus-wide paragraph dedup


def paragraph_dedup(
    ds: rd.Dataset,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """CCNet-style corpus-wide paragraph-level exact dedup (Wenzek et
    al. 2020: hash every paragraph of every document, keep one copy of
    each across the WHOLE corpus, drop the rest in place). The corpus
    text has no paragraph breaks, so a "paragraph" is a run of ``k``
    whitespace tokens (the same chunk convention as the jusText twin).

    Keeper rule: the occurrence with the lexicographically smallest
    (doc_id, paragraph ordinal) survives — duplicate paragraphs within
    one document keep only the earliest. Documents whose every
    paragraph was seen earlier disappear entirely (CCNet's behavior);
    documents with no tokens produce no paragraphs and likewise drop.

    Scale shape (100 TB): one stateless explode map, then two
    ``partition_map`` exchanges of paragraph-scale rows — paragraphs
    co-locate by content (global first-by-key inside each partition,
    vectorized groupby-head), survivors re-shuffle by doc id and
    reassemble (``_reassemble_paragraphs``). Nothing lands on the
    driver.

    Returns (id_col, clean_text, n_kept, n_para) — n_para is the
    document's pre-dedup paragraph count.
    """

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy()
        texts = batch[text_col].to_numpy(dtype=object)
        out_id, out_ord, out_para, out_npara = [], [], [], []
        for i, t in enumerate(texts):
            words = (t if isinstance(t, str) else "").split()
            if not words:
                continue
            npara = -(-len(words) // k)
            paras = [" ".join(words[j * k:(j + 1) * k])
                     for j in range(npara)]
            out_id.append(np.full(npara, ids[i]))
            out_ord.append(np.arange(npara, dtype=np.int64))
            out_para.extend(paras)
            out_npara.append(np.full(npara, npara, dtype=np.int64))
        if not out_para:
            return pd.DataFrame({id_col: np.array([], dtype=ids.dtype),
                                 "ord": np.array([], dtype=np.int64),
                                 "para": np.array([], dtype=object),
                                 "n_para": np.array([], dtype=np.int64)})
        return pd.DataFrame({
            id_col: np.concatenate(out_id),
            "ord": np.concatenate(out_ord),
            "para": np.asarray(out_para, dtype=object),
            "n_para": np.concatenate(out_npara),
        })

    def first_per_para(g: pd.DataFrame) -> pd.DataFrame:
        # all occurrences of a paragraph share this partition; the
        # global first is the partition-local first
        return (g.sort_values([id_col, "ord"])
                .groupby("para", as_index=False, sort=False).head(1))

    exploded = ds.map_batches(explode, batch_format="pandas",
                              batch_size=8192)
    return _reassemble_paragraphs(
        partition_map(exploded, "para", first_per_para), id_col)


def _reassemble_paragraphs(kept: rd.Dataset, id_col: str) -> rd.Dataset:
    """(id_col, clean_text, n_kept, n_para) per document from its kept
    (id_col, ord, para, n_para) paragraph rows: one exchange keyed on
    the document id, then one C-level sort + groupby-join per partition.
    Shared by paragraph_dedup and extract.boilerplate_strip."""

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "ord"])
        agg = g.groupby(id_col, sort=False).agg(
            clean_text=("para", " ".join),
            n_kept=("para", "size"),
            n_para=("n_para", "first"),
        ).reset_index()
        agg["n_kept"] = agg["n_kept"].astype("int64")
        return agg

    return partition_map(kept, id_col, reassemble)


def typo_pairs(terms: rd.Dataset, col: str = "term") -> pd.DataFrame:
    """FastSS edit-distance-1 SIMILARITY JOIN over a term table: every
    unordered pair of distinct terms with Levenshtein distance <= 1
    (the spelling-variant / entity-blocking shape), WITHOUT the all-
    pairs scan a naive join needs.

    Candidate generation is the deletion-neighborhood rule: two terms
    are within one edit only if they share a string in
    {t} ∪ {t minus char i} — so each term fans out to len(t)+1
    (variant, term) rows, ONE variant-keyed exchange co-locates
    candidates, per-bucket pairs dedupe on a second pair-keyed exchange,
    and a vectorized-DP Levenshtein verify kills the false positives
    the variant rule admits (e.g. 'ab'/'ba' share 'a' and 'b' but are
    2 edits apart). Candidate groups are bounded by deletion-variant
    fan-in (alphabet x length in practice, never corpus-scale); the
    verify loop runs per surviving candidate pair — pair-scale, not
    term-scale. Returns the pair table (a < b, dist)."""
    from ..functions.edist import levenshtein

    def variants(b: pd.DataFrame) -> pd.DataFrame:
        keys: list[str] = []
        terms_out: list[str] = []
        for t in b[col].astype(str):
            keys.append(t)
            terms_out.append(t)
            for i in range(len(t)):
                keys.append(t[:i] + t[i + 1:])
                terms_out.append(t)
        return pd.DataFrame({"key": keys, "t": terms_out})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a_out: list[str] = []
        b_out: list[str] = []
        for _, sub in g.groupby("key", sort=False):
            u = sorted(set(sub["t"]))
            for i in range(len(u)):
                for j in range(i + 1, len(u)):
                    a_out.append(u[i])
                    b_out.append(u[j])
        if not a_out:
            # typed Arrow empty (a size-0 object-dtype pandas block
            # trips Ray's block-size estimator)
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string())})
        return pd.DataFrame({"a": a_out, "b": b_out})

    def verify(g: pd.DataFrame):
        d = g.drop_duplicates(["a", "b"])
        dist = [levenshtein(a, b)
                for a, b in zip(d["a"], d["b"])]
        d = d.assign(dist=np.asarray(dist, dtype=np.int64))
        d = d[d["dist"] <= 1]
        if len(d) == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "dist": pa.array([], pa.int64())})
        return d[["a", "b", "dist"]]

    cands = partition_map(terms.map_batches(variants, batch_format="pandas"),
                          "key", bucket_pairs)
    out = partition_map(cands, ["a", "b"], verify).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def containment_pairs(ds: rd.Dataset, window: int = 5,
                      tau_pct: int = 60, text_col: str = "text",
                      id_col: str = "doc_id") -> pd.DataFrame:
    """One-sided n-gram CONTAINMENT join (the quote / subset-duplicate
    detector The Stack-style curation runs next to symmetric Jaccard):
    for the distinct W-gram sets G(a), emit (inner, outer) whenever
    100 * |G(inner) ∩ G(outer)| >= tau_pct * |G(inner)| — a short doc
    quoted inside a long one passes containment while its Jaccard
    stays tiny. Integer-rational threshold, so the twin matches
    value-for-value.

    Distributed shape: distinct (gram, doc) rows (per-batch dedup is
    global — a doc lives in one row) -> ONE gram-keyed exchange; inside
    each partition the pair counts come from one C-level self-merge
    per gram key (no per-pair Python); partials re-shuffle on the LO
    doc key so every (lo, hi) pair sums in one place; gram-set sizes
    attach via two metadata-scale bucket_joins. Hot grams (a boilerplate
    sentence shared by half the corpus) make d^2 pair blowups — at web
    scale drop grams with document frequency above a cap BEFORE the
    merge (they carry no containment signal); the synthetic corpus's
    5-gram df is bounded so no cap is applied here."""

    def gram_rows(b: pd.DataFrame) -> "pd.DataFrame | pa.Table":
        grams, di, _pos = hashing.batch_word_grams(
            b[text_col].tolist(), window)
        if not len(grams):
            return pa.table({"gram": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64())})
        ids = b[id_col].to_numpy(np.int64)[di]
        return (pd.DataFrame({"gram": grams, "doc_id": ids})
                .drop_duplicates())

    gram_doc = ds.map_batches(gram_rows, batch_format="pandas",
                              batch_size=2048).materialize()

    # |G(doc)|: per-batch unit rows + one doc-hash keyed combine
    ones = gram_doc.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "g_size": np.ones(len(b), dtype=np.int64)}),
        batch_format="pandas")
    sizes = keyed_combine(ones, "doc_id", ["g_size"])

    def gram_pairs(g: pd.DataFrame) -> "pd.DataFrame | pa.Table":
        m = g[["gram", "doc_id"]].merge(g[["gram", "doc_id"]], on="gram")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return pa.table({"a_id": pa.array([], pa.int64()),
                             "b_id": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        c = (m.groupby(["doc_id_x", "doc_id_y"], as_index=False)
             .size().rename(columns={"doc_id_x": "a_id",
                                     "doc_id_y": "b_id", "size": "c"}))
        c["c"] = c["c"].astype("int64")
        return c

    pairs = keyed_combine(partition_map(gram_doc, "gram", gram_pairs),
                          ["a_id", "b_id"], ["c"])

    # explicit schemas: bucket_join otherwise calls .schema() on these
    # lazy shuffle-terminated plans, executing each shuffle TWICE
    pair_schema = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64()),
                             ("c", pa.int64())])
    size_schema = pa.schema([("doc_id", pa.int64()),
                             ("g_size", pa.int64())])
    j = bucket_join(pairs, sizes, "a_id", "doc_id",
                    left_schema=pair_schema, right_schema=size_schema)
    j1_schema = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64()),
                           ("c", pa.int64()), ("doc_id", pa.int64()),
                           ("size_a", pa.int64())])
    j = bucket_join(j.map_batches(
        lambda b: b.rename(columns={"g_size": "size_a"}),
        batch_format="pandas"), sizes, "b_id", "doc_id", suffix="_b",
        left_schema=j1_schema, right_schema=size_schema)

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        a = b["a_id"].to_numpy(np.int64)
        bb = b["b_id"].to_numpy(np.int64)
        c = b["c"].to_numpy(np.int64)
        sa = b["size_a"].to_numpy(np.int64)
        sb = b["g_size"].to_numpy(np.int64)
        rows = []
        for inner, outer, s in ((a, bb, sa), (bb, a, sb)):
            ok = 100 * c >= tau_pct * s
            rows.append(pd.DataFrame({
                "inner_id": inner[ok], "outer_id": outer[ok],
                "n_common": c[ok], "pct": (100 * c[ok]) // s[ok]}))
        return pd.concat(rows, ignore_index=True)

    out = j.map_batches(emit, batch_format="pandas").to_pandas()
    if not len(out):
        return pd.DataFrame({
            "inner_id": pd.Series([], dtype="int64"),
            "outer_id": pd.Series([], dtype="int64"),
            "n_common": pd.Series([], dtype="int64"),
            "pct": pd.Series([], dtype="int64")})
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values(["inner_id", "outer_id"]).reset_index(drop=True))


# ------------------------------------------------- PPJoin (prefix filter)


def ppjoin_pairs(
    ds: rd.Dataset,
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 64,
    max_token_group: int = 50_000,
) -> rd.Dataset:
    """EXACT corpus-GLOBAL token-set Jaccard join via prefix filtering
    (AllPairs / PPJoin — Bayardo et al. WWW 2007, Xiao et al. WWW 2008;
    distributed shape per Vernica et al. SIGMOD 2010). Unlike
    ngram_jaccard_pairs this needs NO partition columns to bound the
    quadratic and NO LSH approximation on skew: every pair with
    jaccard >= threshold is found, with certainty.

    Why it scales: order each doc's tokens by ascending global document
    frequency (rare first; any consistent total order preserves the
    guarantee — we order by (df, token_hash), the SQL twin by
    (df, token): prefixes may differ, final pair sets cannot). A pair
    with J >= t MUST share a token within each side's first
    ``n - ceil(t*n) + 1`` tokens, so only prefix tokens are indexed —
    and prefix tokens are the RAREST in each doc, so the token buckets
    the candidate join explodes are tiny; stopwords sort into suffixes
    and never enter the index. ``max_token_group`` guards the residual
    skew case (a rare-ish token shared by a huge near-dup family) with
    a loud error instead of a silent quadratic stall.

    Exchange plan (all metadata-scale, no driver materialization):
    token explode -> keyed_combine df -> bucket_join df onto tokens ->
    doc-bucket prefix cut -> token-bucket candidate triu + length
    filter (min_n >= t*max_n) -> keyed_combine pair dedup -> two
    bucket_joins fetch member texts -> vectorized exact verify.
    Returns a Dataset (doc_a < doc_b, jaccard rounded to 6dp).
    """
    P = num_partitions
    docs = ds.select_columns([id_col, text_col])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        toks: list[str] = []
        for i, t in zip(b[id_col], b[text_col]):
            ts = set((t if isinstance(t, str) else "").split())
            ids.extend([int(i)] * len(ts))
            toks.extend(ts)
        th = (hashing.hash_strings(toks) if toks
              else np.empty(0, np.uint64)).view(np.int64)
        return pd.DataFrame({"th": pd.Series(th, dtype="int64"),
                             "doc_id": pd.Series(ids, dtype="int64")})

    tok_tbl = docs.map_batches(explode, batch_format="pandas")
    df_tbl = keyed_combine(
        tok_tbl.map_batches(lambda b: b[["th"]].assign(df=np.int64(1)),
                            batch_format="pandas"),
        "th", ["df"], "sum", P)

    tok_schema = pa.schema([("th", pa.int64()), ("doc_id", pa.int64())])
    df_schema = pa.schema([("th", pa.int64()), ("df", pa.int64())])
    with_df = bucket_join(tok_tbl, df_tbl, "th", "th",
                          num_partitions=P, left_schema=tok_schema,
                          right_schema=df_schema)

    def prefix_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "df", "th"], kind="mergesort")
        n = g.groupby("doc_id")["th"].transform("size").to_numpy(np.int64)
        rank = g.groupby("doc_id").cumcount().to_numpy(np.int64)
        p = n - np.ceil(threshold * n).astype(np.int64) + 1
        keep = rank < p
        return pd.DataFrame({
            "th": g["th"].to_numpy(np.int64)[keep],
            "doc_id": g["doc_id"].to_numpy(np.int64)[keep],
            "n": n[keep]})

    prefix = partition_map(with_df, "doc_id", prefix_part, num_partitions=P)

    def cand_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["th", "n", "doc_id"], kind="mergesort")
        th = g["th"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        d = g["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, th[1:] != th[:-1]])
        ends = np.r_[starts[1:], len(th)]
        das, dbs = [], []
        for s, e in zip(starts, ends):
            m = int(e - s)
            if m < 2:
                continue
            if m > max_token_group:
                raise ValueError(
                    f"ppjoin: token group of {m} docs exceeds "
                    f"max_token_group={max_token_group}; raise the cap or "
                    "pre-split the near-dup family")
            iu, ju = np.triu_indices(m, 1)
            na, nb = n[s + iu], n[s + ju]  # na <= nb by the sort
            ok = na >= threshold * nb - 1e-9
            da, db = d[s + iu][ok], d[s + ju][ok]
            das.append(np.minimum(da, db))
            dbs.append(np.maximum(da, db))
        if not das:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "w": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "doc_a": np.concatenate(das),
            "doc_b": np.concatenate(dbs),
            "w": np.ones(sum(len(x) for x in das), dtype=np.int64)})

    cands = partition_map(prefix, "th", cand_part, num_partitions=P)
    # w = number of shared prefix tokens; the combine is the pair dedup
    pairs = keyed_combine(cands, ["doc_a", "doc_b"], ["w"], "sum", P)

    pair_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                             ("w", pa.int64())])
    doc_schema = pa.schema([(id_col, pa.int64()), (text_col, pa.string())])
    with_a = bucket_join(pairs, docs, "doc_a", id_col,
                         num_partitions=P, suffix="_a",
                         left_schema=pair_schema, right_schema=doc_schema)
    with_ab = bucket_join(
        with_a,
        docs.map_batches(lambda b: b.rename(columns={text_col: "text_b"}),
                         batch_format="pandas"),
        "doc_b", id_col, num_partitions=P, suffix="_b",
        left_schema=pair_schema.append(pa.field(text_col, pa.string())),
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("text_b", pa.string())]))

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        ja = []
        for x, y in zip(b[text_col], b["text_b"]):
            sx = set((x if isinstance(x, str) else "").split())
            sy = set((y if isinstance(y, str) else "").split())
            u = len(sx | sy)
            ja.append(len(sx & sy) / u if u else 1.0)
        ja = np.asarray(ja, dtype=np.float64)
        keep = ja >= threshold
        return pd.DataFrame({
            "doc_a": b["doc_a"].to_numpy(np.int64)[keep],
            "doc_b": b["doc_b"].to_numpy(np.int64)[keep],
            "jaccard": np.round(ja[keep], 6)})

    return with_ab.map_batches(verify, batch_format="pandas")


# -------------------------------------- sorted-neighborhood (SNM) dedup


def sorted_neighborhood_pairs(
    ds: rd.Dataset,
    window: int = 5,
    threshold: float = 0.3,
    key_len: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Sorted-Neighborhood Method dedup (Hernandez & Stolfo, SIGMOD
    1995): records are globally sorted by a blocking key (the first
    ``key_len`` chars of the lowercased trimmed text, doc-id
    tie-break), and only pairs within ``window`` positions of each
    other in that order are compared — candidate count is O(n*w)
    REGARDLESS of key skew, the classic complement to LSH banding
    (which is skew-sensitive) and to the prefix filter (which is
    threshold-driven).

    Exchange plan: one range sort fixes the global order; block ranks
    are assigned by the ordered_scan idiom (per-block first-key
    summaries -> driver cumsum over block-count rows -> broadcast);
    the windowed self-join is a BANDED shuffle — each row lands in
    bucket rank//window and ghosts into bucket+1, each pair generated
    exactly once in the higher rank's bucket. Jaccard verification is
    in-bucket (texts ride the sort — the SNM record IS the sort
    payload). Nothing corpus-scale touches the driver."""
    import ray

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("")
        return pd.DataFrame({
            "key": t.str.strip().str.lower().str.slice(0, key_len),
            id_col: b[id_col].astype("int64"),
            text_col: t})

    s = ds.map_batches(keyed, batch_format="pandas").sort(
        ["key", id_col]).materialize()

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"k0": pd.Series([], dtype=object),
                                 "i0": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        return pd.DataFrame({"k0": [b["key"].iloc[0]],
                             "i0": [np.int64(b[id_col].iloc[0])],
                             "n": [np.int64(len(b))]})

    sums = (s.map_batches(summarize, batch_format="pandas",
                          batch_size=None)
            .to_pandas().sort_values(["k0", "i0"]))
    offsets = dict(zip(zip(sums["k0"], sums["i0"]),
                       sums["n"].cumsum().shift(1).fillna(0).astype(
                           "int64")))
    off_ref = ray.put(offsets)

    def to_buckets(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({
                "_bk": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
                id_col: pd.Series([], dtype="int64"),
                text_col: pd.Series([], dtype=object),
                "own": pd.Series([], dtype="bool")})
        base = int(ray.get(off_ref)[(b["key"].iloc[0],
                                     int(b[id_col].iloc[0]))])
        rank = base + np.arange(len(b), dtype=np.int64)
        g = rank // window
        own = pd.DataFrame({
            "_bk": g, "rank": rank,
            id_col: b[id_col].to_numpy(np.int64),
            text_col: b[text_col].to_numpy(object),
            "own": np.ones(len(b), dtype=bool)})
        ghost = own.copy()
        ghost["_bk"] = g + 1
        ghost["own"] = False
        return pd.concat([own, ghost], ignore_index=True)

    def pair_part(g: pd.DataFrame) -> pd.DataFrame:
        # duplicates from own+ghost of the same row: keep one copy of
        # each rank, remembering whether it is OWN in this bucket
        g = (g.sort_values(["rank", "own"], ascending=[True, False])
             .drop_duplicates("rank"))
        rank = g["rank"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        ids = g[id_col].to_numpy(np.int64)
        toks = [set((t or "").split()) for t in g[text_col]]
        rows_a, rows_b, ja = [], [], []
        n = len(g)
        for i in range(n):
            for j in range(i + 1, n):
                d = rank[j] - rank[i]
                if d >= window:
                    break
                if not own[j]:  # pair counted where the HIGHER is own
                    continue
                u = len(toks[i] | toks[j])
                jac = len(toks[i] & toks[j]) / u if u else 1.0
                if jac >= threshold:
                    a, bb = ids[i], ids[j]
                    rows_a.append(min(a, bb))
                    rows_b.append(max(a, bb))
                    ja.append(round(jac, 6))
        return pd.DataFrame({
            "doc_a": pd.Series(rows_a, dtype="int64"),
            "doc_b": pd.Series(rows_b, dtype="int64"),
            "jaccard": pd.Series(ja, dtype="float64")})

    return (s.map_batches(to_buckets, batch_format="pandas",
                          batch_size=None)
            .groupby("_bk").map_groups(pair_part, batch_format="pandas"))
