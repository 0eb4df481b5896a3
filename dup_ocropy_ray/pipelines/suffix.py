"""Distributed SUFFIX ARRAY by prefix doubling — the index behind
exact substring deduplication (Lee et al. 2022 build one over the
whole training corpus; pipelines/dedup.py's windowed-hash span dedup is
the approximation, this is the exact structure).

Shape: O(log n) bulk-synchronous rounds over a (pos, rank) table that
never lands on the driver. Each round h doubles the compared prefix:

    key(pos) = rank(pos) * (n + 1) + rank(pos + h) + 1      (0 if past end)
    rank'    = dense_rank(key)

Round cost: ONE large x large bucket_join (fetch rank at pos+h) + ONE
range sort + two linear passes (the distributed dense rank below). The
driver holds only per-block summary rows (ordered_scan's trick) and the
loop terminates when every rank is distinct — ceil(log2(n)) + 1 rounds.

Dense rank without a vocabulary on the driver: sort by (key, pos) so
block boundaries are unambiguous even with massive ties, emit one
summary row per block (first/last key, distinct-within count), walk the
block chain on the driver carrying the boundary-continuation flag (a
key spanning two blocks must share one rank), broadcast the per-block
base ranks, and add the in-block local dense index in a second pass.

Correctness is pinned by exact equality against a serial numpy
doubling reference and a planted 'banana' fixture; layout invariance
(1 vs 8 input blocks) holds because every step is order-free or
globally sorted.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from .relational import bucket_join, partition_map
from .windows import ordered_scan

__all__ = ["corpus_tokens", "suffix_array", "suffix_array_ref",
           "substring_dedup_maximal", "dup_spans_maximal",
           "maximal_cover_ref"]


def _doc_surrogate(arr) -> np.ndarray:
    """int64 doc key for the window machinery: integer ids pass
    through unchanged; any other id type rides a 64-bit string hash.
    A hash collision can only merge two docs' IDENTITY (ordering /
    hit attribution), never window contents — probability ~m^2/2^64
    over m docs, negligible under this module's own 3e9-token cap."""
    a = np.asarray(arr)
    if a.dtype != object and np.issubdtype(a.dtype, np.integer):
        return a.astype(np.int64)
    from ..functions import hashing
    return hashing.hash_strings(
        np.asarray(arr, dtype=object)).astype(np.int64)


def _escape_series(txt: "pd.Series") -> "pd.Series":
    """Injective NUL-escape for sort keys: Ray's string sort compares
    with C-string (truncate-at-NUL) semantics, so tokens that differ
    only past a NUL byte land in ONE arbitrary-ordered tie group and
    equal tokens can end up NON-contiguous — corrupting _dense_rank's
    equality classes. Escaping (\\x01 -> \\x01\\x02, \\x00 ->
    \\x01\\x03) keeps token equality exactly (injective, introduces no
    whitespace, so token counts and lpos mapping are unchanged) and
    removes NULs from every sort key. Identity for NUL/SOH-free text
    (the overwhelmingly common case — the contains check keeps it one
    C-level scan)."""
    m = (txt.str.contains("\x00", regex=False)
         | txt.str.contains("\x01", regex=False))
    if m.any():
        txt = txt.copy()
        txt[m] = (txt[m].str.replace("\x01", "\x01\x02", regex=False)
                  .str.replace("\x00", "\x01\x03", regex=False))
    return txt


def corpus_tokens(docs: rd.Dataset, text_col: str = "text",
                  id_col: str = "doc_id",
                  with_doc: bool = False,
                  escape: bool = True) -> "tuple[rd.Dataset, int]":
    """(pos, word) token stream of the corpus in (doc_id, token-index)
    order with GLOBAL positions, plus the total token count. Global
    doc offsets come from one ordered_scan prefix sum over doc_id —
    per-block partials + a blocks-sized driver reduce, never a
    corpus-scale driver table. ``with_doc`` adds (doc, lpos, nw): the
    token's int64 surrogate doc key (_doc_surrogate; equals the id for
    integer ids), local word index, and doc word count — the columns
    substring_dedup_exact needs to bound valid window starts and map
    duplicated windows back to documents."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks = [(t or "").split() for t in b[text_col].fillna("")]
        lens = np.array([len(t) for t in toks], dtype=np.int64)
        n = int(lens.sum())
        if n == 0:
            out = pd.DataFrame({"pos": pd.Series([], dtype="int64"),
                                "word": pd.Series([], dtype=object)})
            if with_doc:
                for c in ("doc", "lpos", "nw"):
                    out[c] = pd.Series([], dtype="int64")
            return out
        words = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        offs = (b["run_n_tokens"].to_numpy(np.int64)
                - lens)  # exclusive prefix = inclusive run - own count
        starts = np.repeat(offs, lens)
        local = (np.arange(n, dtype=np.int64)
                 - np.repeat(np.concatenate(
                     [np.zeros(1, np.int64), np.cumsum(lens)])[:-1], lens))
        out = pd.DataFrame({"pos": starts + local, "word": words})
        if with_doc:
            out["doc"] = np.repeat(b["_sk"].to_numpy(np.int64), lens)
            out["lpos"] = local
            out["nw"] = np.repeat(lens, lens)
        return out

    # carry the text through the scan: ordered_scan preserves columns.
    # ``escape`` (default) NUL-escapes the text so the word-level sort
    # in _dense_rank is class-exact even for NUL-bearing tokens (see
    # _escape_series); equality structure — all the dedup paths use —
    # is preserved exactly, while the suffix ORDER of such rare tokens
    # follows the escaped bytes. Pass escape=False only for text that
    # is already escaped (substring_dedup_maximal's sentinel stream).
    def to_cts(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("")
        if escape:
            t = _escape_series(t)
        return pd.DataFrame({
            "_sk": _doc_surrogate(b[id_col].to_numpy()),
            text_col: t,
            "n_tokens": t.str.split().map(len).astype(np.int64)})

    cts = docs.map_batches(to_cts, batch_format="pandas")
    scanned = ordered_scan(cts, "_sk",
                           sum_cols=("n_tokens",)).materialize()
    total = int(scanned.max("run_n_tokens") or 0)
    toks = scanned.map_batches(explode, batch_format="pandas",
                               batch_size=2048)
    return toks, total


def _dense_rank(ds: rd.Dataset, key_col: str,
                pos_col: str = "pos") -> "tuple[rd.Dataset, int]":
    """Distributed dense rank (0-based, ties share) of ``key_col``:
    returns ((pos, rank) Dataset, n_distinct). Sort is by (key, pos) so
    equal keys spanning a block boundary are detected by the driver's
    block-chain walk, not mis-ranked."""
    s = ds.sort([key_col, pos_col]).materialize()

    def summary(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({
                "first_key": pd.Series([], dtype=object),
                "last_key": pd.Series([], dtype=object),
                "first_pos": pd.Series([], dtype="int64"),
                "n_distinct": pd.Series([], dtype="int64")})
        k = b[key_col].to_numpy()
        new = np.ones(len(k), bool)
        new[1:] = k[1:] != k[:-1]
        return pd.DataFrame({
            "first_key": [k[0]], "last_key": [k[-1]],
            "first_pos": [np.int64(b[pos_col].iloc[0])],
            "n_distinct": [np.int64(new.sum())]})

    ss = (s.map_batches(summary, batch_format="pandas", batch_size=None)
          .to_pandas())
    ss = ss.sort_values(["first_key", "first_pos"]).reset_index(drop=True)
    bases: dict = {}
    total = 0
    prev_last = None
    for _, row in ss.iterrows():
        continued = (prev_last is not None
                     and row["first_key"] == prev_last)
        base = total - 1 if continued else total
        bases[(row["first_key"], int(row["first_pos"]))] = base
        total += int(row["n_distinct"]) - (1 if continued else 0)
        prev_last = row["last_key"]
    bases_ref = ray.put(bases)

    def apply(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"pos": pd.Series([], dtype="int64"),
                                 "rank": pd.Series([], dtype="int64")})
        k = b[key_col].to_numpy()
        new = np.ones(len(k), np.int64)
        new[1:] = (k[1:] != k[:-1]).astype(np.int64)
        local = np.cumsum(new) - 1
        base = ray.get(bases_ref)[(k[0], int(b[pos_col].iloc[0]))]
        return pd.DataFrame({
            "pos": b[pos_col].astype(np.int64),
            "rank": (base + local).astype(np.int64)})

    ranks = s.map_batches(apply, batch_format="pandas", batch_size=None)
    return ranks, total


_RANK_SCHEMA = pa.schema([("pos", pa.int64()), ("rank", pa.int64())])
_PROBE_SCHEMA = pa.schema([("pos", pa.int64()), ("r2", pa.int64())])


def suffix_array(docs: rd.Dataset, text_col: str = "text",
                 id_col: str = "doc_id",
                 num_partitions: int = 32) -> "tuple[rd.Dataset, int]":
    """Suffix array of the corpus token stream: returns ((pos, rank)
    Dataset — ``rank`` is the suffix's position in lexicographic
    order — and n). Materialized per round to keep lineage flat; the
    loop raises if ranks fail to separate within the doubling bound
    (impossible unless the rank table was corrupted).

    Tokens are NUL-escaped first (``corpus_tokens``), so for tokens
    holding ``\\x00`` or ``\\x01`` the suffix order follows the escaped
    bytes and can differ from the true lexicographic order that
    ``suffix_array_ref`` gives. Equality classes, and with them every
    dedup result, are unaffected."""
    toks, n = corpus_tokens(docs, text_col, id_col)
    if n == 0:
        return (rd.from_pandas(pd.DataFrame({
            "pos": pd.Series([], dtype="int64"),
            "rank": pd.Series([], dtype="int64")})), 0)
    ranks, distinct = _dense_rank(toks, "word")
    ranks = ranks.materialize()
    h = 1
    while distinct < n:
        if h > 2 * n:
            raise RuntimeError("suffix_array: prefix doubling failed "
                               "to separate ranks — rank table corrupt")
        ranks, distinct = _doubling_round(ranks, h, n, num_partitions)
        h *= 2
    return ranks, n


def _doubling_round(ranks: rd.Dataset, h: int, n: int,
                    num_partitions: int) -> "tuple[rd.Dataset, int]":
    """One prefix-doubling round: rank-by-h-prefix -> rank-by-2h-prefix
    (ONE large x large bucket_join to fetch rank(pos + h) + one
    distributed dense rank). Returns the materialized new rank table
    and its distinct count."""
    probe = ranks.map_batches(
        lambda b, _h=h: pd.DataFrame({
            "pos": b["pos"].to_numpy(np.int64) - _h,
            "r2": b["rank"].to_numpy(np.int64)}),
        batch_format="pandas")
    j = bucket_join(ranks, probe, "pos", "pos",
                    num_partitions=num_partitions, how="left",
                    left_schema=_RANK_SCHEMA,
                    right_schema=_PROBE_SCHEMA, suffix="_r")

    def mk_key(b: pd.DataFrame, _n=n) -> pd.DataFrame:
        r2 = pd.to_numeric(b["r2"], errors="raise").fillna(-1)
        key = (b["rank"].to_numpy(np.int64) * (_n + 1)
               + r2.to_numpy(np.int64) + 1)
        return pd.DataFrame({"pos": b["pos"].astype(np.int64),
                             "key": key})

    keyed = j.map_batches(mk_key, batch_format="pandas")
    out, distinct = _dense_rank(keyed, "key")
    return out.materialize(), distinct


def prefix_ranks(toks: rd.Dataset, n: int, h_target: int,
                 num_partitions: int = 32) -> rd.Dataset:
    """(pos, rank) where ``rank`` is the dense EQUALITY CLASS of the
    h_target-token substring starting at pos (clipped at corpus end);
    ``h_target`` must be a power of two. This is the suffix-array
    doubling loop STOPPED EARLY — log2(h_target) rounds instead of
    log2(n) — which is all substring_dedup_exact needs: two windows of
    length W share their first h tokens iff their ranks are equal.
    Stops even earlier if ranks separate (then no two h-substrings are
    equal at all)."""
    if h_target & (h_target - 1):
        raise ValueError("prefix_ranks: h_target must be a power of two")
    ranks, distinct = _dense_rank(toks, "word")
    ranks = ranks.materialize()
    h = 1
    while h < h_target and distinct < n:
        ranks, distinct = _doubling_round(ranks, h, n, num_partitions)
        h *= 2
    return ranks


def substring_dedup_exact(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
    min_docs: int = 2,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT substring-span dedup on the suffix-array machinery (the
    exact path of Lee et al. 2022's deduplication; strip_dup_spans is
    the windowed-HASH approximation of the same transform): drop every
    word covered by a W-word window appearing in >= ``min_docs``
    distinct docs, comparing the ACTUAL TOKENS — no hash collisions —
    via prefix-doubling equality classes, with no gram strings and no
    driver-side corpus state.

    A W-window starting at pos is identified by the pair
    (rank_h(pos), rank_h(pos + W - h)) with h = 2^floor(log2 W): the
    two components cover [pos, pos+h) and [pos+W-h, pos+W), whose
    union is exactly the window, so the pair is equal iff the windows
    are token-for-token equal. Both component ranges lie inside the
    window, so ranks never leak cross-document context even though the
    rank table is built on the unseparated global stream.

    Cost: log2(W) doubling rounds (each one bucket_join + one sort) +
    two window-key joins + one dup groupby + one semi join + one
    doc-keyed strip shuffle. The composed dup key is
    rank1*(n+2)+rank2, exact while (n+2)^2 < 2^63 (~3e9 tokens per
    job); shard the corpus into multiple jobs past that.

    Output contract matches strip_dup_spans: (id_col, clean_text),
    empty docs dropped."""
    from .dedup import _arrow_id_type, _strip_from_hits

    id_type = _arrow_id_type(docs, id_col)
    toks, n = corpus_tokens(docs, text_col, id_col, with_doc=True)
    if n == 0:
        return rd.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            "clean_text": pa.array([], pa.string())}))
    if (n + 2) ** 2 >= 2 ** 63:
        raise ValueError("substring_dedup_exact: corpus too large for "
                         "the composed int64 dup key; shard the job")
    h = 1
    while h * 2 <= window:
        h *= 2
    ranks = prefix_ranks(toks, n, h, num_partitions)

    # valid window starts with their doc mapping
    starts = toks.map_batches(
        lambda b: b.loc[b["lpos"].to_numpy(np.int64) + window
                        <= b["nw"].to_numpy(np.int64),
                        ["pos", "doc", "lpos"]].reset_index(drop=True),
        batch_format="pandas")
    starts_schema = pa.schema([("pos", pa.int64()), ("doc", pa.int64()),
                               ("lpos", pa.int64())])
    j1 = bucket_join(starts, ranks, "pos", "pos",
                     num_partitions=num_partitions, how="inner",
                     left_schema=starts_schema,
                     right_schema=_RANK_SCHEMA, suffix="_r")
    shift = window - h
    probe2 = ranks.map_batches(
        lambda b, _s=shift: pd.DataFrame({
            "pos": b["pos"].to_numpy(np.int64) - _s,
            "r2": b["rank"].to_numpy(np.int64)}),
        batch_format="pandas")
    j2 = bucket_join(
        j1, probe2, "pos", "pos",
        num_partitions=num_partitions, how="inner",
        left_schema=pa.schema(list(starts_schema)
                              + [pa.field("rank", pa.int64())]),
        right_schema=_PROBE_SCHEMA, suffix="_r")

    def mk_wkey(b: pd.DataFrame, _n=n) -> pd.DataFrame:
        key = (b["rank"].to_numpy(np.int64) * (_n + 2)
               + b["r2"].to_numpy(np.int64))
        return pd.DataFrame({"key": key,
                             "doc": b["doc"].to_numpy(np.int64),
                             "lpos": b["lpos"].to_numpy(np.int64)})

    # window-key-scale (24 B/window); pin it so the dup-key groupby and
    # the semi join below share ONE execution of the doubling lineage
    # instead of re-running j1+j2+starts twice (spills past memory)
    wkeys = j2.map_batches(mk_wkey, batch_format="pandas").materialize()

    # duplicated keys: >= min_docs distinct docs (same semantics as the
    # windowed-hash family) on one (key,doc)-distinct partial + one
    # exchange keyed on the window key
    def kd_part(b: pd.DataFrame) -> pd.DataFrame:
        return b[["key", "doc"]].drop_duplicates()

    def kd_fin(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.drop_duplicates().groupby("key", sort=False)["doc"].size()
        return pd.DataFrame({
            "key": nd.index[nd >= min_docs].to_numpy(np.int64)})

    dup_keys = partition_map(
        wkeys.map_batches(kd_part, batch_format="pandas", batch_size=65536),
        "key", kd_fin)

    hits = bucket_join(
        wkeys, dup_keys, "key", "key",
        num_partitions=num_partitions, how="semi",
        left_schema=pa.schema([("key", pa.int64()), ("doc", pa.int64()),
                               ("lpos", pa.int64())]),
        right_schema=pa.schema([("key", pa.int64())]))

    # doc-keyed strip shuffle: doc text rows (kind 0) + hit rows (kind
    # 1) meet per doc; the strip body is shared with strip_dup_spans
    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("").tolist()
        nwords = np.array([len(t.split()) for t in texts], dtype=np.int64)
        keep = nwords > 0
        nk = int(keep.sum())
        ids = b[id_col].to_numpy()[keep]
        return pd.DataFrame({
            "doc": _doc_surrogate(ids),
            # object dtype: block schemas must match hit_rows' None col
            "orig": pd.Series(ids, dtype=object),
            "text": np.asarray(texts, dtype=object)[keep],
            "lpos": np.full(nk, -1, dtype=np.int64),
            "kind": np.zeros(nk, dtype=np.int8)})

    def hit_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc": b["doc"].to_numpy(np.int64),
            "orig": np.full(len(b), None, dtype=object),
            "text": np.full(len(b), None, dtype=object),
            "lpos": b["lpos"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    union = (docs.map_batches(doc_rows, batch_format="pandas",
                              batch_size=4096)
             .union(hits.map_batches(hit_rows, batch_format="pandas")))

    def strip_part(g: pd.DataFrame) -> pd.DataFrame:
        dr = g[g["kind"].to_numpy() == 0]
        ids = dr["doc"].to_numpy(np.int64)
        texts = dr["text"].tolist()
        order = pd.Index(ids)
        ver = g[g["kind"].to_numpy() == 1]
        didx = order.get_indexer(ver["doc"].to_numpy(np.int64))
        ok = didx >= 0
        # output carries the ORIGINAL ids (doc is the int64 surrogate)
        out = _strip_from_hits(dr["orig"].to_numpy(), texts, didx[ok],
                               ver["lpos"].to_numpy(np.int64)[ok],
                               window, id_col)
        return out

    return partition_map(union, "doc", strip_part)


# --------------------------------------------------------------------
# MAXIMAL duplicated spans (Lee et al. 2022's actual ExactSubstr
# semantics): remove every token covered by a duplicated substring of
# length >= min_len, where "duplicated" means the substring occurs at
# >= 2 distinct positions ANYWHERE in the corpus — including twice
# inside the SAME document, which the windowed min_docs>=2 family
# (strip_dup_spans / substring_dedup_exact) structurally cannot see.
# The removed region per position is [pos, pos + dup_len(pos)) with
# dup_len(pos) = the longest prefix of suffix(pos) occurring elsewhere,
# i.e. genuinely variable-length MAXIMAL spans, not fixed-W windows.
#
# Machinery: per-doc unique sentinel tokens stop matches at doc
# boundaries (Lee et al. concatenate with separators the same way);
# the full prefix-doubling suffix array keeps every power-of-two rank
# level; dup_len comes from the classic SA property
#     dup_len(pos) = max(LCP(pos, SA-prev), LCP(pos, SA-next))
# with each LCP computed by greedy descent over the rank levels
# (rank_h(p) == rank_h(q)  <=>  the two h-prefixes are equal): ~log n
# bulk-synchronous rounds of ONE adjacency join + two lookup joins,
# driver state stays at _dense_rank's per-block summary scale.
# Adjacent pairs are prefiltered at level 2^floor(log2 min_len) — only
# pairs that can reach LCP >= min_len enter the descent, so the
# per-round join work after the prefilter is dup-candidate scale.


_PAIR_SCHEMA = pa.schema([("oa", pa.int64()), ("ob", pa.int64()),
                          ("a", pa.int64()), ("b", pa.int64()),
                          ("lcp", pa.int64())])
_HIT_SCHEMA = pa.schema([("pos", pa.int64()), ("dlen", pa.int64())])
_TOKDOC_SCHEMA = pa.schema([("pos", pa.int64()), ("doc", pa.int64()),
                            ("lpos", pa.int64()), ("nw", pa.int64())])


def _suffix_array_levels(toks: rd.Dataset, n: int, num_partitions: int):
    """Full prefix-doubling loop keeping EVERY intermediate rank table:
    returns (final (pos, rank) suffix ranks, {h: rank_h Dataset}).
    rank_h is the dense equality class of the h-token prefix (clipped
    at corpus end; two clipped suffixes can never share a class, see
    suffix_array). Storage is n x 16 B per level, log2(n) levels —
    the premium exact path's price, same as Lee et al.'s on-disk SA.

    Deliberately NOT merged with suffix_array's loop: that one drops
    each round's rank table so the object store can GC it — pinning
    all levels (what the LCP descent needs) would silently multiply
    plain suffix_array's memory footprint by log2(n)."""
    ranks, distinct = _dense_rank(toks, "word")
    ranks = ranks.materialize()
    levels = {1: ranks}
    h = 1
    while distinct < n:
        if h > 2 * n:
            raise RuntimeError("suffix_array: prefix doubling failed "
                               "to separate ranks — rank table corrupt")
        ranks, distinct = _doubling_round(ranks, h, n, num_partitions)
        h *= 2
        levels[h] = ranks
    return ranks, levels


def _rank_lookup(pairs: rd.Dataset, lvl: rd.Dataset, col: str,
                 out: str, num_partitions: int,
                 pair_schema: pa.Schema) -> rd.Dataset:
    """LEFT-join rank_h at ``pairs[col]`` into column ``out`` (null when
    the position is past corpus end — never matches)."""
    probe = lvl.map_batches(
        lambda b, _o=out: pd.DataFrame({
            "pos": b["pos"].to_numpy(np.int64),
            _o: b["rank"].to_numpy(np.int64)}),
        batch_format="pandas")
    return bucket_join(
        pairs, probe, col, "pos",
        num_partitions=num_partitions, how="left",
        left_schema=pair_schema,
        right_schema=pa.schema([("pos", pa.int64()), (out, pa.int64())]),
        suffix="_rl")


def _maximal_hits(docs: rd.Dataset, text_col: str, id_col: str,
                  min_len: int, num_partitions: int):
    """(doc, lpos, dlen) hit table of maximal duplicated prefixes with
    dlen >= min_len, plus the (possibly empty) short-circuit flag."""
    if min_len < 2:
        raise ValueError("substring_dedup_maximal: min_len must be >= 2")

    def add_sentinel(b: pd.DataFrame) -> pd.DataFrame:
        # escape FIRST: afterwards no real token contains \x00, so a
        # "\x00<sk>" sentinel can never equal any token. Sentinels are
        # pairwise distinct (unique surrogate keys), and _dense_rank
        # only needs DISTINCT keys to stay distinct — the C-compare tie
        # group all sentinels share is harmless. corpus_tokens below
        # must not re-escape (it would mangle the sentinel back into
        # the escaped-token image, recreating the collision).
        sk = _doc_surrogate(b[id_col].to_numpy())
        txt = _escape_series(b[text_col].fillna(""))
        sent = pd.Series(["\x00" + str(s) for s in sk], index=txt.index)
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            text_col: (txt + " " + sent).str.strip()})

    docs2 = docs.map_batches(add_sentinel, batch_format="pandas")
    toks, n = corpus_tokens(docs2, text_col, id_col, with_doc=True,
                            escape=False)
    if n == 0:
        return None, None
    if (n + 2) ** 2 >= 2 ** 63:
        raise ValueError("substring_dedup_maximal: corpus too large for "
                         "the int64 doubling key; shard the job")
    sa, levels = _suffix_array_levels(toks, n, num_partitions)

    h_l = 1
    while h_l * 2 <= min_len:
        h_l *= 2
    if h_l not in levels:
        # ranks separated below h_l: every LCP < h_l <= min_len
        return None, toks

    # adjacent suffix pairs in lexicographic order: pos at rank r+1
    # probes rank r — ONE n-scale join
    probe = sa.map_batches(
        lambda b: pd.DataFrame({
            "rank": b["rank"].to_numpy(np.int64) - 1,
            "hi": b["pos"].to_numpy(np.int64)}),
        batch_format="pandas")
    adj = bucket_join(
        sa, probe, "rank", "rank",
        num_partitions=num_partitions, how="inner",
        left_schema=_RANK_SCHEMA,
        right_schema=pa.schema([("rank", pa.int64()),
                                ("hi", pa.int64())]))
    pairs = adj.map_batches(
        lambda b: pd.DataFrame({
            "oa": b["pos"].to_numpy(np.int64),
            "ob": b["hi"].to_numpy(np.int64),
            "a": b["pos"].to_numpy(np.int64),
            "b": b["hi"].to_numpy(np.int64),
            "lcp": np.zeros(len(b), np.int64)}),
        batch_format="pandas")

    # prefilter: only pairs sharing the h_l-prefix class can reach
    # LCP >= min_len (two n-scale lookup joins; survivors are
    # dup-candidate scale)
    pf = _rank_lookup(pairs, levels[h_l], "a", "ra", num_partitions,
                      _PAIR_SCHEMA)
    pf = _rank_lookup(
        pf, levels[h_l], "b", "rb", num_partitions,
        pa.schema(list(_PAIR_SCHEMA) + [pa.field("ra", pa.int64())]))

    def keep_eq(b: pd.DataFrame) -> pd.DataFrame:
        ra = pd.to_numeric(b["ra"], errors="coerce")
        rb = pd.to_numeric(b["rb"], errors="coerce")
        m = (ra.notna() & rb.notna() & (ra == rb)).to_numpy()
        return b.loc[m, ["oa", "ob", "a", "b", "lcp"]].reset_index(
            drop=True)

    pairs = pf.map_batches(keep_eq, batch_format="pandas").materialize()
    if pairs.count() == 0:
        # no pair can reach LCP >= min_len: skip the descent's
        # 2*log(n) corpus-scale lookup joins entirely
        return None, toks

    # greedy LCP descent over rank levels, highest first: equality of
    # rank_h at the advanced offsets adds h to the LCP and advances
    # both cursors (LCP < max level because the top level separated)
    for h in sorted(levels, reverse=True):
        pairs = _rank_lookup(pairs, levels[h], "a", "ra",
                             num_partitions, _PAIR_SCHEMA)
        pairs = _rank_lookup(
            pairs, levels[h], "b", "rb", num_partitions,
            pa.schema(list(_PAIR_SCHEMA) + [pa.field("ra", pa.int64())]))

        def step(b: pd.DataFrame, _h=h) -> pd.DataFrame:
            ra = pd.to_numeric(b["ra"], errors="coerce")
            rb = pd.to_numeric(b["rb"], errors="coerce")
            eq = (ra.notna() & rb.notna() & (ra == rb)).to_numpy()
            adv = np.where(eq, np.int64(_h), np.int64(0))
            return pd.DataFrame({
                "oa": b["oa"].to_numpy(np.int64),
                "ob": b["ob"].to_numpy(np.int64),
                "a": b["a"].to_numpy(np.int64) + adv,
                "b": b["b"].to_numpy(np.int64) + adv,
                "lcp": b["lcp"].to_numpy(np.int64) + adv})

        pairs = pairs.map_batches(step,
                                  batch_format="pandas").materialize()

    # dup_len(pos) = max over the <=2 adjacent pairs touching pos
    def emit_sides(b: pd.DataFrame) -> pd.DataFrame:
        m = b["lcp"].to_numpy(np.int64) >= min_len
        oa = b["oa"].to_numpy(np.int64)[m]
        ob = b["ob"].to_numpy(np.int64)[m]
        lc = b["lcp"].to_numpy(np.int64)[m]
        return pd.DataFrame({
            "pos": np.concatenate([oa, ob]),
            "dlen": np.concatenate([lc, lc])})

    def max_per_pos(g: pd.DataFrame) -> pd.DataFrame:
        mx = g.groupby("pos", sort=False)["dlen"].max()
        return pd.DataFrame({"pos": mx.index.to_numpy(np.int64),
                             "dlen": mx.to_numpy(np.int64)})

    hits_pos = partition_map(
        pairs.map_batches(emit_sides, batch_format="pandas"), "pos",
        max_per_pos)

    # map positions back to (doc, lpos) — one n-scale inner join; clip
    # dlen at the REAL doc end (the sentinel occupies lpos == nw - 1)
    tokmap = toks.map_batches(
        lambda b: b[["pos", "doc", "lpos", "nw"]],
        batch_format="pandas")
    j = bucket_join(tokmap, hits_pos, "pos", "pos",
                    num_partitions=num_partitions, how="inner",
                    left_schema=_TOKDOC_SCHEMA,
                    right_schema=_HIT_SCHEMA, suffix="_h")

    def to_hits(b: pd.DataFrame) -> pd.DataFrame:
        lpos = b["lpos"].to_numpy(np.int64)
        real_rem = (b["nw"].to_numpy(np.int64) - 1) - lpos
        dlen = np.minimum(b["dlen"].to_numpy(np.int64), real_rem)
        m = dlen >= min_len
        return pd.DataFrame({"doc": b["doc"].to_numpy(np.int64)[m],
                             "lpos": lpos[m], "dlen": dlen[m]})

    return j.map_batches(to_hits, batch_format="pandas"), toks


def _cover_islands(counts: np.ndarray, hit_doc: np.ndarray,
                   hit_pos: np.ndarray, hit_len: np.ndarray):
    """Per-group coverage of variable-length hits over the flat token
    stream: returns (covered bool[n], tok_off). Hits never cross doc
    boundaries (clipped upstream)."""
    total = int(counts.sum())
    tok_off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    delta = np.zeros(total + 1, dtype=np.int64)
    g = tok_off[hit_doc] + hit_pos
    np.add.at(delta, g, 1)
    np.add.at(delta, g + hit_len, -1)
    covered = np.cumsum(delta[:total]) > 0
    return covered, tok_off


def _maximal_grouped(docs: rd.Dataset, text_col: str, id_col: str,
                     min_len: int, num_partitions: int, emit: str,
                     id_type: pa.DataType) -> rd.Dataset:
    """Doc-keyed shuffle joining doc rows (kind 0: id + text) with hit
    rows (kind 1: lpos + dlen), then per-doc ``emit``: "clean" strips
    covered tokens, "spans" reports the maximal covered intervals."""
    empty = (pa.table({id_col: pa.array([], id_type),
                       "clean_text": pa.array([], pa.string())})
             if emit == "clean" else
             pa.table({id_col: pa.array([], id_type),
                       "start": pa.array([], pa.int64()),
                       "length": pa.array([], pa.int64())}))
    hits, _ = _maximal_hits(docs, text_col, id_col, min_len,
                            num_partitions)
    if hits is None:
        if emit == "spans":
            return rd.from_arrow(empty)

        # no duplicated spans anywhere: clean_text == the tokens
        # rejoined with single spaces — the SAME normalization the
        # strip path (and the SQL twin's string_agg) produces, NOT the
        # raw text
        def passthrough(b: pd.DataFrame) -> pd.DataFrame:
            toks = b[text_col].fillna("").str.split()
            keep = toks.map(len) > 0
            return pd.DataFrame({
                id_col: b[id_col].to_numpy()[keep.to_numpy()],
                "clean_text": toks[keep].str.join(" ")}).reset_index(
                drop=True)

        return docs.map_batches(passthrough, batch_format="pandas")

    def doc_rows(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("").tolist()
        nwords = np.array([len(t.split()) for t in texts],
                          dtype=np.int64)
        keep = nwords > 0
        nk = int(keep.sum())
        ids = b[id_col].to_numpy()[keep]
        return pd.DataFrame({
            "doc": _doc_surrogate(ids),
            "orig": pd.Series(ids, dtype=object),
            "text": np.asarray(texts, dtype=object)[keep],
            "lpos": np.full(nk, -1, dtype=np.int64),
            "dlen": np.zeros(nk, dtype=np.int64),
            "kind": np.zeros(nk, dtype=np.int8)})

    def hit_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc": b["doc"].to_numpy(np.int64),
            "orig": np.full(len(b), None, dtype=object),
            "text": np.full(len(b), None, dtype=object),
            "lpos": b["lpos"].to_numpy(np.int64),
            "dlen": b["dlen"].to_numpy(np.int64),
            "kind": np.ones(len(b), dtype=np.int8)})

    union = (docs.map_batches(doc_rows, batch_format="pandas",
                              batch_size=4096)
             .union(hits.map_batches(hit_rows, batch_format="pandas")))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        dr = g[g["kind"].to_numpy() == 0]
        ids = dr["orig"].to_numpy()
        tok_lists = [(t or "").split() for t in dr["text"].tolist()]
        counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
        order = pd.Index(dr["doc"].to_numpy(np.int64))
        if order.has_duplicates:
            # hits carry only the doc key: two docs under one id would
            # share (and garble) each other's coverage
            raise ValueError(f"maximal substring dedup needs unique "
                             f"{id_col!r} values; found duplicates")
        ver = g[g["kind"].to_numpy() == 1]
        didx = order.get_indexer(ver["doc"].to_numpy(np.int64))
        ok = didx >= 0
        covered, tok_off = _cover_islands(
            counts, didx[ok], ver["lpos"].to_numpy(np.int64)[ok],
            ver["dlen"].to_numpy(np.int64)[ok])
        total = int(counts.sum())
        doc_of = np.repeat(np.arange(len(counts)), counts)
        if emit == "spans":
            if total == 0 or not covered.any():
                return empty.to_pandas()
            is_start = np.zeros(total, bool)
            is_start[tok_off[:-1][counts > 0]] = True
            prev = np.concatenate([[False], covered[:-1]])
            nxt = np.concatenate([covered[1:], [False]])
            is_end = np.zeros(total, bool)
            is_end[tok_off[1:][counts > 0] - 1] = True
            s = np.flatnonzero(covered & (~prev | is_start))
            e = np.flatnonzero(covered & (~nxt | is_end))
            d = doc_of[s]
            return pd.DataFrame({
                # list(): re-infer the natural dtype (int64 for integer
                # ids) instead of carrying the shuffle's object column
                id_col: pd.Series(list(ids[d])),
                "start": (s - tok_off[d]).astype(np.int64),
                "length": (e - s + 1).astype(np.int64)})
        flat = np.empty(total, dtype=object)
        p = 0
        for t in tok_lists:
            if t:
                flat[p : p + len(t)] = t
                p += len(t)
        keep_words = ~covered
        kept_per_doc = np.bincount(doc_of[keep_words],
                                   minlength=len(counts))
        kept_flat = flat[keep_words]
        bounds = np.concatenate([[0], np.cumsum(kept_per_doc)])
        rows = [(ids[i],
                 " ".join(kept_flat[bounds[i]:bounds[i + 1]]))
                for i in range(len(counts)) if kept_per_doc[i] > 0]
        return pd.DataFrame(rows, columns=[id_col, "clean_text"])

    return partition_map(union, "doc", per_part)


def substring_dedup_maximal(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_len: int = 8,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Lee et al. 2022 ExactSubstr semantics: strip every token covered
    by a MAXIMAL duplicated substring of >= ``min_len`` tokens, where
    duplicated = occurs at >= 2 distinct corpus positions (within OR
    across docs — within-doc repeats are removed, unlike the
    min_docs-based windowed family). Output (id_col, clean_text), empty
    docs dropped. The removed token SET provably equals the union of
    duplicated min_len-windows under occurrence counting, which is the
    SQL oracle's formulation; the spans variant below additionally
    reports the variable-length maximal intervals no fixed-W path can
    produce."""
    from .dedup import _arrow_id_type

    return _maximal_grouped(docs, text_col, id_col, min_len,
                            num_partitions, "clean",
                            _arrow_id_type(docs, id_col))


def dup_spans_maximal(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_len: int = 8,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Maximal duplicated-span report: (id_col, start, length) of each
    maximal run of tokens covered by >= min_len-token duplicated
    substrings (occurrence semantics, see substring_dedup_maximal).
    ``start``/``length`` are in token units within the doc."""
    from .dedup import _arrow_id_type

    return _maximal_grouped(docs, text_col, id_col, min_len,
                            num_partitions, "spans",
                            _arrow_id_type(docs, id_col))


def maximal_cover_ref(records: "list[tuple]", min_len: int):
    """Serial O(n^2 * len) reference (test oracle): for (id, text)
    pairs returns ({id: covered bool array}, {id: [(start, len)]})
    under occurrence-counting maximal-span semantics."""
    toks = [(i, (t or "").split()) for i, t in records]
    allpos = [(di, wi) for di, (_, w) in enumerate(toks)
              for wi in range(len(w))]
    cover = {i: np.zeros(len(w), bool) for i, w in toks}
    for di, wi in allpos:
        w = toks[di][1]
        best = 0
        for dj, wj in allpos:
            if (di, wi) == (dj, wj):
                continue
            v = toks[dj][1]
            m = 0
            while (wi + m < len(w) and wj + m < len(v)
                   and w[wi + m] == v[wj + m]):
                m += 1
            best = max(best, m)
        if best >= min_len:
            cover[toks[di][0]][wi : wi + best] = True
    spans = {}
    for i, w in toks:
        c = cover[i]
        out = []
        j = 0
        while j < len(c):
            if c[j]:
                k = j
                while k < len(c) and c[k]:
                    k += 1
                out.append((j, k - j))
                j = k
            else:
                j += 1
        spans[i] = out
    return cover, spans


def suffix_array_ref(words: "list[str]") -> np.ndarray:
    """Serial numpy doubling reference (test oracle): returns the
    suffix array as positions in lexicographic suffix order."""
    n = len(words)
    if n == 0:
        return np.empty(0, np.int64)
    rank = np.unique(np.asarray(words, dtype=object),
                     return_inverse=True)[1].astype(np.int64)
    h = 1
    while len(np.unique(rank)) < n:
        r2 = np.full(n, -1, np.int64)
        r2[: n - h] = rank[h:]
        order = np.lexsort((r2, rank))
        key_sorted = np.stack([rank[order], r2[order]], axis=1)
        new = np.ones(n, np.int64)
        new[1:] = (np.any(key_sorted[1:] != key_sorted[:-1],
                          axis=1)).astype(np.int64)
        newrank = np.empty(n, np.int64)
        newrank[order] = np.cumsum(new) - 1
        rank = newrank
        h *= 2
    sa = np.empty(n, np.int64)
    sa[rank] = np.arange(n, dtype=np.int64)
    return sa
