"""Text-analysis operators over the documents table: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

All stages are vectorized pandas string ops inside map_batches; the
heuristics are chosen to be exactly reproducible in ANSI SQL so the
DuckDB oracle can verify them value-for-value.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from ..functions import hashing
from .relational import bucket_join, keyed_combine, partition_map, topk

# tiny per-language stopword lists for the lang-id heuristic (the classic
# stopword-hit method; n-gram models would need training data)
LANG_STOPWORDS = {
    "en": ["the", "a", "of", "and", "to"],
    "de": ["der", "die", "und", "das", "ein"],
    "fr": ["le", "la", "et", "les", "des"],
    "es": ["el", "la", "los", "y", "de"],
    "zh": ["de", "le", "shi", "bu", "wo"],
}


def token_count_table(ds: rd.Dataset) -> rd.Dataset:
    """Per-doc whitespace token count + char count."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.split()
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].values,
                "n_tokens": toks.map(len).astype("int64"),
                "n_chars_measured": batch["text"].fillna("").str.len().astype("int64"),
            }
        )

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


def quality_score_table(ds: rd.Dataset) -> rd.Dataset:
    """Per-doc quality features: mean word length, alpha ratio,
    short-doc flag. All SQL-expressible."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        toks = text.str.split()
        n_tokens = toks.map(len)
        n_chars = text.str.len()
        alpha = text.str.count(r"[a-zA-Z]")
        mwl = np.where(
            n_tokens > 0,
            (n_chars - (n_tokens - 1).clip(lower=0)) / n_tokens.replace(0, 1),
            0.0,
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].values,
                "n_tokens": n_tokens.astype("int64"),
                "alpha_ratio": np.round(
                    np.where(n_chars > 0, alpha / n_chars.replace(0, 1), 0.0), 6
                ),
                "mean_word_len": np.round(mwl, 6),
                "is_short": (n_chars < 100).astype("int64"),
            }
        )

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


def langid_table(ds: rd.Dataset) -> rd.Dataset:
    """Stopword-hit language ID: per doc, count token hits per language
    list; predict the argmax (ties -> lexicographically first language).
    Reproducible in SQL with list_filter + greatest()."""
    langs = sorted(LANG_STOPWORDS)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # one explode + one isin per language (C-level), no per-row loop
        flat = batch["text"].fillna("").str.split().explode().dropna()
        pos = flat.index.to_numpy()
        n = len(batch)
        out = {"doc_id": batch["doc_id"].values}
        scores = []
        for lg in langs:
            hit = flat.isin(LANG_STOPWORDS[lg]).to_numpy()
            s = np.bincount(pos[hit], minlength=n).astype("int64")
            out[f"hits_{lg}"] = s
            scores.append(s)
        S = np.stack(scores, axis=1)
        out["pred_lang"] = np.array(langs, dtype=object)[S.argmax(axis=1)]
        return pd.DataFrame(out)

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


def distinctive_terms(ds: rd.Dataset) -> rd.Dataset:
    """(source, term, tf, df, score) — inverted-index-style two-level
    aggregation: per-batch partial (source, term) counts (tf =
    occurrences, dfs = docs-in-batch-in-source containing term), ONE
    term-keyed ``partition_map`` that both merges partials and computes
    each term's global doc frequency (a term's rows all co-locate, and
    every doc lives in exactly one source, so df = sum of dfs), then an
    integer distinctiveness score tf*1e6 // df. Integer arithmetic keeps
    the oracle comparison exact (a float idf would differ in the last
    ulp between libms). Feed the result to ``grouped_topk`` for
    top-terms-per-source."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        ex = pd.DataFrame({
            "doc_id": b["doc_id"].repeat(toks.map(len)),
            "source": b["source"].repeat(toks.map(len)),
            "term": np.concatenate([t for t in toks if t] or [[]]),
        })
        g = ex.groupby(["source", "term"], as_index=False, sort=False).agg(
            tf=("doc_id", "size"), dfs=("doc_id", "nunique"))
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        st = g.groupby(["source", "term"], as_index=False, sort=False).agg(
            tf=("tf", "sum"), dfs=("dfs", "sum"))
        df_term = st.groupby("term", sort=False)["dfs"].sum()
        df = st["term"].map(df_term).astype("int64")
        return pd.DataFrame({
            "source": st["source"], "term": st["term"],
            "tf": st["tf"].astype("int64"), "df": df,
            "score": (st["tf"].astype("int64") * 1_000_000) // df,
        })

    return partition_map(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "term", combine)


def fingerprint_table(ds: rd.Dataset, window: int = 8, keep_mod: int = 8) -> rd.Dataset:
    """Winnowing-style fingerprints per doc: count + min fingerprint
    (stable doc signature for clustering / copy detection)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        n = []
        mn = []
        for t in batch["text"].fillna(""):
            fp = hashing.rolling_fingerprints(t, window=window, keep_mod=keep_mod)
            n.append(len(fp))
            mn.append(int(fp.min()) if len(fp) else 0)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].values,
                "n_fingerprints": pd.array(n, dtype="int64"),
                "min_fingerprint": pd.array(
                    [m - (1 << 64) if m >= (1 << 63) else m for m in mn],
                    dtype="int64",
                ),
            }
        )

    return ds.map_batches(f, batch_format="pandas", batch_size=16384)


def repetition_stats(ds: rd.Dataset) -> rd.Dataset:
    """Gopher-style repetition signals per document (Rae et al. 2021
    quality rules): mass of the most frequent word and of the most
    frequent bigram, as INTEGER counts (fractions are downstream
    division; integers keep the oracle compare exact). Stateless
    per-batch map, no shuffle."""
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # explode once; per-doc top word/bigram mass via C-level
        # (doc, gram) groupby -> per-doc max (no Counter-per-row loop)
        n = len(batch)
        flat = batch["text"].fillna("").str.split().explode().dropna()
        pos = flat.index.to_numpy(np.int64)
        words = flat.to_numpy(object)
        n_words = np.bincount(pos, minlength=n).astype(np.int64)

        def top_mass(keys: np.ndarray, docs: np.ndarray) -> np.ndarray:
            if len(keys) == 0:
                return np.zeros(n, dtype=np.int64)
            g = (pd.DataFrame({"d": docs, "k": keys})
                 .groupby(["d", "k"], sort=False).size()
                 .groupby(level=0).max())
            out = np.zeros(n, dtype=np.int64)
            out[g.index.to_numpy(np.int64)] = g.to_numpy(np.int64)
            return out

        tw = top_mass(words, pos)
        same_doc = pos[1:] == pos[:-1] if len(pos) else np.array([], bool)
        big = np.char.add(np.char.add(words[:-1].astype(str), "\x1f"),
                          words[1:].astype(str))[same_doc] \
            if len(words) > 1 else np.array([], object)
        tb = top_mass(big, pos[1:][same_doc] if len(pos) else pos)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "top_word_n": tw,
            "n_words": n_words,
            "top_bigram_n": tb,
            "n_bigrams": np.maximum(n_words - 1, 0),
        })

    return ds.map_batches(f, batch_format="pandas", batch_size=8192)


def bm25_search(ds: rd.Dataset, terms: list[str], k: int = 10) -> pd.DataFrame:
    """Ranked keyword retrieval, BM25-shaped but with INTEGER-rational
    scoring so results are engine-exact (same trick as
    distinctive_terms; float log-idf differs in the last ulp across
    engines and flips rankings):

        idf'_t  = (N - df_t + 1) * 1_000_000 // (df_t + 1)
        score_d = sum_t  tf_dt * idf'_t // (tf_dt + 1)

    (k1=1, b=0 saturation — tf/(tf+1) — with a rational idf, both
    monotone transforms of the classic weights.)

    Two passes, both shuffle-free: (1) per-batch term df partials + doc
    count -> tiny driver reduce; (2) per-batch tf + score with the
    broadcast idf table, local top-k prune -> driver merge of k-row
    partials."""
    import ray

    nt = len(terms)

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        df_ = np.zeros(nt, dtype="int64")
        for t in b["text"]:
            words = set((t or "").split())
            for j, term in enumerate(terms):
                df_[j] += term in words
        return pd.DataFrame({"n": [len(b)], **{
            f"df{j}": [df_[j]] for j in range(nt)}})

    parts = ds.map_batches(stats, batch_format="pandas",
                           batch_size=8192).to_pandas()
    n_docs = int(parts["n"].sum())
    df_tot = np.array([int(parts[f"df{j}"].sum()) for j in range(nt)],
                      dtype="int64")
    idf = (n_docs - df_tot + 1) * 1_000_000 // (df_tot + 1)
    idf_ref = ray.put(idf)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(idf_ref)
        sc = np.zeros(len(b), dtype="int64")
        texts = [(t or "").split() for t in b["text"]]
        for j, term in enumerate(terms):
            tf = np.array([t.count(term) for t in texts], dtype="int64")
            sc += tf * w[j] // (tf + 1)
        out = pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                            "score": sc})
        out = out[out["score"] > 0]
        # local prune: only each batch's top k rows reach the driver
        return out.nlargest(k, ["score"], keep="all")

    top = (ds.map_batches(score, batch_format="pandas", batch_size=8192)
           .to_pandas())
    top = top.sort_values(["score", "doc_id"],
                          ascending=[False, True]).head(k)
    return top.reset_index(drop=True)


def bm25_multi(ds: rd.Dataset, queries: list[list[str]],
               k: int = 10) -> pd.DataFrame:
    """Batched multi-query BM25 retrieval: ONE corpus scan serves every
    query (the search-serving shape at scale — per-query scans would
    multiply corpus reads). Same integer-rational scoring as
    bm25_search. Pass 1 computes df for the UNION of all query terms;
    pass 2 computes each union term's tf once per batch, combines into
    per-query scores, and prunes to a local top-k per query — the
    driver merges Q x k-row partials. Returns (query_id, doc_id, score)
    with k rows per query."""
    import ray

    union = sorted({t for q in queries for t in q})
    nt = len(union)
    tpos = {t: j for j, t in enumerate(union)}

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        df_ = np.zeros(nt, dtype="int64")
        for t in b["text"]:
            words = set((t or "").split())
            for j, term in enumerate(union):
                df_[j] += term in words
        return pd.DataFrame({"n": [len(b)], **{
            f"df{j}": [df_[j]] for j in range(nt)}})

    parts = ds.map_batches(stats, batch_format="pandas",
                           batch_size=8192).to_pandas()
    n_docs = int(parts["n"].sum())
    df_tot = np.array([int(parts[f"df{j}"].sum()) for j in range(nt)],
                      dtype="int64")
    idf = (n_docs - df_tot + 1) * 1_000_000 // (df_tot + 1)
    idf_ref = ray.put(idf)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(idf_ref)
        texts = [(t or "").split() for t in b["text"]]
        tf = np.zeros((nt, len(b)), dtype="int64")
        for j, term in enumerate(union):
            tf[j] = [t.count(term) for t in texts]
        outs = []
        ids = b["doc_id"].astype("int64")
        for qid, terms in enumerate(queries):
            sc = np.zeros(len(b), dtype="int64")
            for term in terms:
                j = tpos[term]
                sc += tf[j] * w[j] // (tf[j] + 1)
            o = pd.DataFrame({"query_id": np.int64(qid), "doc_id": ids,
                              "score": sc})
            o = o[o["score"] > 0]
            outs.append(o.nlargest(k, ["score"], keep="all"))
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {"query_id": pd.Series(dtype="int64"),
             "doc_id": pd.Series(dtype="int64"),
             "score": pd.Series(dtype="int64")})

    top = (ds.map_batches(score, batch_format="pandas", batch_size=8192)
           .to_pandas())
    out = (top.sort_values(["query_id", "score", "doc_id"],
                           ascending=[True, False, True])
           .groupby("query_id", as_index=False).head(k))
    return out.reset_index(drop=True)


def build_text_index(ds: rd.Dataset, out_dir: str,
                     num_buckets: int = 32) -> int:
    """Persist a POSITIONAL inverted index: one (term, doc_id, tf, pos)
    posting row per distinct (doc, word) — ``pos`` is the int32 list of
    0-based token offsets, enabling phrase queries
    (phrase_search_index) — hive-partitioned on storage by
    ``bucket = hash(term) % num_buckets`` (``bucket=B/part-*.parquet``).
    The text analogue of similarity.build_ivf_index: a later search
    READS only its query terms' bucket directories — pruning at the
    read. The corpus doc count rides alongside in ``_stats.json``.
    Returns n_docs.

    Posting generation is one C-level pandas groupby per batch; the
    write is an append-shaped ``write_parquet(partition_cols=...)`` —
    no shuffle anywhere (reference parity: this persists exactly the
    df/tf statistics bm25_search recomputes per scan). Bucket
    assignment uses the repo-wide stable string hash (hash_strings), so
    the layout is valid across processes on the same pandas major."""
    import json
    import os

    from ..functions.hashing import hash_strings

    import pyarrow as pa

    def postings(b: pd.DataFrame) -> "pa.Table":
        texts = [(t or "").split() for t in b["text"]]
        lens = np.array([len(t) for t in texts], dtype="int64")
        total = int(lens.sum())
        empty = pa.table({
            "term": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "tf": pa.array([], pa.int64()),
            "pos": pa.array([], pa.list_(pa.int32())),
            "bucket": pa.array([], pa.int64()),
        })
        if total == 0:
            return empty
        ids = np.repeat(b["doc_id"].to_numpy(dtype="int64"), lens)
        words = np.concatenate([np.asarray(t, dtype=object)
                                for t in texts])
        starts = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(lens)])[:-1]
        # 0-based token position within the doc, vectorized across docs
        pos = (np.arange(total, dtype=np.int64)
               - np.repeat(starts, lens)).astype(np.int32)
        codes, uniq = pd.factorize(words, sort=False)
        order = np.lexsort((pos, ids, codes))
        c, i, p = codes[order], ids[order], pos[order]
        new = np.ones(total, bool)
        new[1:] = (c[1:] != c[:-1]) | (i[1:] != i[:-1])
        goff = np.flatnonzero(new)
        offsets = np.concatenate([goff, [total]]).astype(np.int32)
        term_arr = np.asarray(uniq, dtype=object)[c[goff]]
        bucket = (hash_strings(term_arr)
                  % np.uint64(num_buckets)).astype("int64")
        return pa.table({
            "term": pa.array(term_arr, pa.string()),
            "doc_id": pa.array(i[goff], pa.int64()),
            "tf": pa.array(np.diff(offsets).astype(np.int64)),
            "pos": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(p, pa.int32())),
            "bucket": pa.array(bucket),
        })

    (ds.map_batches(postings, batch_format="pandas", batch_size=8192)
       .write_parquet(out_dir, partition_cols=["bucket"]))
    n_docs = int(ds.count())
    with open(os.path.join(out_dir, "_stats.json"), "w") as f:
        json.dump({"n_docs": n_docs, "num_buckets": num_buckets,
                   "positional": True}, f)
    return n_docs


def search_text_index(index_dir: str, terms: list[str],
                      k: int = 10) -> pd.DataFrame:
    """BM25-shaped search over a ``build_text_index`` layout, identical
    integer-rational scoring to bm25_search — but instead of scanning
    the corpus it reads ONLY the query terms' posting buckets
    (terms/num_buckets of the index; other buckets never leave
    storage). df per term is exact from the filtered postings (each row
    is a distinct (doc, term)); per-doc scores need a doc-keyed combine
    because a doc's terms live in different buckets — one doc-keyed
    ``partition_map`` of (doc, partial) rows filtered to matching docs
    only, then per-partition sum + local top-k, driver merges k-row
    partials."""
    import glob as _glob
    import json
    import os

    import ray

    from ..functions.hashing import hash_strings

    with open(os.path.join(index_dir, "_stats.json")) as f:
        stats = json.load(f)
    n_docs = int(stats["n_docs"])
    num_buckets = int(stats["num_buckets"])
    terms = sorted(set(terms))
    buckets = sorted({int(h % np.uint64(num_buckets))
                      for h in hash_strings(np.asarray(terms, object))})
    files = [f for c in buckets
             for f in sorted(_glob.glob(
                 os.path.join(index_dir, f"bucket={c}", "*.parquet")))]
    if not files:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="int64")})
    import pyarrow as pa

    tset = ray.put([str(t) for t in terms])

    def prune(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(t.column("term"),
                        value_set=pa.array(ray.get(tset), pa.string()))
        return t.filter(keep).select(["term", "doc_id", "tf"])

    posts = rd.read_parquet(
        files, columns=["term", "doc_id", "tf"]
    ).map_batches(prune, batch_format="pyarrow",
                  batch_size=65536).materialize()

    # pass 1: exact df per term (posting rows are distinct (doc, term))
    def df_part(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby("term", as_index=False, sort=False)
                 .size().rename(columns={"size": "df"}))

    dfs = posts.map_batches(df_part, batch_format="pandas",
                            batch_size=65536).to_pandas()
    if "term" not in dfs.columns:     # all-empty result drops columns
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="int64")})
    dfs = dfs.groupby("term", as_index=False)["df"].sum()
    dfmap = dict(zip(dfs["term"], dfs["df"]))
    idf = {t: (n_docs - int(dfmap.get(t, 0)) + 1) * 1_000_000
              // (int(dfmap.get(t, 0)) + 1) for t in terms}
    idf_ref = ray.put(idf)

    # pass 2: per-posting partial scores -> doc-keyed exchange
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(idf_ref)
        tf = b["tf"].to_numpy(dtype="int64")
        sc = tf * b["term"].map(w).to_numpy(dtype="int64") // (tf + 1)
        out = pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                            "part": sc})
        return (out.groupby("doc_id", as_index=False, sort=False)["part"]
                .sum())

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("doc_id", as_index=False)["part"].sum()
        s = s[s["part"] > 0].rename(columns={"part": "score"})
        return (s.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(k)
                [["doc_id", "score"]])

    top = partition_map(posts.map_batches(partial, batch_format="pandas",
                                          batch_size=65536),
                        "doc_id", combine).to_pandas()
    if "score" not in top.columns:    # every partition pruned to empty
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="int64")})
    top = (top.sort_values(["score", "doc_id"],
                           ascending=[False, True]).head(k))
    return top.reset_index(drop=True)


def _trigram_codes(text: str) -> np.ndarray:
    """Distinct byte-trigram codes of a string: each code is the 24-bit
    big-endian integer of 3 consecutive UTF-8 bytes — a PERFECT hash of
    byte trigrams (no collisions by construction), so index probes have
    no false trigram matches and the final substring verify only prunes
    co-occurrence coincidences."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if b.shape[0] < 3:
        return np.empty(0, dtype=np.int64)
    code = ((b[:-2].astype(np.int64) << 16)
            | (b[1:-1].astype(np.int64) << 8) | b[2:].astype(np.int64))
    return np.unique(code)


def build_trigram_index(ds: rd.Dataset, out_dir: str,
                        num_buckets: int = 32) -> int:
    """Persist a pg_trgm-style substring index: one (tri, doc_id) row
    per distinct byte trigram per doc, hive-partitioned by
    ``bucket = tri % num_buckets``. Same storage architecture as
    build_text_index: a later substring search reads ONLY its needle
    trigrams' bucket directories — pruning at the read. Returns n_docs.

    Posting generation is vectorized (one frombuffer + shift-or per
    doc, np.unique for the distinct set); the write is append-shaped
    ``write_parquet(partition_cols=...)`` — no shuffle anywhere."""
    import json
    import os

    def postings(b: pd.DataFrame) -> pd.DataFrame:
        ids, tris = [], []
        for i, t in zip(b["doc_id"], b["text"]):
            c = _trigram_codes(t if isinstance(t, str) else "")
            ids.append(np.full(c.shape[0], int(i), dtype=np.int64))
            tris.append(c)
        tri = (np.concatenate(tris) if tris
               else np.empty(0, dtype=np.int64))
        did = (np.concatenate(ids) if ids
               else np.empty(0, dtype=np.int64))
        return pd.DataFrame({
            "tri": pd.Series(tri, dtype="int64"),
            "doc_id": pd.Series(did, dtype="int64"),
            "bucket": pd.Series(tri % num_buckets, dtype="int64")})

    n_docs = int(ds.count())
    ds.map_batches(postings, batch_format="pandas").write_parquet(
        out_dir, partition_cols=["bucket"])
    with open(os.path.join(out_dir, "_stats.json"), "w") as f:
        json.dump({"n_docs": n_docs, "num_buckets": num_buckets}, f)
    return n_docs


def search_trigram_index(index_dir: str, needle: str, docs: rd.Dataset
                         ) -> pd.DataFrame:
    """Exact substring search (``needle in text``) over a
    build_trigram_index layout. Candidate docs must contain ALL of the
    needle's distinct trigrams (AND-semantics via a doc-keyed count
    combine == n_trigrams); candidates then fetch their text through a
    bucket_join and run the exact substring check — false positives
    from trigram co-occurrence are eliminated, so the result equals a
    full-scan LIKE. Needles shorter than 3 bytes raise (no trigram to
    probe; a scan is the right tool there). Returns (doc_id,) sorted."""
    import glob as _glob
    import json
    import os

    import pyarrow as pa

    codes = _trigram_codes(needle)
    if codes.shape[0] == 0:
        raise ValueError("search_trigram_index: needle must be >= 3 bytes")
    with open(os.path.join(index_dir, "_stats.json")) as f:
        num_buckets = int(json.load(f)["num_buckets"])
    buckets = sorted({int(c) % num_buckets for c in codes})
    files = [f for c in buckets
             for f in sorted(_glob.glob(
                 os.path.join(index_dir, f"bucket={c}", "*.parquet")))]
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
    if not files:
        return empty

    want = set(int(c) for c in codes)
    n_need = len(want)

    def prune(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc

        keep = pc.is_in(t.column("tri"),
                        value_set=pa.array(sorted(want), pa.int64()))
        f = t.filter(keep)
        return pd.DataFrame({
            "doc_id": f.column("doc_id").to_numpy(zero_copy_only=False),
            "hits": np.ones(f.num_rows, dtype=np.int64)})

    posts = rd.read_parquet(files, columns=["tri", "doc_id"]).map_batches(
        prune, batch_format="pyarrow", batch_size=65536)
    cand = keyed_combine(posts, "doc_id", ["hits"], "sum").filter(
        lambda r: r["hits"] >= n_need)

    cand_schema = pa.schema([("doc_id", pa.int64()), ("hits", pa.int64())])
    doc_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    j = bucket_join(cand, docs.select_columns(["doc_id", "text"]),
                    "doc_id", "doc_id",
                    left_schema=cand_schema, right_schema=doc_schema)

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        keep = np.fromiter(
            (needle in (t if isinstance(t, str) else "")
             for t in b["text"]), dtype=bool, count=len(b))
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64)[keep]})

    out = j.map_batches(verify, batch_format="pandas").to_pandas()
    if not len(out):
        return empty
    return (out.astype({"doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


_PHRASE_POS_SPAN = 1 << 21  # max tokens per doc the composed key allows


def phrase_search_index(index_dir: str, phrase: str) -> pd.DataFrame:
    """Exact PHRASE query over a positional build_text_index layout:
    docs containing the whitespace-token sequence contiguously, with
    the count of phrase starts. Returns (doc_id, n_matches) sorted by
    doc_id, matching docs only.

    Prune at the read: only the phrase terms' bucket directories leave
    storage, and postings are filtered to the phrase terms before the
    ONE doc-keyed exchange (phrase-posting scale, not corpus scale).
    Within a partition the intersection is vectorized across ALL its
    docs at once: occurrence j of word w_j contributes the sorted key
    set {doc * 2^21 + pos - j}; a phrase start is a key present in
    every set (np.intersect1d chain, m-1 merges of sorted arrays), so
    repeated words in the phrase work naturally. Docs past 2^21 tokens
    raise loudly rather than aliasing keys.
    """
    import glob as _glob
    import json
    import os

    import pyarrow as pa

    import ray

    from ..functions.hashing import hash_strings

    words = phrase.split()
    if not words:
        raise ValueError("phrase_search_index: empty phrase")
    m = len(words)
    with open(os.path.join(index_dir, "_stats.json")) as f:
        stats = json.load(f)
    if not stats.get("positional"):
        raise ValueError("phrase_search_index: index has no positions; "
                         "rebuild with this version of build_text_index")
    num_buckets = int(stats["num_buckets"])
    uniq = sorted(set(words))
    buckets = sorted({int(h % np.uint64(num_buckets))
                      for h in hash_strings(np.asarray(uniq, object))})
    files = [f for c in buckets
             for f in sorted(_glob.glob(
                 os.path.join(index_dir, f"bucket={c}", "*.parquet")))]
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "n_matches": pd.Series(dtype="int64")})
    if not files:
        return empty
    tset = ray.put(uniq)

    def prune(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        keep = pc.is_in(t.column("term"),
                        value_set=pa.array(ray.get(tset), pa.string()))
        return t.filter(keep).select(["term", "doc_id", "pos"])

    posts = rd.read_parquet(
        files, columns=["term", "doc_id", "pos"]
    ).map_batches(prune, batch_format="pyarrow", batch_size=65536)

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        keys = []
        for j, w in enumerate(words):
            rows = g[g["term"] == w]
            if not len(rows):
                return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                     "n_matches": pd.Series(dtype="int64")})
            d = rows["doc_id"].to_numpy(np.int64)
            plists = [np.asarray(x, np.int64) for x in rows["pos"]]
            ln = np.fromiter((len(x) for x in plists), np.int64,
                             len(plists))
            dd = np.repeat(d, ln)
            pp = (np.concatenate(plists) if ln.sum()
                  else np.empty(0, np.int64))
            if pp.size and int(pp.max()) + m >= _PHRASE_POS_SPAN:
                raise ValueError(
                    "phrase_search_index: doc exceeds the 2^21-token "
                    "key span; widen _PHRASE_POS_SPAN")
            keys.append(np.sort(dd * _PHRASE_POS_SPAN + pp - j + m))
        inter = keys[0]
        for kj in keys[1:]:
            inter = np.intersect1d(inter, kj, assume_unique=True)
        if not inter.size:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "n_matches": pd.Series(dtype="int64")})
        docs, counts = np.unique(inter // _PHRASE_POS_SPAN,
                                 return_counts=True)
        return pd.DataFrame({"doc_id": docs.astype(np.int64),
                             "n_matches": counts.astype(np.int64)})

    out = partition_map(posts, "doc_id", count_part).to_pandas()
    if "doc_id" not in out.columns or not len(out):
        return empty
    return (out.astype({"doc_id": "int64", "n_matches": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def heavy_hitters(ds: rd.Dataset, k: int = 20, counters: int = 512
                  ) -> pd.DataFrame:
    """Exact top-k most frequent words via the two-pass sketch-then-
    recount pattern (the scale shape for frequency queries: the full
    word->count shuffle never happens).

    Pass 1: each block emits its local top-``counters`` words — the
    space-saving guarantee: any word with global freq > N/counters beats
    B_i/counters in at least one block, and fewer than ``counters``
    words can beat B_i/counters locally, so it IS in some local top-m.
    Candidate union is <= counters x n_blocks rows (driver-tiny).
    Pass 2: exact recount of ONLY the candidates (broadcast sorted
    array + searchsorted + bincount partials), tiny final merge.
    Exactness holds while the true k-th frequency > N/counters — with
    corpus vocabularies (Zipfian) and counters >> k this is the normal
    regime; raise ``counters`` to tighten.
    Ties at the cutoff break by word ascending (matches the oracle's
    ORDER BY n DESC, word)."""
    import ray

    def local_topm(b: pd.DataFrame) -> pd.DataFrame:
        words = b["text"].fillna("").str.split().explode().dropna()
        vc = words.value_counts()  # sorted desc
        return pd.DataFrame({"word": vc.index[: counters].to_numpy(object)})

    def dedup_level(b: pd.DataFrame) -> pd.DataFrame:
        # combiner-tree level: dedup candidates across many blocks so the
        # driver union sees <= distinct x (blocks / fan-in) rows, not the
        # raw counters x blocks stream (matters at 10^6 blocks)
        return pd.DataFrame({"word": b["word"].drop_duplicates()
                             .to_numpy(object)})

    cand_ds = (ds.map_batches(local_topm, batch_format="pandas",
                              batch_size=65536)
               .map_batches(dedup_level, batch_format="pandas",
                            batch_size=1 << 20))
    cand = np.unique(np.concatenate(
        [b["word"].to_numpy(object) for b in
         cand_ds.iter_batches(batch_format="pandas", batch_size=65536)]
        or [np.empty(0, dtype=object)]))
    ref = ray.put(cand)

    def recount(b: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(ref)
        words = (b["text"].fillna("").str.split().explode().dropna()
                 .to_numpy(object))
        if len(c) == 0:
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        idx = np.searchsorted(c, words)
        ok = (idx < len(c)) & (c[np.minimum(idx, len(c) - 1)] == words)
        cnt = np.bincount(idx[ok], minlength=len(c))
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({"word": c[nz], "n": cnt[nz].astype("int64")})

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("word", as_index=False)["n"].sum()

    parts = (ds.map_batches(recount, batch_format="pandas",
                            batch_size=65536)
             .map_batches(combine, batch_format="pandas",
                          batch_size=1 << 20).to_pandas())
    # candidate-scale driver merge (combiner-tree-reduced) — no
    # keyed-aggregate shuffle for a table this small
    totals = parts.groupby("word", as_index=False)["n"].sum()
    totals["n"] = totals.n.astype("int64")
    totals = totals.sort_values(["n", "word"], ascending=[False, True])
    return totals.head(k).reset_index(drop=True)


def hash_embed_table(ds: rd.Dataset, dim: int = 64) -> rd.Dataset:
    """Feature-hashing text embeddings (Weinberger et al. 2009): token
    counts scattered into ``dim`` signed hash buckets, L2-normalized —
    the deterministic, trainingless doc-vector stage that bridges the
    text table into the similarity/dedup operators (kNN, k-means,
    SemDeDup all accept its output).

    One streaming map: tokens hashed once per batch (batch_shingle
    layout), bucket = hash % dim, sign = next hash bit, scatter via ONE
    np.add.at over (row, bucket) pairs. No shuffle, no vocabulary."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].fillna("").tolist()
        vals, offs = hashing.batch_shingle_hashes(texts, 1)  # unigram hashes
        n = len(b)
        M = np.zeros((n, dim), dtype=np.float64)
        if len(vals):
            doc_of = np.repeat(np.arange(n), np.diff(offs))
            bucket = (vals % np.uint64(dim)).astype(np.int64)
            sign = np.where((vals >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
            np.add.at(M, (doc_of, bucket), sign)
        norms = np.linalg.norm(M, axis=1)
        norms[norms == 0] = 1.0
        M /= norms[:, None]
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            # plain lists, not ndarrays: Arrow infers list<double> so the
            # result is filter/shuffle-safe like the parquet embeddings
            "embedding": M.tolist(),
        })

    return ds.map_batches(f, batch_format="pandas", batch_size=8192)


def word_counts(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """The distributed (word, c) table of whitespace-token counts: a
    per-batch ``value_counts`` partial and one word-keyed
    ``keyed_combine``. Nothing vocabulary-scale lands on the driver."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = (b[text_col].fillna("").str.split().explode().dropna()
              .value_counts())
        return pd.DataFrame({"word": vc.index.to_numpy(object),
                             "c": vc.to_numpy(np.int64)})

    return keyed_combine(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536),
        "word", ["c"])


def pmi_bigrams(ds: rd.Dataset, k: int = 20, min_count: int = 5
                ) -> pd.DataFrame:
    """Top-k word-bigram collocations by pointwise mutual information:
    PMI = ln(N_bi * c(a,b) / (c(a) * c(b))) over adjacent-token counts.

    Fully distributed — nothing vocabulary-scale touches the driver:
    bigram counts ride one gram-keyed exchange, unigram counts are
    ``word_counts``, and scoring attaches c(a)/c(b) to each
    surviving (>= min_count) bigram with two large x large bucket_joins
    keyed on the bigram's words. The only driver data are the N_bi
    scalar (per-batch partial sums) and the final k x blocks top-k
    merge. Ties break by bigram text ascending."""
    from ..functions.hashing import batch_word_grams

    def bigram_rows(b: pd.DataFrame) -> pd.DataFrame:
        grams, _d, _p = batch_word_grams(b["text"].tolist(), 2)
        return pd.DataFrame({"gram": grams})

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        vc = g.groupby("gram", sort=False).size()
        cnt = vc.to_numpy(np.int64)
        keep = cnt >= min_count
        grams = vc.index.to_numpy(object)[keep]
        sp = pd.Series(grams).str.split(" ", n=1, expand=True)
        if len(grams) == 0:
            return pd.DataFrame({"gram": pd.array([], dtype=object),
                                 "a": pd.array([], dtype=object),
                                 "b": pd.array([], dtype=object),
                                 "c_ab": np.array([], dtype=np.int64)})
        return pd.DataFrame({"gram": grams, "a": sp[0].to_numpy(object),
                             "b": sp[1].to_numpy(object),
                             "c_ab": cnt[keep]})

    bi = partition_map(ds.map_batches(bigram_rows, batch_format="pandas",
                                      batch_size=8192),
                       "gram", count_part)

    # materialized: consumed twice (c_a and c_b join legs) — the blocks
    # stay distributed; this only pins the vocab-scale table so the
    # word-keyed exchange runs once
    uni = word_counts(ds).materialize()

    # N_bi (ALL bigram occurrences, pre-floor) = sum over docs of
    # max(0, n_words - 1): scalar partials, no extra shuffle
    def nbi_partial(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].fillna("").str.split().str.len().to_numpy(np.int64)
        return pd.DataFrame({"s": [int(np.maximum(0, n - 1).sum())]})

    n_bi = int(ds.map_batches(nbi_partial, batch_format="pandas",
                              batch_size=65536).to_pandas()["s"].sum())

    import pyarrow as pa

    _BI = pa.schema([("gram", pa.string()), ("a", pa.string()),
                     ("b", pa.string()), ("c_ab", pa.int64())])
    _UNI = lambda c: pa.schema([("word", pa.string()), (c, pa.int64())])
    # explicit schemas: .schema() on a lazy shuffle would execute it,
    # then the join union would execute it again (see bucket_join doc)
    j1 = bucket_join(bi, uni.map_batches(
        lambda t: t.rename(columns={"c": "c_a"}), batch_format="pandas"),
        left_on="a", right_on="word",
        left_schema=_BI, right_schema=_UNI("c_a"))
    _J1 = pa.schema(list(_BI) + [("word", pa.string()),
                                 ("c_a", pa.int64())])
    j2 = bucket_join(j1, uni.map_batches(
        lambda t: t.rename(columns={"c": "c_b"}), batch_format="pandas"),
        left_on="b", right_on="word", suffix="_b",
        left_schema=_J1, right_schema=_UNI("c_b"))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        pmi = np.log(n_bi * b["c_ab"].to_numpy(np.float64)
                     / (b["c_a"].to_numpy(np.float64)
                        * b["c_b"].to_numpy(np.float64)))
        return pd.DataFrame({"gram": b["gram"],
                             "c_ab": b["c_ab"].astype("int64"),
                             "pmi": np.round(pmi, 6)})

    scored = j2.map_batches(score, batch_format="pandas")
    return topk(scored, by=["pmi", "gram"], k=k,
                ascending=[False, True]).reset_index(drop=True)


def bigram_logprob(ds: rd.Dataset) -> pd.DataFrame:
    """Per-doc bigram conditional negative log-likelihood — the LM
    perplexity quality filter (CCNet-style: documents whose token
    transitions are improbable under the corpus-level bigram model
    score high). score(doc) = sum over its bigrams of
    -ln(c(a,b) / c(a·)), c(a·) = occurrences of ``a`` as a bigram left
    context. Docs with < 2 tokens emit no bigrams and no row.

    Fully distributed, the pmi_bigrams/unigram_logprob shape: bigram
    counts are one gram-keyed ``keyed_combine``; left-context counts
    derive from THAT table by a word-keyed ``keyed_combine``
    (gram-vocab scale, never a second corpus tokenize); per-(doc, gram)
    multiplicities meet the count tables in two large x large
    bucket_joins; per-doc sums ride one doc-keyed ``partition_map``.
    Nothing vocabulary-scale lands on the driver."""
    import pyarrow as pa

    from ..functions.hashing import batch_word_grams

    def bi_partial(b: pd.DataFrame) -> pd.DataFrame:
        grams, _d, _p = batch_word_grams(b["text"].tolist(), 2)
        vc = pd.Series(grams, dtype=object).value_counts()
        return pd.DataFrame({"gram": vc.index.to_numpy(object),
                             "c_ab": vc.to_numpy(np.int64)})

    # materialized: consumed twice (ctx derivation + the join) — blocks
    # stay distributed, only the plan is pinned
    bi_cnt = keyed_combine(
        ds.map_batches(bi_partial, batch_format="pandas", batch_size=8192),
        "gram", ["c_ab"]).materialize()

    # c(a.) by re-keying the gram table on its LEFT word (gram strings
    # are space-joined; tokens are whitespace-split so the first space
    # is the boundary)
    def ctx_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"word": b["gram"].str.split(" ", n=1).str[0],
                             "c_a": b["c_ab"]})

    ctx = keyed_combine(bi_cnt.map_batches(ctx_rows, batch_format="pandas",
                                           batch_size=65536),
                        "word", ["c_a"])

    # per-(doc, gram) multiplicities, pre-aggregated in the batch
    def doc_grams(b: pd.DataFrame) -> pd.DataFrame:
        grams, didx, _p = batch_word_grams(b["text"].tolist(), 2)
        ids = b["doc_id"].to_numpy(np.int64)[didx]
        df = pd.DataFrame({"doc_id": ids, "gram": grams})
        g = (df.groupby(["doc_id", "gram"], sort=False).size()
               .reset_index(name="m"))
        g["a"] = g["gram"].str.split(" ", n=1).str[0]
        return g

    dg = ds.map_batches(doc_grams, batch_format="pandas", batch_size=8192)

    _DG = pa.schema([("doc_id", pa.int64()), ("gram", pa.string()),
                     ("m", pa.int64()), ("a", pa.string())])
    _BIC = pa.schema([("gram", pa.string()), ("c_ab", pa.int64())])
    _CTX = pa.schema([("word", pa.string()), ("c_a", pa.int64())])
    j1 = bucket_join(dg, bi_cnt, left_on="gram", right_on="gram",
                     left_schema=_DG, right_schema=_BIC)
    _J1 = pa.schema(list(_DG) + [("c_ab", pa.int64())])
    j2 = bucket_join(j1, ctx, left_on="a", right_on="word",
                     left_schema=_J1, right_schema=_CTX)

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        m = b["m"].to_numpy(np.float64)
        lp = m * -np.log(b["c_ab"].to_numpy(np.float64)
                         / b["c_a"].to_numpy(np.float64))
        return (pd.DataFrame({"doc_id": b["doc_id"],
                              "n_bigrams": b["m"].astype("int64"),
                              "lp": lp})
                .groupby("doc_id", sort=False, as_index=False)
                .agg(n_bigrams=("n_bigrams", "sum"), lp=("lp", "sum")))

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", sort=False, as_index=False)
                .agg(n_bigrams=("n_bigrams", "sum"), lp=("lp", "sum")))
        return pd.DataFrame({"doc_id": out["doc_id"].astype("int64"),
                             "n_bigrams": out["n_bigrams"].astype("int64"),
                             "logprob": np.round(out["lp"], 6)})

    out = partition_map(j2.map_batches(contrib, batch_format="pandas"),
                        "doc_id", per_doc).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------------------------- named quality-rule filters

GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")

# strip set shared with the SQL twin: DuckDB trim() strips only ' ' by
# default, so both sides name the whitespace set explicitly (no \n: it
# is the line separator)
_LINE_STRIP = " \t\r\x0b\x0c"


def gopher_quality_table(ds: rd.Dataset) -> rd.Dataset:
    """Gopher quality rules (Rae et al. 2021, App. A) per document —
    the classic pretraining-corpus repetition/format filter. Every rule
    threshold is evaluated as an integer cross-multiplication so the
    DuckDB twin is exact (no float-division divergence):

      r_words : 50 <= n_words <= 100000
      r_mwl   : mean word length in [3, 10]
      r_sym   : (count '#' + count '...' + count '…') / n_words < 0.1
      r_alpha : words containing [a-zA-Z] > 80%
      r_stop  : >= 2 distinct Gopher stopwords present
      r_bullet: lines starting with a bullet (- • *) < 90%
      r_ellip : lines ending with an ellipsis < 30%

    Stateless per-doc map over exploded word/line frames (C-level
    pandas string kernels + bincount folds) — no shuffle, scales
    linearly with the corpus."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        n = len(b)
        text = b["text"].fillna("")
        if n == 0:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ["doc_id", "n_words", "n_stop",
                                           "r_words", "r_mwl", "r_sym",
                                           "r_alpha", "r_stop", "r_bullet",
                                           "r_ellip", "passed"]})
        words = text.str.split()
        n_words = words.map(len).to_numpy(np.int64)
        we = words.explode().dropna()
        widx = we.index.to_numpy(np.int64)
        sum_len = np.bincount(widx, weights=we.str.len().to_numpy(np.float64),
                              minlength=n).astype(np.int64)
        alpha = we.str.contains("[a-zA-Z]", regex=True).to_numpy()
        n_alpha = np.bincount(widx[alpha], minlength=n).astype(np.int64)
        sw = we.str.lower()
        swm = sw.isin(GOPHER_STOPWORDS).to_numpy()
        sdf = pd.DataFrame({"i": widx[swm],
                            "w": sw.to_numpy()[swm]}).drop_duplicates()
        n_stop = np.bincount(sdf["i"].to_numpy(np.int64),
                             minlength=n).astype(np.int64)
        n_sym = (text.str.count("#") + text.str.count(r"\.\.\.")
                 + text.str.count("…")).to_numpy(np.int64)
        lines = text.str.split("\n")
        n_lines = lines.map(len).to_numpy(np.int64)
        le = lines.explode().dropna()
        lidx = le.index.to_numpy(np.int64)
        lt = le.str.strip(_LINE_STRIP)
        bullet = lt.str.match(r"[-•*]").to_numpy()
        ell = (lt.str.endswith("...") | lt.str.endswith("…")).to_numpy()
        n_bullet = np.bincount(lidx[bullet], minlength=n).astype(np.int64)
        n_ellend = np.bincount(lidx[ell], minlength=n).astype(np.int64)

        r_words = (n_words >= 50) & (n_words <= 100_000)
        r_mwl = (3 * n_words <= sum_len) & (sum_len <= 10 * n_words)
        r_sym = 10 * n_sym < n_words
        r_alpha = 10 * n_alpha > 8 * n_words
        r_stop = n_stop >= 2
        r_bullet = 10 * n_bullet < 9 * n_lines
        r_ellip = 10 * n_ellend < 3 * n_lines
        passed = (r_words & r_mwl & r_sym & r_alpha & r_stop
                  & r_bullet & r_ellip)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_words": n_words,
            "n_stop": n_stop,
            "r_words": r_words.astype("int64"),
            "r_mwl": r_mwl.astype("int64"),
            "r_sym": r_sym.astype("int64"),
            "r_alpha": r_alpha.astype("int64"),
            "r_stop": r_stop.astype("int64"),
            "r_bullet": r_bullet.astype("int64"),
            "r_ellip": r_ellip.astype("int64"),
            "passed": passed.astype("int64"),
        })

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


# ------------------------------------------------- BPE tokenizer training


def bpe_train(ds: rd.Dataset, num_merges: int = 30) -> pd.DataFrame:
    """Distributed BPE tokenizer training (Sennrich et al. 2016): learn
    ``num_merges`` merge rules over the corpus word distribution.

    Scale shape: the corpus collapses ONCE to a distinct-word count
    table (``word_counts``) that stays distributed for the whole run;
    each merge round is (a) per-block adjacent-pair partial counts,
    (b) one pair-keyed ``partition_map`` where each partition reduces
    to its own top pair, (c) a metadata-scale driver argmax over the
    per-partition winners (exact, like heavy_hitters), (d) a map
    applying the merge only to words that
    contain the pair. Driver state is the merge list — never a
    vocabulary-scale table. Ties break on (count desc, left asc,
    right asc) so results are deterministic and serially reproducible.

    Returns (rank, left, right, count) per learned merge."""

    def to_syms(b: pd.DataFrame) -> pd.DataFrame:
        # symbol sequences: characters + the end-of-word marker
        return pd.DataFrame({"syms": [list(w) + ["</w>"] for w in b["word"]],
                             "c": b["c"].astype("int64")})

    vocab = (word_counts(ds).map_batches(to_syms, batch_format="pandas")
             .materialize())

    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = {}
        for syms, c in zip(b["syms"], b["c"]):
            c = int(c)
            for i in range(len(syms) - 1):
                k = (syms[i], syms[i + 1])
                rows[k] = rows.get(k, 0) + c
        if not rows:
            return pd.DataFrame({"left": pd.Series([], dtype=str),
                                 "right": pd.Series([], dtype=str),
                                 "pc": pd.Series([], dtype="int64")})
        ks = list(rows.keys())
        return pd.DataFrame({"left": [k[0] for k in ks],
                             "right": [k[1] for k in ks],
                             "pc": pd.Series(list(rows.values()),
                                             dtype="int64")})

    def part_top(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["left", "right"], sort=False, as_index=False)
                ["pc"].sum()
                .sort_values(["pc", "left", "right"],
                             ascending=[False, True, True]).head(1))

    merges = []
    for rank in range(num_merges):
        tops = partition_map(
            vocab.map_batches(pair_partial, batch_format="pandas"),
            ["left", "right"], part_top).to_pandas()
        if len(tops) == 0:
            break
        tops = tops.sort_values(["pc", "left", "right"],
                                ascending=[False, True, True])
        left, right = str(tops.iloc[0]["left"]), str(tops.iloc[0]["right"])
        count = int(tops.iloc[0]["pc"])
        if count < 1:
            break
        merges.append((rank, left, right, count))
        tok = left + right

        def apply_merge(b: pd.DataFrame, left=left, right=right, tok=tok
                        ) -> pd.DataFrame:
            out = []
            for syms in b["syms"]:
                syms = list(syms)
                if left in syms:  # cheap prefilter: most words untouched
                    i = 0
                    while i < len(syms) - 1:
                        if syms[i] == left and syms[i + 1] == right:
                            syms[i : i + 2] = [tok]
                        else:
                            i += 1
                out.append(syms)
            return pd.DataFrame({"syms": out,
                                 "c": b["c"].astype("int64")})

        vocab = vocab.map_batches(apply_merge,
                                  batch_format="pandas").materialize()

    return pd.DataFrame({
        "rank": pd.Series([m[0] for m in merges], dtype="int64"),
        "left": pd.Series([m[1] for m in merges], dtype=str),
        "right": pd.Series([m[2] for m in merges], dtype=str),
        "count": pd.Series([m[3] for m in merges], dtype="int64"),
    })


def nb_classifier(ds: rd.Dataset, label_col: str = "lang",
                  train_mod: int = 5) -> pd.DataFrame:
    """Multinomial Naive Bayes text classifier (the fastText-style
    quality/language-ID filter shape): train add-one-smoothed per-class
    unigram models on the ``doc_id % train_mod != 0`` split, predict the
    label of every held-out doc.

    Engine-exact scoring: per-(word, class) log-likelihoods are
    quantized to integers — L(w,c) = floor(1e6 * ln((c_wc+1)/(N_c+V)))
    — so class scores are INTEGER sums (same trick as bm25_search /
    distinctive_terms; float log sums differ in the last ulp across
    engines and flip argmaxes). Ties break to the lexicographically
    smallest class.

    Distributed shape (no vocab-scale driver state, mirroring
    q_unigram_logprob): per-batch partial (word x class) count pivots
    ride ONE word-keyed ``keyed_combine`` into the count table; class
    doc/token totals and V are metadata-scale reduces over it; held-out
    per-(doc, word) multiplicities meet the table in one large x large
    bucket_join; per-doc integer score deltas ride one doc-keyed
    ``partition_map`` where the argmax happens. The driver holds k scalars per
    class and the final doc-scale frame."""
    import math

    import pyarrow as pa

    # -- pass 0 (metadata-scale): class list + doc-count priors
    def lang_partial(b: pd.DataFrame) -> pd.DataFrame:
        tr = b[b["doc_id"].to_numpy(np.int64) % train_mod != 0]
        vc = tr[label_col].value_counts()
        return pd.DataFrame({"cls": vc.index.to_numpy(object),
                             "nd": vc.to_numpy(np.int64)})

    cls_df = (ds.map_batches(lang_partial, batch_format="pandas",
                             batch_size=65536).to_pandas()
              .groupby("cls", as_index=False)["nd"].sum())
    classes = sorted(cls_df["cls"].tolist())
    k = len(classes)
    cidx = {c: j for j, c in enumerate(classes)}
    nd = np.array([int(cls_df.set_index("cls")["nd"][c]) for c in classes],
                  dtype=np.int64)
    nd_tot = int(nd.sum())

    ccols = [f"c{j}" for j in range(k)]

    # -- pass 1: the word-keyed (word x class) count table
    def wc_partial(b: pd.DataFrame) -> pd.DataFrame:
        tr = (b[b["doc_id"].to_numpy(np.int64) % train_mod != 0]
              .reset_index(drop=True))
        toks = tr["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        labs = tr[label_col].to_numpy(object)[flat.index.to_numpy()]
        g = (pd.DataFrame({"word": flat.to_numpy(object), "cls": labs})
             .groupby(["word", "cls"], sort=False).size().unstack(
                 fill_value=0))
        out = pd.DataFrame({"word": g.index.to_numpy(object)})
        for j, c in enumerate(classes):
            out[ccols[j]] = (g[c].to_numpy(np.int64)
                             if c in g.columns else np.int64(0))
        return out

    counts = keyed_combine(
        ds.map_batches(wc_partial, batch_format="pandas", batch_size=65536),
        "word", ccols).materialize()

    # -- metadata-scale reduces over the count table: N_c and V
    def tot_partial(b: pd.DataFrame) -> pd.DataFrame:
        row = {"v": [len(b)]}
        for c in ccols:
            row[c] = [int(b[c].sum())]
        return pd.DataFrame(row)

    tots = counts.map_batches(tot_partial,
                              batch_format="pandas").to_pandas()
    vocab_n = int(tots["v"].sum())
    n_tok = np.array([int(tots[c].sum()) for c in ccols], dtype=np.int64)

    # integer-quantized model scalars
    denom = (n_tok + vocab_n).astype(np.float64)
    l0 = np.floor(1e6 * np.log(1.0 / denom)).astype(np.int64)
    prior = np.array([math.floor(1e6 * math.log(n / nd_tot))
                      for n in nd], dtype=np.int64)

    # -- pass 2: held-out per-(doc, word) multiplicities -> join -> reduce
    def doc_words(b: pd.DataFrame) -> pd.DataFrame:
        te = (b[b["doc_id"].to_numpy(np.int64) % train_mod == 0]
              .reset_index(drop=True))
        toks = te["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        ids = te["doc_id"].to_numpy(np.int64)[flat.index.to_numpy()]
        return (pd.DataFrame({"doc_id": ids,
                              "word": flat.to_numpy(object)})
                .groupby(["doc_id", "word"], sort=False, as_index=False)
                .size().rename(columns={"size": "m"}))

    dw = ds.map_batches(doc_words, batch_format="pandas", batch_size=8192)
    joined = bucket_join(
        dw, counts, left_on="word", right_on="word",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("word", pa.string()), ("m", pa.int64())]),
        right_schema=pa.schema([("word", pa.string())]
                               + [(c, pa.int64()) for c in ccols]))

    dcols = [f"d{j}" for j in range(k)]

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        m = b["m"].to_numpy(np.int64)
        out = pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                            "n_tok": m, label_col: ""})
        for j in range(k):
            lw = np.floor(1e6 * np.log(
                (b[ccols[j]].to_numpy(np.int64) + 1) / denom[j])
            ).astype(np.int64)
            out[dcols[j]] = m * (lw - l0[j])
        out = (out.groupby("doc_id", sort=False, as_index=False)
               .agg({"n_tok": "sum", label_col: "max",
                     **{d: "sum" for d in dcols}}))
        return out

    # base rows keep empty/all-unseen docs in the result and carry the
    # true label + total token count (unmatched tokens score m * L0)
    def base_rows(b: pd.DataFrame) -> pd.DataFrame:
        te = b[b["doc_id"].to_numpy(np.int64) % train_mod == 0]
        out = pd.DataFrame({
            "doc_id": te["doc_id"].astype("int64"),
            "n_tok": te["text"].fillna("").str.split().str.len()
                       .astype("int64"),
            label_col: te[label_col].astype(object),
        })
        for d in dcols:
            out[d] = np.int64(0)
        return out

    union = (joined.map_batches(contrib, batch_format="pandas")
             .union(ds.map_batches(base_rows, batch_format="pandas",
                                   batch_size=8192)))

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby("doc_id", sort=False, as_index=False)
               .agg({"n_tok": "sum", label_col: "max",
                     **{d: "sum" for d in dcols}}))
        # n_tok double-counts matched words (once in contrib, once in
        # base): base rows carry the full count, contrib rows only
        # matched multiplicities -> recover the full count from base
        base_n = (g[g[label_col] != ""]
                  .groupby("doc_id", sort=False)["n_tok"].sum())
        agg["n_tok"] = base_n.reindex(agg["doc_id"]).to_numpy(np.int64)
        scores = (prior[None, :]
                  + agg["n_tok"].to_numpy(np.int64)[:, None] * l0[None, :]
                  + agg[dcols].to_numpy(np.int64))
        pred = np.argmax(scores, axis=1)  # first max = lexicographic tie
        return pd.DataFrame({
            "doc_id": agg["doc_id"].astype("int64"),
            label_col: agg[label_col].astype(object),
            "pred_" + label_col: np.array(classes, object)[pred],
        })

    out = partition_map(union, "doc_id", per_doc).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def bpe_encode_word(word: str, ranks: dict) -> list:
    """Apply learned merges to one word (chars + </w> end marker),
    always taking the LOWEST-rank applicable pair first — the standard
    BPE inference rule, consistent with bpe_train's learning order."""
    syms = list(word) + ["</w>"]
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def bpe_apply(ds: rd.Dataset, merges: pd.DataFrame) -> rd.Dataset:
    """Tokenize the corpus with a trained merge table (the apply half of
    the BPE story): per-doc token/word/char counts plus the char->token
    compression the tokenizer achieves.

    Scale shape: the merge table is metadata-scale (num_merges rows) —
    ONE ray.put broadcast, read once per task; each batch encodes only
    its DISTINCT words (per-batch cache), so cost scales with batch
    vocabulary, not token count. Stateless map, no shuffle."""
    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    ref = ray.put(ranks)

    def enc(b: pd.DataFrame) -> pd.DataFrame:
        rk = ray.get(ref)
        cache: dict = {}
        n_tokens = np.zeros(len(b), dtype=np.int64)
        n_words = np.zeros(len(b), dtype=np.int64)
        n_chars = np.zeros(len(b), dtype=np.int64)
        for i, t in enumerate(b["text"].fillna("")):
            words = t.split()
            n_words[i] = len(words)
            n_chars[i] = sum(len(w) for w in words)
            tot = 0
            for w in words:
                got = cache.get(w)
                if got is None:
                    got = len(bpe_encode_word(w, rk))
                    cache[w] = got
                tot += got
            n_tokens[i] = tot
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_words": n_words,
            "n_chars": n_chars,
            "n_tokens": n_tokens,
        })

    return ds.map_batches(enc, batch_format="pandas", batch_size=8192)


def vocab_coverage(ds: rd.Dataset, k: int = 100) -> pd.DataFrame:
    """Vocabulary coverage curve (the tokenizer/vocab-sizing
    diagnostic): the exact top-k words by corpus frequency and the
    cumulative token-mass permille they cover. Top-k comes from
    heavy_hitters' two-pass sketch-then-recount (no vocab-scale
    shuffle); the token total is one metadata-scale reduce. Coverage is
    integer permille (cum * 1000 // total), so the frame is
    engine-exact."""
    top = heavy_hitters(ds, k=k)

    def tok_total(b: pd.DataFrame) -> pd.DataFrame:
        n = int(b["text"].fillna("").str.split().str.len().sum())
        return pd.DataFrame({"n": [n]})

    total = int(ds.map_batches(tok_total, batch_format="pandas",
                               batch_size=65536).to_pandas()["n"].sum())
    cum = top["n"].cumsum().to_numpy(np.int64)
    return pd.DataFrame({
        "rank": np.arange(len(top), dtype="int64"),
        "word": top["word"],
        "n": top["n"].astype("int64"),
        "cum_permille": (cum * 1000 // max(total, 1)).astype("int64"),
    })


def source_kl(ds: rd.Dataset, group_col: str = "source") -> pd.DataFrame:
    """Per-source KL divergence of the source's word distribution from
    the corpus-wide distribution — the data-mixture drift diagnostic
    (which sources are lexically atypical).

    Engine-exact integer form: KL_s * N_s * 1e6 is reported as
    ``kl_micro`` = sum_w c_ws * floor(1e6 * ln(c_ws * N / (c_w * N_s)))
    (all counts integers; the lone float op is ln of one exact rational
    per (word, source), identical on both engines). Consumers divide by
    1e6 * n_tokens for nats.

    Distributed shape: ONE word-keyed exchange builds the word x source
    count table; the word marginal c_w is each pivot row's own sum, so
    scoring is row-local with just the (N, N_s) scalars broadcast —
    the driver never sees a vocabulary-scale table."""
    import math

    # group list + token marginals: metadata-scale partials
    def marg(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].fillna("").str.split().str.len()
        g = (pd.DataFrame({group_col: b[group_col], "n": n})
             .groupby(group_col, sort=False, as_index=False)["n"].sum())
        return g

    m = (ds.map_batches(marg, batch_format="pandas", batch_size=65536)
         .to_pandas().groupby(group_col, as_index=False)["n"].sum())
    groups = sorted(m[group_col].tolist())
    n_s = np.array([int(m.set_index(group_col)["n"][g]) for g in groups],
                   dtype=np.int64)
    n_tot = int(n_s.sum())
    gcols = [f"c{j}" for j in range(len(groups))]

    def wc_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        labs = b[group_col].to_numpy(object)[flat.index.to_numpy()]
        g = (pd.DataFrame({"word": flat.to_numpy(object), "g": labs})
             .groupby(["word", "g"], sort=False).size().unstack(
                 fill_value=0))
        out = pd.DataFrame({"word": g.index.to_numpy(object)})
        for j, gname in enumerate(groups):
            out[gcols[j]] = (g[gname].to_numpy(np.int64)
                             if gname in g.columns else np.int64(0))
        return out

    def score_shard(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("word", sort=False, as_index=False)[gcols].sum()
        C = agg[gcols].to_numpy(np.int64)           # (v, k)
        cw = C.sum(axis=1)                          # word marginal
        out = np.zeros(len(gcols), dtype=np.int64)
        for j in range(len(gcols)):
            c = C[:, j]
            nz = c > 0
            ratio = (c[nz].astype(np.float64) * n_tot) \
                / (cw[nz].astype(np.float64) * n_s[j])
            out[j] += int(np.sum(c[nz] * np.floor(
                1e6 * np.log(ratio)).astype(np.int64)))
        return pd.DataFrame({"g": np.arange(len(gcols), dtype=np.int64),
                             "kl": out})

    parts_df = partition_map(
        ds.map_batches(wc_partial, batch_format="pandas", batch_size=65536),
        "word", score_shard).to_pandas()
    tot = parts_df.groupby("g")["kl"].sum()
    return pd.DataFrame({
        group_col: pd.Series(groups, dtype=str),
        "n_tokens": n_s,
        "kl_micro": np.array([int(tot.get(j, 0))
                              for j in range(len(groups))],
                             dtype=np.int64),
    })


def ngram_diversity(ds: rd.Dataset, window: int = 3,
                    group_col: str = "source") -> pd.DataFrame:
    """Per-source W-gram diversity (distinct grams / total grams) —
    the dataset-report self-repetition metric: a source whose permille
    collapses is template/boilerplate-heavy.

    Totals are a stateless metadata-scale partial pass. Distinct counts
    ride ONE exchange keyed on the gram hash ``h`` (batch_window_hashes
    — no gram strings move): each (gram, source) pair lands in exactly
    one partition, so per-partition nunique partials sum exactly. The
    driver sees k rows per partition, never a vocabulary."""

    def totals(b: pd.DataFrame) -> pd.DataFrame:
        n = (b["text"].fillna("").str.split().str.len()
             - (window - 1)).clip(lower=0)
        return (pd.DataFrame({group_col: b[group_col], "n": n})
                .groupby(group_col, sort=False, as_index=False)["n"].sum())

    tot = (ds.map_batches(totals, batch_format="pandas", batch_size=65536)
           .to_pandas().groupby(group_col, as_index=False)["n"].sum())

    def gram_rows(b: pd.DataFrame) -> pd.DataFrame:
        gh, doc_idx, _pos = hashing.batch_window_hashes(
            b["text"].tolist(), window)
        return pd.DataFrame({
            "h": gh,
            "g": b[group_col].to_numpy(object)[doc_idx],
        }).drop_duplicates()

    def distinct_shard(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["h", "g"]).groupby(
            "g", sort=False).size().reset_index(name="n_distinct")

    parts_df = partition_map(
        ds.map_batches(gram_rows, batch_format="pandas", batch_size=8192),
        "h", distinct_shard).to_pandas()
    dist = parts_df.groupby("g", as_index=False)["n_distinct"].sum()
    out = tot.merge(dist, left_on=group_col, right_on="g", how="left")
    n_grams = out["n"].to_numpy(np.int64)
    n_distinct = out["n_distinct"].fillna(0).to_numpy(np.int64)
    keep = n_grams > 0
    return (pd.DataFrame({
        group_col: out[group_col].astype(str)[keep],
        "n_grams": n_grams[keep],
        "n_distinct": n_distinct[keep],
        "diversity_permille": n_distinct[keep] * 1000 // n_grams[keep],
    }).sort_values(group_col).reset_index(drop=True))


# ------------------------------------------- logistic-regression classifier


LR_FEATS = [f"hits_{lg}" for lg in sorted(LANG_STOPWORDS)] + ["n_words"]


def lr_features(ds: rd.Dataset, thresh: int = 300) -> rd.Dataset:
    """Featurize documents for the quality logistic classifier (the
    fastText-linear-classifier shape used for corpus filtering):
    per-language stopword-hit RATES (hits per 100 words — rates, not
    raw counts, so long docs don't dominate) plus log1p(n_words). The
    label is the substantial-document class (n_chars >= thresh) — the
    one genuinely learnable target in the synthetic corpus (its lang
    column is an unconditioned random label; a real deployment passes
    its own labels through the same feature kernel). One explode + isin
    per language per batch, no per-row Python (same kernel as
    langid_table)."""
    langs = sorted(LANG_STOPWORDS)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        flat = batch["text"].fillna("").str.split().explode().dropna()
        pos = flat.index.to_numpy()
        n = len(batch)
        nw = np.bincount(pos, minlength=n).astype("float64")
        out = {"doc_id": batch["doc_id"].astype("int64")}
        denom = np.maximum(nw, 1.0)
        for lg in langs:
            hit = flat.isin(LANG_STOPWORDS[lg]).to_numpy()
            s = np.bincount(pos[hit], minlength=n).astype("float64")
            out[f"hits_{lg}"] = 100.0 * s / denom
        out["n_words"] = np.log1p(nw)
        out["label"] = (batch["n_chars"] >= thresh).astype("int64")
        return pd.DataFrame(out)

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


def lr_train(feat: rd.Dataset, feat_cols: list[str] | None = None,
             label_col: str = "label", steps: int = 8,
             l2: float = 1e-4) -> np.ndarray:
    """Distributed logistic regression by Newton-IRLS: ``steps``
    Newton iterations (default 8 — quadratic convergence; the earlier
    full-batch GD needed hundreds of corpus scans for the same loss),
    each one corpus scan. Features are standardized first (one moments
    pass: per-block sum/sumsq/count partials -> driver mu/sd) for
    conditioning; the returned weights are folded back to RAW feature
    space (w_raw = w_std/sd, bias adjusted) so lr_score applies them
    without knowing mu/sd.

    Scale shape: the corpus is featurized ONCE upstream (lr_features)
    into a narrow feature table that is materialized and re-scanned per
    Newton step; each step broadcasts the weight vector (ray.put, dim+1
    floats), every block returns ONE partial row carrying its dim²
    Hessian contribution Xᵀdiag(p(1-p))X and gradient Xᵀ(y-p), and the
    driver reduces partials in a STABLE order (sorted by each block's
    min doc_id) before the dim×dim solve — repeated runs on the same
    block structure produce bit-identical weights. Driver state is
    O(dim²) — never corpus-scale. The ridge term keeps the solve
    non-singular on separable data."""
    if feat_cols is None:
        feat_cols = list(LR_FEATS)
    nf = len(feat_cols)
    dim = nf + 1  # + bias
    feat = feat.materialize()

    def mom_part(b: pd.DataFrame) -> pd.DataFrame:
        X = np.column_stack([b[c].to_numpy(dtype="float64")
                             for c in feat_cols])
        row = {f"s{j}": [X[:, j].sum()] for j in range(nf)}
        row.update({f"q{j}": [(X[:, j] ** 2).sum()] for j in range(nf)})
        row["n"] = [np.int64(len(b))]
        row["k"] = [np.int64(b["doc_id"].min())]
        return pd.DataFrame(row)

    mom = feat.map_batches(mom_part, batch_format="pandas",
                           batch_size=65536).to_pandas().sort_values("k")
    n_tot = float(mom["n"].sum())
    mu = np.array([mom[f"s{j}"].sum() for j in range(nf)]) / n_tot
    var = np.array([mom[f"q{j}"].sum() for j in range(nf)]) / n_tot - mu**2
    sd = np.sqrt(np.maximum(var, 0.0))
    sd[sd == 0] = 1.0

    w = np.zeros(dim, dtype="float64")
    hcols = [f"h{a}_{b_}" for a in range(dim) for b_ in range(a, dim)]

    def newton_part(b: pd.DataFrame, wref) -> pd.DataFrame:
        wv, mu_, sd_ = ray.get(wref)
        X0 = np.column_stack([b[c].to_numpy(dtype="float64")
                              for c in feat_cols])
        X = np.column_stack([(X0 - mu_) / sd_, np.ones(len(b))])
        y = b[label_col].to_numpy(dtype="float64")
        p = 1.0 / (1.0 + np.exp(-(X @ wv)))
        r = p * (1.0 - p)
        H = (X * r[:, None]).T @ X           # dim x dim
        g = X.T @ (y - p)
        row = {f"g{j}": [g[j]] for j in range(dim)}
        iu = 0
        for a in range(dim):
            for b2 in range(a, dim):
                row[hcols[iu]] = [H[a, b2]]
                iu += 1
        row["k"] = [np.int64(b["doc_id"].min())]
        return pd.DataFrame(row)

    for _ in range(steps):
        wref = ray.put((w, mu, sd))
        parts = feat.map_batches(
            lambda b, _w=wref: newton_part(b, _w),
            batch_format="pandas", batch_size=65536).to_pandas()
        parts = parts.sort_values("k")
        g = np.array([parts[f"g{j}"].sum() for j in range(dim)])
        H = np.zeros((dim, dim))
        iu = 0
        for a in range(dim):
            for b2 in range(a, dim):
                H[a, b2] = H[b2, a] = parts[hcols[iu]].sum()
                iu += 1
        H += l2 * n_tot * np.eye(dim)
        w = w + np.linalg.solve(H, g - l2 * n_tot * w)

    raw = np.empty(dim, dtype="float64")
    raw[:nf] = w[:nf] / sd
    raw[nf] = w[nf] - float((w[:nf] * mu / sd).sum())
    return raw


def lr_score(feat: rd.Dataset, w: np.ndarray,
             feat_cols: list[str] | None = None) -> rd.Dataset:
    """Score a feature table with trained LR weights: adds ``prob`` and
    ``pred`` columns (broadcast weights, per-batch matmul)."""
    if feat_cols is None:
        feat_cols = list(LR_FEATS)
    wref = ray.put(np.asarray(w, dtype="float64"))

    def f(b: pd.DataFrame) -> pd.DataFrame:
        wv = ray.get(wref)
        X = np.column_stack([b[c].to_numpy(dtype="float64")
                             for c in feat_cols]
                            + [np.ones(len(b))])
        p = 1.0 / (1.0 + np.exp(-(X @ wv)))
        b = b.copy()
        b["prob"] = p
        b["pred"] = (p >= 0.5).astype("int64")
        return b

    return feat.map_batches(f, batch_format="pandas", batch_size=65536)


def lr_quality(ds: rd.Dataset, train_mod: int = 5, steps: int = 8
               ) -> pd.DataFrame:
    """Train the linear classifier on the doc_id%train_mod != 0 split,
    evaluate on the held-out rest; returns the per-(label, pred)
    confusion counts plus held-out accuracy per cell — the corpus-
    filtering quality gate as a pipeline. Rows-only query (iterative
    training has no SQL twin); pinned by accuracy + determinism +
    serial-parity tests."""
    feat = lr_features(ds)

    def split(b: pd.DataFrame, keep_train: bool) -> pd.DataFrame:
        m = (b["doc_id"] % train_mod != 0)
        return b[m if keep_train else ~m]

    train = feat.map_batches(lambda b: split(b, True),
                             batch_format="pandas")
    test = feat.map_batches(lambda b: split(b, False),
                            batch_format="pandas")
    w = lr_train(train, steps=steps)
    scored = lr_score(test, w).to_pandas()
    out = (scored.groupby(["label", "pred"], as_index=False)
           .size().rename(columns={"size": "n"}))
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["label", "pred"]).reset_index(drop=True)


# --------------------------------------- unigram-LM tokenizer (Kudo'18)


def viterbi_segment(word: str, logp: dict, max_len: int
                    ) -> tuple[list, float]:
    """Best unigram-LM segmentation of ``word`` (Viterbi over piece
    boundaries).  Deterministic tie rule: on equal score prefer the
    LONGER last piece (then earlier split), so results never depend on
    dict iteration order.  Returns (pieces, total_logp)."""
    n = len(word)
    best = [(-1e18, -1)] * (n + 1)
    best[0] = (0.0, -1)
    for j in range(1, n + 1):
        b = (-1e18, -1)
        for i in range(max(0, j - max_len), j):
            lp = logp.get(word[i:j])
            if lp is None or best[i][1] == -2:
                continue
            s = best[i][0] + lp
            # longer last piece = smaller i; iterate i ascending and
            # take strict improvement -> first (longest) wins ties
            if s > b[0]:
                b = (s, i)
        best[j] = b if b[1] >= 0 else (-1e18, -2)
    if best[n][1] == -2:
        return list(word), -1e18  # unreachable when all chars are pieces
    pieces = []
    j = n
    while j > 0:
        i = best[j][1]
        pieces.append(word[i:j])
        j = i
    return pieces[::-1], best[n][0]


def unigram_lm_train(ds: rd.Dataset, vocab_size: int = 400,
                     max_piece_len: int = 6, em_iters: int = 4,
                     seed_keep: int = 2000,
                     text_col: str = "text") -> pd.DataFrame:
    """Distributed unigram-LM tokenizer training (Kudo 2018 — the
    SentencePiece unigram model), the EM counterpart of ``bpe_train``.

    Scale shape: the corpus collapses ONCE to the distributed
    distinct-word count table (``word_counts``, as in bpe_train).
    Seed vocabulary = every single character plus the ``seed_keep``
    highest-frequency substrings (len <= max_piece_len): substring
    partials combine on one piece-keyed ``partition_map``, each
    partition emits its
    own top-``seed_keep`` (a piece's whole count lives in ONE
    partition, so the driver merge over partition winners is EXACT —
    the heavy_hitters argument).  Each hard-EM round broadcasts the
    piece log-prob table (vocab-size rows — broadcast-scale BY
    CONSTRUCTION, the tokenizer contract) via ray.put, Viterbi-segments
    the distinct-word table in parallel, combines piece-count partials,
    re-normalizes, and prunes to ``vocab_size`` keeping all single
    chars (coverage guarantee: every word stays segmentable).
    Deterministic end to end: integer counts, (count desc, piece asc)
    prune order, longest-piece Viterbi ties.

    Returns (piece, count, logp) sorted by (count desc, piece)."""
    import math

    if em_iters < 1:
        raise ValueError("unigram_lm_train needs em_iters >= 1")

    words = word_counts(ds, text_col).materialize()

    # ---- seed: char + substring counts, piece-keyed exchange, exact topK
    def sub_partial(b: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for w, c in zip(b["word"], b["c"]):
            c = int(c)
            n = len(w)
            for i in range(n):
                for l in range(1, min(max_piece_len, n - i) + 1):
                    p = w[i:i + l]
                    rows[p] = rows.get(p, 0) + c
        return pd.DataFrame({"piece": list(rows.keys()),
                             "pc": pd.Series(list(rows.values()),
                                             dtype="int64")})

    def sub_top(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby("piece", sort=False, as_index=False)["pc"].sum())
        s["is_char"] = s["piece"].str.len() == 1
        s = s.sort_values(["is_char", "pc", "piece"],
                          ascending=[False, False, True])
        # chars always survive; then the partition's top multi-char
        return s.head(int(s["is_char"].sum()) + seed_keep)[
            ["piece", "pc", "is_char"]]

    cand = partition_map(
        words.map_batches(sub_partial, batch_format="pandas",
                          batch_size=8192),
        "piece", sub_top).to_pandas()
    chars = cand[cand["is_char"]]
    multi = (cand[~cand["is_char"]]
             .sort_values(["pc", "piece"], ascending=[False, True])
             .head(seed_keep))
    seed = pd.concat([chars, multi])[["piece", "pc"]]

    def normalize(counts: pd.Series) -> dict:
        tot = float(counts.sum())
        return {p: math.log(c / tot)
                for p, c in counts.items()}

    logp = normalize(seed.set_index("piece")["pc"])

    for it in range(em_iters):
        ref = ray.put(logp)

        def estep(b: pd.DataFrame) -> pd.DataFrame:
            lp = ray.get(ref)
            rows: dict = {}
            for w, c in zip(b["word"], b["c"]):
                pieces, _ = viterbi_segment(w, lp, max_piece_len)
                for p in pieces:
                    rows[p] = rows.get(p, 0) + int(c)
            out = pd.DataFrame({"piece": list(rows.keys()),
                                "ec": pd.Series(list(rows.values()),
                                                dtype="int64")})
            return out

        # piece-count partials are vocab-bounded per block: the driver
        # combine is <= vocab x blocks rows (grouped_agg's argument)
        parts_df = (words.map_batches(estep, batch_format="pandas",
                                      batch_size=8192).to_pandas())
        counts = parts_df.groupby("piece")["ec"].sum()
        # prune: all single chars + top multi-char pieces by count
        cdf = counts.reset_index().rename(columns={"ec": "c"})
        cdf["is_char"] = cdf["piece"].str.len() == 1
        nchars = int(cdf["is_char"].sum())
        keep = pd.concat([
            cdf[cdf["is_char"]],
            (cdf[~cdf["is_char"]]
             .sort_values(["c", "piece"], ascending=[False, True])
             .head(max(0, vocab_size - nchars))),
        ])
        # chars that fell to zero count still need a floor prob
        seen_chars = set(chars["piece"])
        missing = seen_chars - set(keep["piece"])
        if missing:
            keep = pd.concat([keep, pd.DataFrame(
                {"piece": sorted(missing), "c": 0, "is_char": True})])
        keep = keep.copy()
        keep["c"] = keep["c"].astype("int64") + 1  # add-one floor
        logp = normalize(keep.set_index("piece")["c"])

    out = (keep[["piece", "c"]].rename(columns={"c": "count"})
           .sort_values(["count", "piece"], ascending=[False, True])
           .reset_index(drop=True))
    out["logp"] = out["piece"].map(logp)
    return out


def unigram_lm_apply(ds: rd.Dataset, pieces: pd.DataFrame,
                     max_piece_len: int = 6,
                     text_col: str = "text") -> rd.Dataset:
    """Tokenize the corpus with a trained unigram-LM piece table (the
    apply half): per-doc piece/word/char counts.  The piece table is
    broadcast once via ray.put; each batch Viterbi-encodes only its
    DISTINCT words (per-batch cache).  Stateless map, no shuffle."""
    lp = dict(zip(pieces["piece"], pieces["logp"]))
    ref = ray.put(lp)

    def enc(b: pd.DataFrame) -> pd.DataFrame:
        lpd = ray.get(ref)
        cache: dict = {}
        n_pieces = np.zeros(len(b), dtype=np.int64)
        n_words = np.zeros(len(b), dtype=np.int64)
        n_chars = np.zeros(len(b), dtype=np.int64)
        for i, t in enumerate(b[text_col].fillna("")):
            ws = t.split()
            n_words[i] = len(ws)
            n_chars[i] = sum(len(w) for w in ws)
            tot = 0
            for w in ws:
                got = cache.get(w)
                if got is None:
                    got = len(viterbi_segment(w, lpd, max_piece_len)[0])
                    cache[w] = got
                tot += got
            n_pieces[i] = tot
        out = b[["doc_id"]].copy()
        out["n_pieces"] = n_pieces
        out["n_words"] = n_words
        out["n_chars"] = n_chars
        return out

    return ds.map_batches(enc, batch_format="pandas", batch_size=8192)


def cooccurrence(ds: rd.Dataset, window: int = 3, k: int = 50
                 ) -> pd.DataFrame:
    """Windowed word co-occurrence counts (the GloVe / word2vec
    statistics-gathering pass): for every ordered token pair at
    distance 1..window inside a doc, count the UNORDERED canonical
    pair (wa <= wb); return the exact global top-k by (n desc, wa,
    wb) — the deterministic tie order the SQL twin shares, so the cut
    is identical even when ties straddle the limit.

    Distributed shape: pair generation is vectorized per batch (one
    shifted-array compare per offset, doc boundaries masked on the
    flattened token stream), partials combine per batch BEFORE the one
    pair-keyed ``partition_map``; each pair key is fully aggregated
    inside its partition, so per-partition top-k is exact and the
    driver merges only k rows per partition."""
    empty = pd.DataFrame({"wa": pd.Series([], dtype=object),
                          "wb": pd.Series([], dtype=object),
                          "n": pd.Series([], dtype="int64")})

    def pair_part(b: pd.DataFrame) -> pd.DataFrame:
        texts = [(t or "").split() for t in b["text"]]
        lens = np.array([len(t) for t in texts], dtype="int64")
        total = int(lens.sum())
        if total == 0:
            return empty
        words = np.concatenate([np.asarray(t, dtype=object)
                                for t in texts])
        ids = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        was, wbs = [], []
        for off in range(1, window + 1):
            if off >= total:
                break
            a, bb = words[:-off], words[off:]
            same = ids[:-off] == ids[off:]
            a, bb = a[same], bb[same]
            lo = np.where(a <= bb, a, bb)
            hi = np.where(a <= bb, bb, a)
            was.append(lo)
            wbs.append(hi)
        if not was:
            return empty
        g = (pd.DataFrame({"wa": np.concatenate(was),
                           "wb": np.concatenate(wbs)})
             .groupby(["wa", "wb"], as_index=False, sort=False)
             .size().rename(columns={"size": "n"}))
        g["n"] = g["n"].astype("int64")
        return g

    def topk_part(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["wa", "wb"], as_index=False, sort=False)["n"].sum()
        s["n"] = s["n"].astype("int64")
        return (s.sort_values(["n", "wa", "wb"],
                              ascending=[False, True, True]).head(k))

    parts = partition_map(ds.map_batches(pair_part, batch_format="pandas"),
                          ["wa", "wb"], topk_part).to_pandas()
    if "wa" not in parts.columns or not len(parts):
        return empty
    return (parts.sort_values(["n", "wa", "wb"],
                              ascending=[False, True, True]).head(k)
            [["wa", "wb", "n"]].reset_index(drop=True))


# ------------------------------------------- AdaBoost decision stumps


def adaboost_stumps(feat: rd.Dataset, feat_cols: list[str] | None = None,
                    label_col: str = "label", rounds: int = 8,
                    bins: int = 32) -> pd.DataFrame:
    """Distributed AdaBoost over axis-aligned decision stumps (Freund &
    Schapire '97) — the nonlinear counterpart to lr_train for corpus
    quality filtering. Nothing corpus-scale touches the driver and no
    per-row weights are ever stored: row weights w_i = exp(-y_i F(x_i))
    are RECOMPUTED per round from the broadcast stump list (the model
    is rounds x 4 floats), so each round is ONE scan emitting per-block
    weighted class histograms over fixed per-feature bins — the
    (features x bins x 2) float partial is tiny and the driver picks
    the (feature, threshold, polarity) stump with minimal weighted
    error from cumulative sums.

    Reproducibility: partials are reduced in a STABLE order (sorted by
    each block's min doc_id, the lr_train idiom), so repeated runs on
    the same block structure produce bit-identical stumps; a serial
    numpy replay in tests matches exactly.

    Returns the stump table (round, feature, thr, pol, alpha)."""
    if feat_cols is None:
        feat_cols = list(LR_FEATS)
    nf = len(feat_cols)
    feat = feat.materialize()

    def rng_part(b: pd.DataFrame) -> pd.DataFrame:
        row = {}
        for j, c in enumerate(feat_cols):
            x = b[c].to_numpy(np.float64)
            row[f"lo{j}"] = [x.min() if len(x) else np.inf]
            row[f"hi{j}"] = [x.max() if len(x) else -np.inf]
        row["k"] = [np.int64(b["doc_id"].min()) if len(b) else np.int64(0)]
        return pd.DataFrame(row)

    rng = feat.map_batches(rng_part, batch_format="pandas",
                           batch_size=65536).to_pandas()
    edges = []
    for j in range(nf):
        lo, hi = float(rng[f"lo{j}"].min()), float(rng[f"hi{j}"].max())
        if not np.isfinite(lo) or hi <= lo:
            edges.append(np.array([lo if np.isfinite(lo) else 0.0]))
        else:
            edges.append(np.linspace(lo, hi, bins + 1)[1:-1])
    n_edges = [e.shape[0] for e in edges]

    import ray

    stumps: list[tuple[int, float, int, float]] = []  # (feat, thr, pol, alpha)

    def margins(b: pd.DataFrame, model) -> np.ndarray:
        F = np.zeros(len(b), dtype=np.float64)
        for f_j, thr, pol, alpha in model:
            x = b[feat_cols[f_j]].to_numpy(np.float64)
            h = np.where(x <= thr, 1.0, -1.0) * pol
            F += alpha * h
        return F

    for _ in range(rounds):
        model_ref = ray.put(list(stumps))

        def hist_part(b: pd.DataFrame) -> pd.DataFrame:
            model = ray.get(model_ref)
            y = b[label_col].to_numpy(np.int64) * 2 - 1
            w = np.exp(-y * margins(b, model))
            row = {"k": [np.int64(b["doc_id"].min())]}
            for j in range(nf):
                x = b[feat_cols[j]].to_numpy(np.float64)
                idx = np.searchsorted(edges[j], x, side="left")
                hp = np.bincount(idx, weights=w * (y > 0),
                                 minlength=n_edges[j] + 1)
                hn = np.bincount(idx, weights=w * (y < 0),
                                 minlength=n_edges[j] + 1)
                row[f"hp{j}"] = [hp.tobytes()]
                row[f"hn{j}"] = [hn.tobytes()]
            return pd.DataFrame(row)

        parts = feat.map_batches(hist_part, batch_format="pandas",
                                 batch_size=65536).to_pandas().sort_values(
            "k")
        best = None  # (err, j, b, pol)
        tot_p = tot_n = 0.0
        sums = []
        for j in range(nf):
            hp = np.zeros(n_edges[j] + 1)
            hn = np.zeros(n_edges[j] + 1)
            for blob in parts[f"hp{j}"]:
                hp += np.frombuffer(blob)
            for blob in parts[f"hn{j}"]:
                hn += np.frombuffer(blob)
            sums.append((hp, hn))
        tot_p = float(sums[0][0].sum())
        tot_n = float(sums[0][1].sum())
        total = tot_p + tot_n
        for j in range(nf):
            hp, hn = sums[j]
            cp, cn = np.cumsum(hp)[:-1], np.cumsum(hn)[:-1]
            if cp.shape[0] == 0:
                continue
            err_pos = cn + (tot_p - cp)   # predict +1 iff x <= thr
            err_neg = cp + (tot_n - cn)   # predict -1 iff x <= thr
            for pol, errs in ((1, err_pos), (-1, err_neg)):
                b_idx = int(np.argmin(errs))
                e = float(errs[b_idx]) / total
                if best is None or e < best[0]:
                    best = (e, j, b_idx, pol)
        e, j, b_idx, pol = best
        e = min(max(e, 1e-10), 1 - 1e-10)
        if e >= 0.5 - 1e-9:
            break  # no stump beats chance on the reweighted sample
        alpha = 0.5 * float(np.log((1 - e) / e))
        stumps.append((j, float(edges[j][b_idx]), pol, alpha))

    return pd.DataFrame(
        [(r, feat_cols[j], thr, pol, alpha)
         for r, (j, thr, pol, alpha) in enumerate(stumps)],
        columns=["round", "feature", "thr", "pol", "alpha"])


def boost_score(feat: rd.Dataset, stumps: pd.DataFrame,
                feat_cols: list[str] | None = None) -> rd.Dataset:
    """Apply an adaboost_stumps model: sign of the weighted stump sum.
    Broadcast model (rounds x 4), stateless map."""
    if feat_cols is None:
        feat_cols = list(LR_FEATS)
    model = [(feat_cols.index(r.feature), float(r.thr), int(r.pol),
              float(r.alpha)) for r in stumps.itertuples()]

    def score(b: pd.DataFrame) -> pd.DataFrame:
        F = np.zeros(len(b), dtype=np.float64)
        for j, thr, pol, alpha in model:
            x = b[feat_cols[j]].to_numpy(np.float64)
            F += alpha * pol * np.where(x <= thr, 1.0, -1.0)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "label": b["label"].astype("int64"),
            "pred": (F > 0).astype("int64")})

    return feat.map_batches(score, batch_format="pandas")


def boost_quality(ds: rd.Dataset, train_mod: int = 5, rounds: int = 8
                  ) -> pd.DataFrame:
    """AdaBoost counterpart of lr_quality: train on doc_id%mod != 0,
    held-out confusion counts. Rows-only (iterative); pinned by
    serial-parity + accuracy tests."""
    feat = lr_features(ds)

    def split(b: pd.DataFrame, keep_train: bool) -> pd.DataFrame:
        m = (b["doc_id"] % train_mod != 0)
        return b[m if keep_train else ~m]

    train = feat.map_batches(lambda b: split(b, True),
                             batch_format="pandas")
    test = feat.map_batches(lambda b: split(b, False),
                            batch_format="pandas")
    stumps = adaboost_stumps(train, rounds=rounds)
    scored = boost_score(test, stumps).to_pandas()
    out = (scored.groupby(["label", "pred"], as_index=False)
           .size().rename(columns={"size": "n"}))
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["label", "pred"]).reset_index(drop=True)


def search_trigram_index_multi(index_dir: str, needles: list[str],
                               docs: rd.Dataset) -> pd.DataFrame:
    """Batched substring search: ONE index probe + ONE verify pass
    serves every needle (the multi-query serving shape — per-needle
    passes would multiply bucket reads). Per needle the AND-semantics
    candidate rule and exact substring verify are identical to
    search_trigram_index; needles shorter than 3 bytes raise. Returns
    (needle, doc_id) sorted."""
    import glob as _glob
    import json
    import os

    import pyarrow as pa
    import ray

    needles = sorted(set(needles))
    codes = {n: _trigram_codes(n) for n in needles}
    if any(c.shape[0] == 0 for c in codes.values()):
        raise ValueError("search_trigram_index_multi: needles must be "
                         ">= 3 bytes")
    with open(os.path.join(index_dir, "_stats.json")) as f:
        num_buckets = int(json.load(f)["num_buckets"])
    buckets = sorted({int(c) % num_buckets
                      for cs in codes.values() for c in cs})
    files = [f for c in buckets
             for f in sorted(_glob.glob(
                 os.path.join(index_dir, f"bucket={c}", "*.parquet")))]
    empty = pd.DataFrame({"needle": pd.Series(dtype=object),
                          "doc_id": pd.Series(dtype="int64")})
    if not files:
        return empty

    # tri code -> list of needle ids wanting it
    tri2needles: dict = {}
    for ni, n in enumerate(needles):
        for c in codes[n]:
            tri2needles.setdefault(int(c), []).append(ni)
    need_counts = np.array([codes[n].shape[0] for n in needles],
                           dtype=np.int64)
    t2n_ref = ray.put(tri2needles)

    # vectorized expansion tables: sorted tri codes + CSR-style
    # (offset, flat needle-id) arrays, so prune stays C-level
    tri_keys = np.array(sorted(tri2needles), dtype=np.int64)
    tri_counts = np.array([len(tri2needles[int(t)]) for t in tri_keys],
                          dtype=np.int64)
    tri_offsets = np.concatenate([[0], np.cumsum(tri_counts)])
    tri_nids = np.array([ni for t in tri_keys
                         for ni in tri2needles[int(t)]], dtype=np.int64)
    exp_ref = ray.put((tri_keys, tri_counts, tri_offsets, tri_nids))

    def prune(t: "pa.Table") -> pd.DataFrame:
        import pyarrow.compute as pc

        keys, counts, offs, flat_nids = ray.get(exp_ref)
        keep = pc.is_in(t.column("tri"),
                        value_set=pa.array(keys, pa.int64()))
        f = t.filter(keep)
        tri = f.column("tri").to_numpy(zero_copy_only=False)
        did = f.column("doc_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, tri)
        reps = counts[pos]
        dids = np.repeat(did, reps)
        # flat needle ids per posting row: starts[row] + within-row
        # arange, all via the standard ragged-arange identity
        starts = offs[pos]
        total = int(reps.sum())
        ends = np.cumsum(reps)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            ends - reps, reps)
        nids = flat_nids[np.repeat(starts, reps) + within]
        return pd.DataFrame({
            "doc_id": pd.Series(dids, dtype="int64"),
            "nid": pd.Series(nids, dtype="int64"),
            "hits": np.ones(dids.shape[0], dtype=np.int64)})

    posts = rd.read_parquet(files, columns=["tri", "doc_id"]).map_batches(
        prune, batch_format="pyarrow", batch_size=65536)
    cand = keyed_combine(posts, ["doc_id", "nid"], ["hits"])
    nc_ref = ray.put(need_counts)

    def full(b: pd.DataFrame) -> pd.DataFrame:
        nc = ray.get(nc_ref)
        keep = (b["hits"].to_numpy(np.int64)
                >= nc[b["nid"].to_numpy(np.int64)])
        return b[keep]

    cand = cand.map_batches(full, batch_format="pandas")
    cand_schema = pa.schema([("doc_id", pa.int64()), ("nid", pa.int64()),
                             ("hits", pa.int64())])
    doc_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    j = bucket_join(cand, docs.select_columns(["doc_id", "text"]),
                    "doc_id", "doc_id",
                    left_schema=cand_schema, right_schema=doc_schema)
    needles_ref = ray.put(list(needles))

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        ns = ray.get(needles_ref)
        keep = np.fromiter(
            (ns[int(ni)] in (t if isinstance(t, str) else "")
             for ni, t in zip(b["nid"], b["text"])),
            dtype=bool, count=len(b))
        return pd.DataFrame({
            "needle": pd.Series(
                [ns[int(ni)] for ni in b["nid"].to_numpy(np.int64)[keep]],
                dtype=object),
            "doc_id": b["doc_id"].to_numpy(np.int64)[keep]})

    out = j.map_batches(verify, batch_format="pandas").to_pandas()
    if not len(out):
        return empty
    return (out.sort_values(["needle", "doc_id"])
            .reset_index(drop=True))


# --------------------------------------- isotonic calibration (PAV)


def pav_fit(n: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Pool-Adjacent-Violators over ordered bins: returns the monotone
    non-decreasing rate per bin that minimizes weighted squared error
    (the classic stack algorithm — exact, O(bins))."""
    stack: list[list[float]] = []  # [weight, sum_pos]
    for w, p in zip(n.astype(np.float64), pos.astype(np.float64)):
        if w == 0:
            continue
        stack.append([w, p])
        while (len(stack) > 1 and
               stack[-2][1] * stack[-1][0]
               >= stack[-1][1] * stack[-2][0]):
            w2, p2 = stack.pop()
            stack[-1][0] += w2
            stack[-1][1] += p2
    out = np.zeros(n.shape[0], dtype=np.float64)
    i = 0
    for w, p in stack:
        rate = p / w
        used = 0.0
        while used < w - 1e-9 and i < n.shape[0]:
            if n[i] > 0:
                used += n[i]
            out[i] = rate
            i += 1
    while i < n.shape[0]:
        out[i] = out[i - 1] if i else 0.0
        i += 1
    return out


def isotonic_calibration(ds: rd.Dataset, train_mod: int = 5,
                         bins: int = 64, steps: int = 8) -> pd.DataFrame:
    """Probability CALIBRATION of the quality classifier by isotonic
    regression (PAV) — the standard post-hoc fix when a model's raw
    scores are over/under-confident: train LR on the doc_id%mod != 0
    split, score the held-out rest, bucket held-out probs into
    ``bins`` equal-width bins via one distributed (bin -> n, positives)
    combine, and run exact PAV over the (tiny) bin table on the
    driver. Output per non-empty bin: n, positives, raw mean prob and
    the isotonic rate (permille, monotone by construction). Rows-only
    (iterative model + PAV); monotonicity / mass-preservation /
    serial-parity pinned in tests."""
    feat = lr_features(ds)

    def split(b: pd.DataFrame, keep_train: bool) -> pd.DataFrame:
        m = (b["doc_id"] % train_mod != 0)
        return b[m if keep_train else ~m]

    w = lr_train(feat.map_batches(lambda b: split(b, True),
                                  batch_format="pandas"), steps=steps)
    scored = lr_score(feat.map_batches(lambda b: split(b, False),
                                       batch_format="pandas"), w)

    def binned(b: pd.DataFrame) -> pd.DataFrame:
        p = b["prob"].to_numpy(np.float64)
        bi = np.minimum((p * bins).astype(np.int64), bins - 1)
        y = b["label"].to_numpy(np.int64)
        return pd.DataFrame({
            "bin": pd.Series(bi, dtype="int64"),
            "n": np.ones(len(b), dtype=np.int64),
            "pos": y,
            # integer micro-prob partial sums keep the combine exact
            "p_micro": (p * 1_000_000).astype(np.int64)})

    agg = keyed_combine(scored.map_batches(binned, batch_format="pandas"),
                        "bin", ["n", "pos", "p_micro"]
                        ).to_pandas().sort_values("bin")
    full = pd.DataFrame({"bin": np.arange(bins, dtype=np.int64)})
    agg = full.merge(agg, on="bin", how="left").fillna(0)
    n = agg["n"].to_numpy(np.int64)
    pos = agg["pos"].to_numpy(np.int64)
    iso = pav_fit(n, pos)
    keep = n > 0
    return pd.DataFrame({
        "bin": agg["bin"].to_numpy(np.int64)[keep],
        "n": n[keep],
        "positives": pos[keep],
        "raw_permille": (agg["p_micro"].to_numpy(np.int64)[keep]
                         // np.maximum(n[keep], 1) // 1000),
        "iso_permille": (iso[keep] * 1000).astype(np.int64)})


# ------------------------------------------- TextRank summarization


def textrank_sentences(text: str, k: int = 2, damping: float = 0.85,
                       iters: int = 30) -> list[tuple[int, float, str]]:
    """Extractive summarization by TextRank (Mihalcea & Tarau, EMNLP
    2004): sentences are nodes, edge weight = token overlap normalized
    by log-lengths (the paper's similarity), ranked by a damped power
    iteration from uniform start — fully deterministic. Returns the
    top-k sentences as (index, score, text) in ORIGINAL order."""
    import re as _re

    parts = [p.strip() for p in _re.split(r"(?<=[.!?])\s+", text or "")
             if p.strip()]
    n = len(parts)
    if n == 0:
        return []
    if n == 1:
        return [(0, 1.0, parts[0])]
    toks = [set(p.lower().split()) for p in parts]
    W = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            denom = (np.log(max(len(toks[i]), 2))
                     + np.log(max(len(toks[j]), 2)))
            w = len(toks[i] & toks[j]) / denom
            W[i, j] = W[j, i] = w
    col = W.sum(axis=0)
    col[col == 0] = 1.0
    P = W / col  # column-stochastic over weighted out-degree
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r = (1 - damping) / n + damping * (P @ r)
    order = np.lexsort((np.arange(n), -r))[:k]
    picked = sorted(int(i) for i in order)
    return [(i, float(r[i]), parts[i]) for i in picked]


def textrank_table(ds: rd.Dataset, k: int = 2) -> rd.Dataset:
    """documents -> top-k TextRank sentences per doc. Per-doc map only
    (the graph is sentence-count sized — tens of nodes); no shuffle."""
    def f(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, scores, sents = [], [], [], []
        for i, t in zip(b["doc_id"], b["text"]):
            for idx, sc, s in textrank_sentences(
                    t if isinstance(t, str) else "", k=k):
                ids.append(int(i))
                idxs.append(idx)
                scores.append(round(sc, 6))
                sents.append(s)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "sent_idx": pd.Series(idxs, dtype="int64"),
            "score": pd.Series(scores, dtype="float64"),
            "sentence": pd.Series(sents, dtype=object)})

    return ds.map_batches(f, batch_format="pandas", batch_size=256)


# ------------------------------------------ TextTiling segmentation


def texttiling_boundaries(text: str, w: int = 20, step: int = 10,
                          smooth: int = 1) -> list[int]:
    """Topic-boundary detection by TextTiling (Hearst, CL 1997):
    tokenize, slide ``w``-token pseudo-sentence blocks at ``step``
    stride, score each gap by cosine similarity of adjacent blocks,
    smooth, and place boundaries at depth-score maxima exceeding the
    mean-minus-stddev cutoff (the paper's LC rule). Deterministic.
    Returns token offsets of the detected boundaries."""
    toks = (text or "").lower().split()
    n = len(toks)
    if n < 2 * w:
        return []
    gaps = list(range(w, n - w + 1, step))
    sims = np.zeros(len(gaps), dtype=np.float64)
    for gi, g in enumerate(gaps):
        a: dict = {}
        b: dict = {}
        for t in toks[g - w:g]:
            a[t] = a.get(t, 0) + 1
        for t in toks[g:g + w]:
            b[t] = b.get(t, 0) + 1
        num = sum(a[t] * b.get(t, 0) for t in a)
        den = (np.sqrt(sum(v * v for v in a.values()))
               * np.sqrt(sum(v * v for v in b.values())))
        sims[gi] = num / den if den else 0.0
    if smooth > 0 and sims.shape[0] > 2 * smooth:
        # edge-normalized moving average (zero-padded convolve would
        # fabricate edge valleys on flat profiles)
        k = np.ones(2 * smooth + 1)
        sims = (np.convolve(sims, k, mode="same")
                / np.convolve(np.ones_like(sims), k, mode="same"))
    # depth score: how deep each valley sits below its flanking peaks
    depth = np.zeros_like(sims)
    for i in range(sims.shape[0]):
        l = i
        while l > 0 and sims[l - 1] >= sims[l]:
            l -= 1
        r = i
        while r < sims.shape[0] - 1 and sims[r + 1] >= sims[r]:
            r += 1
        depth[i] = (sims[l] - sims[i]) + (sims[r] - sims[i])
    cutoff = depth.mean() + depth.std() * 0.5
    # boundaries = LOCAL MAXIMA of the depth profile above the cutoff
    # (a wide valley crosses the cutoff at several gaps; the paper
    # places one boundary at its deepest point), with an absolute
    # floor so single-topic float noise never fires
    cand = [i for i in range(depth.shape[0])
            if depth[i] > cutoff and depth[i] > 0.05
            and (i == 0 or depth[i] >= depth[i - 1])
            and (i == depth.shape[0] - 1 or depth[i] >= depth[i + 1])]
    out: list[int] = []
    for i in cand:  # merge residual close maxima, keep the deeper
        if out and gaps[i] - out[-1][0] < w:
            if depth[i] > out[-1][1]:
                out[-1] = (gaps[i], depth[i])
        else:
            out.append((gaps[i], depth[i]))
    return [g for g, _ in out]


def texttiling_table(ds: rd.Dataset, w: int = 20,
                     step: int = 10) -> rd.Dataset:
    """documents -> per-doc TextTiling summary (n_tokens, n_segments,
    boundary offsets as a comma string). Per-doc map only."""
    def f(b: pd.DataFrame) -> pd.DataFrame:
        ids, nt, ns, bs = [], [], [], []
        for i, t in zip(b["doc_id"], b["text"]):
            txt = t if isinstance(t, str) else ""
            cuts = texttiling_boundaries(txt, w=w, step=step)
            ids.append(int(i))
            nt.append(len(txt.split()))
            ns.append(len(cuts) + 1)
            bs.append(",".join(str(c) for c in cuts))
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "n_tokens": pd.Series(nt, dtype="int64"),
            "n_segments": pd.Series(ns, dtype="int64"),
            "boundaries": pd.Series(bs, dtype=object)})

    return ds.map_batches(f, batch_format="pandas", batch_size=256)
