"""Training-data curation operators: sequence packing, benchmark
decontamination, PII scrubbing. Standard LLM-pretraining-pipeline steps
(brief-scope additions like pipelines/dedup.py; no ocropy counterpart).

Scale notes per op:
- pack_sequences: needs a GLOBAL token prefix sum — reuses
  windows.ordered_scan (per-block partials, tiny driver prefix,
  broadcast), so the only exchange is one range-sort on doc_id.
- decontaminate: the benchmark side is SMALL by construction (eval sets
  are thousands of rows, corpora are billions) — broadcast via ray.put,
  vectorized substring scan per batch. Never a shuffle join.
- pii_scrub: stateless per-batch regex pass (compiled once at module
  import, pandas str ops), no shuffle.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from ..functions import hashing
from .relational import partition_map

WINDOW_TOKENS = 256

# PII patterns: email, north-american-style phone, IPv4 (compiled once;
# the scrub stage is vectorized pandas .str.replace over the batch).
_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PHONE_RE = r"\(\d{3}\) \d{3}-\d{4}"
_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
_PII_RE = re.compile(f"(?:{_EMAIL_RE}|{_PHONE_RE}|{_IP_RE})")
_WS_RE = re.compile(r"\s+")


# ------------------------------------------- global shuffle -> shards

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(1 << 32)
_FNV = np.uint64(1099511628211)
_M63 = np.uint64((1 << 63) - 1)


def _shard_keys(b: pd.DataFrame, n_shards: int, seed: int) -> pd.DataFrame:
    d = b["doc_id"].to_numpy(np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        skey = (d * _KNUTH + np.uint64(seed)) % _M32
    # append the keys, keep EVERY payload column — a training-shard
    # writer that drops the document body would force consumers into a
    # full-corpus re-join by doc_id
    out = b.copy()
    out["skey"] = skey.astype(np.int64)
    out["shard"] = (skey % np.uint64(n_shards)).astype(np.int64)
    return out


def shuffled_docs(docs: rd.Dataset, n_shards: int = 16,
                  seed: int = 1) -> rd.Dataset:
    """Deterministic global shuffle: key every doc with the Knuth
    multiplicative hash (the repo's established SQL-reproducible mix),
    ONE distributed range-sort on (shard, skey, doc_id). The sorted
    stream IS the shuffled training order; shard = skey % n_shards.
    The only exchange is the sort — no driver materialization."""

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return _shard_keys(b, n_shards, seed)

    return (docs.map_batches(keyed, batch_format="pandas", batch_size=65536)
                .sort(["shard", "skey", "doc_id"]))


def write_shards(docs: rd.Dataset, out_dir: str, n_shards: int = 16,
                 seed: int = 1) -> None:
    """Shuffle + write one hive partition per shard (resumable output:
    a re-run can skip finished shard directories). All input columns
    travel with the rows — the shards are self-contained training data,
    plus the (skey, shard) shuffle keys."""
    shuffled_docs(docs, n_shards, seed).write_parquet(
        out_dir, partition_cols=["shard"])


def shard_manifest(docs: rd.Dataset, n_shards: int = 16,
                   seed: int = 1) -> pd.DataFrame:
    """Per-shard manifest of the deterministic shuffle: doc count, char
    sum, and an ORDER-SENSITIVE checksum — bit_xor over
    ((rank_in_shard) * mix64(doc_id)) mod 2^63, rank taken in the global
    shuffled order. Verifies the shuffle's exact permutation, not just
    its membership; block-layout independent (ranks come from a
    cross-block prefix, so any parallelism yields the same manifest).

    Two passes over the sorted stream (the ordered_scan shape): pass 1
    emits per-BLOCK per-shard counts (driver sees one row per
    block*shards-in-block — metadata scale); pass 2 adds the broadcast
    prefix to in-block ranks and folds per-shard partials."""
    s = shuffled_docs(docs, n_shards, seed).materialize()

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"_first_doc": pd.Series([], dtype="int64"),
                                 "_first_shard": pd.Series([], dtype="int64"),
                                 "_first_skey": pd.Series([], dtype="int64"),
                                 "shard": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        g = b.groupby("shard", sort=True).size()
        return pd.DataFrame({
            "_first_doc": np.int64(b["doc_id"].iloc[0]),
            "_first_shard": np.int64(b["shard"].iloc[0]),
            "_first_skey": np.int64(b["skey"].iloc[0]),
            "shard": g.index.to_numpy(np.int64),
            "cnt": g.to_numpy(np.int64),
        })

    sums = (s.map_batches(summarize, batch_format="pandas", batch_size=None)
             .to_pandas())
    # blocks are disjoint ranges of the global sort, so their FIRST
    # (shard, skey, doc_id) keys order them; doc_id uniqueness makes the
    # block tag collision-free
    sums = sums.sort_values(["shard", "_first_shard", "_first_skey",
                             "_first_doc"])
    sums["start"] = (sums.groupby("shard")["cnt"].cumsum()
                     - sums["cnt"]).astype("int64")
    pre = {(int(fd), int(sh)): int(st)
           for fd, sh, st in zip(sums["_first_doc"], sums["shard"],
                                 sums["start"])}
    pre_ref = ray.put(pre)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"shard": pd.Series([], dtype="int64"),
                                 "n_docs": pd.Series([], dtype="int64"),
                                 "sum_chars": pd.Series([], dtype="int64"),
                                 "xor": pd.Series([], dtype="int64")})
        P = ray.get(pre_ref)
        first = int(b["doc_id"].iloc[0])
        shard = b["shard"].to_numpy(np.int64)
        d = b["doc_id"].to_numpy(np.int64).astype(np.uint64)
        chars = b["n_chars"].to_numpy(np.int64)
        # in-block rank within shard: stream is sorted by shard first
        bounds = np.flatnonzero(np.diff(shard)) + 1
        seg = np.concatenate([[0], bounds])
        lens = np.diff(np.concatenate([seg, [len(b)]]))
        local = np.arange(len(b), dtype=np.int64) - np.repeat(seg, lens)
        starts = np.repeat(
            np.array([P[(first, int(shard[i]))] for i in seg],
                     dtype=np.int64), lens)
        rank = (local + starts).astype(np.uint64)
        with np.errstate(over="ignore"):
            term = ((rank + np.uint64(1)) * ((d * _FNV) | np.uint64(1))) & _M63
        out_rows = {"shard": [], "n_docs": [], "sum_chars": [], "xor": []}
        for i, st in enumerate(seg):
            en = st + lens[i]
            out_rows["shard"].append(int(shard[st]))
            out_rows["n_docs"].append(int(lens[i]))
            out_rows["sum_chars"].append(int(chars[st:en].sum()))
            out_rows["xor"].append(
                int(np.bitwise_xor.reduce(term[st:en])))
        return pd.DataFrame({k: pd.Series(v, dtype="int64")
                             for k, v in out_rows.items()})

    part = (s.map_batches(partials, batch_format="pandas", batch_size=None)
             .to_pandas())  # blocks x shards-in-block rows: metadata scale
    agg = part.groupby("shard", sort=True).agg(
        n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"),
        checksum=("xor", lambda v: int(np.bitwise_xor.reduce(
            v.to_numpy(np.int64)))))
    out = agg.reset_index()
    out["checksum"] = out["checksum"].astype("int64")
    return out


# ------------------------------------------------------- sequence packing


def pack_sequences(docs: rd.Dataset, window: int = WINDOW_TOKENS) -> pd.DataFrame:
    """Greedy sequence packing for pretraining: concatenate documents in
    doc_id order and cut fixed ``window``-token training sequences.
    Returns per doc: its token count, global start-token offset, and the
    window the doc STARTS in — the packing plan a tokenizer-sharder
    executes. The global running offset is the distributed prefix scan
    (windows.ordered_scan); nothing corpus-scale touches the driver."""
    from .windows import ordered_scan

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        toks = [len(t.split()) if isinstance(t, str) else 0
                for t in b["text"]]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_tokens": pd.Series(toks, dtype="int64"),
        })

    scanned = ordered_scan(
        docs.map_batches(prep, batch_format="pandas", batch_size=8192),
        "doc_id", sum_cols=("n_tokens",))

    def plan(b: pd.DataFrame) -> pd.DataFrame:
        start = (b["run_n_tokens"] - b["n_tokens"]).astype("int64")
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_tokens": b["n_tokens"].astype("int64"),
            "start_tok": start,
            "window_id": (start // window).astype("int64"),
        })

    out = scanned.map_batches(plan, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------------------------------------- decontamination


def _eval_snippets(docs: rd.Dataset, every: int, skip: int,
                   n_words: int) -> list[tuple[int, str]]:
    """Deterministic stand-in benchmark: every ``every``-th doc donates
    words [skip, skip+n_words) as an eval snippet. In production this is
    the real benchmark file; either way it is the SMALL side."""

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        sel = b[b["doc_id"] % every == 0]
        ids, snips = [], []
        for i, t in zip(sel["doc_id"], sel["text"]):
            w = (t or "").split()
            if len(w) >= skip + n_words:
                ids.append(int(i))
                snips.append(" ".join(w[skip:skip + n_words]))
        return pd.DataFrame({"eval_id": pd.Series(ids, dtype="int64"),
                             "snippet": pd.Series(snips, dtype=str)})

    sm = docs.map_batches(pick, batch_format="pandas").to_pandas()
    return list(zip(sm["eval_id"], sm["snippet"]))


def decontaminate(docs: rd.Dataset, every: int = 97, skip: int = 3,
                  n_words: int = 8) -> pd.DataFrame:
    """Benchmark decontamination: flag corpus documents whose text
    contains any eval-set snippet (exact n-word overlap — the standard
    pretraining hygiene check). Snippet set is broadcast once
    (ray.put); the scan is a vectorized pandas str.contains per snippet,
    OR-reduced. Returns (doc_id, n_hits) for contaminated docs only."""
    snippets = _eval_snippets(docs, every, skip, n_words)
    ref = ray.put([s for _, s in snippets])

    def scan(b: pd.DataFrame) -> pd.DataFrame:
        snips = ray.get(ref)
        # snippets are single-spaced (built from split()); normalize the
        # haystack the same way so irregular whitespace can't hide a hit
        text = (b["text"].fillna("")
                .str.replace(_WS_RE.pattern, " ", regex=True))
        hits = np.zeros(len(b), dtype="int64")
        for s in snips:
            hits += text.str.contains(s, regex=False).to_numpy()
        sel = hits > 0
        return pd.DataFrame({
            "doc_id": b["doc_id"][sel].astype("int64"),
            "n_hits": hits[sel],
        })

    out = docs.map_batches(scan, batch_format="pandas",
                           batch_size=8192).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _eval_window_hash_set(docs: rd.Dataset, every: int,
                          window: int) -> np.ndarray:
    """Sorted distinct uint64 W-window hashes of the eval-set docs
    (doc_id % every == 0 — the deterministic stand-in benchmark; in
    production the real benchmark files). The eval side is SMALL by
    construction (eval suites are 10^4-10^5 snippets even against a
    web-scale corpus), so collecting its distinct hashes to the driver
    and re-broadcasting one sorted array is the scale-correct shape —
    same rationale as decontaminate's snippet broadcast."""

    def hs(b: pd.DataFrame) -> pd.DataFrame:
        sel = b[b["doc_id"] % every == 0]
        gh, _doc_idx, _pos = hashing.batch_window_hashes(
            sel["text"].tolist(), window)
        return pd.DataFrame({"h": np.unique(gh)})

    parts = docs.map_batches(hs, batch_format="pandas").to_pandas()
    if "h" not in parts.columns:  # all-empty result loses its schema
        return np.empty(0, np.uint64)
    return np.unique(parts["h"].to_numpy().astype(np.uint64))


def decontaminate_overlap(docs: rd.Dataset, every: int = 29,
                          window: int = 5) -> pd.DataFrame:
    """Fuzzy benchmark decontamination (the PaLM / GPT-3 appendix-C
    recipe shape): score each corpus document by how many of its W-word
    windows appear ANYWHERE in the eval set, instead of exact snippet
    containment — catches near-verbatim contamination that small edits
    or interleaving hide from `decontaminate`.

    One streaming corpus pass probes the broadcast sorted eval-hash
    array (searchsorted, vectorized; hash-only — no gram strings).
    Returns (doc_id, n_windows, n_hit, overlap_permille) for non-eval
    docs with >= 1 hit; permille is floor-integer so the DuckDB twin is
    value-exact."""
    ref = ray.put(_eval_window_hash_set(docs, every, window))

    def scan(b: pd.DataFrame) -> pd.DataFrame:
        hashes = ray.get(ref)
        sel = b[b["doc_id"] % every != 0]
        gh, doc_idx, _pos = hashing.batch_window_hashes(
            sel["text"].tolist(), window)
        n = len(sel)
        n_win = np.bincount(doc_idx, minlength=n).astype(np.int64)
        if len(hashes) == 0:  # no eval windows anywhere
            hit = np.zeros(len(gh), dtype=bool)
        else:
            idx = np.searchsorted(hashes, gh)
            hit = (idx < len(hashes)) & (
                hashes[np.minimum(idx, len(hashes) - 1)] == gh)
        n_hit = np.bincount(doc_idx[hit], minlength=n).astype(np.int64)
        keep = n_hit > 0
        return pd.DataFrame({
            "doc_id": sel["doc_id"].to_numpy()[keep].astype("int64"),
            "n_windows": n_win[keep],
            "n_hit": n_hit[keep],
            "overlap_permille": n_hit[keep] * 1000 // n_win[keep],
        })

    out = (docs.map_batches(scan, batch_format="pandas",
                            batch_size=4096).to_pandas()
           # reindex: an all-empty result loses its schema in to_pandas
           .reindex(columns=["doc_id", "n_windows", "n_hit",
                             "overlap_permille"]))
    return out.sort_values("doc_id").reset_index(drop=True)


# ----------------------------------------------------------- PII scrub


def inject_pii(doc_id: int, text: str) -> str:
    """Deterministically plant 1 + doc_id%3 PII tokens (email, phone,
    IPv4 round-robin) between words — synthetic-source stand-in so the
    scrub is oracle-checkable as a round-trip."""
    w = (text or "").split()
    n = 1 + doc_id % 3
    fakes = [
        f"user{doc_id}@example.com",
        f"({100 + doc_id % 900:03d}) 555-{doc_id % 10000:04d}",
        f"10.{doc_id % 256}.0.{(doc_id * 7) % 256}",
    ]
    for k in range(n):
        pos = 0 if not w else ((doc_id + 1) * (k + 1)) % (len(w) + 1)
        w.insert(pos, fakes[k % 3])
    return " ".join(w)


def pii_scrub_stage(b: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, dirty) -> (doc_id, scrubbed, n_redactions): remove PII
    matches, re-normalize whitespace. Vectorized str.count/str.replace."""
    dirty = b["dirty"].fillna("")
    n = dirty.str.count(_PII_RE.pattern).astype("int64")
    clean = (dirty.str.replace(_PII_RE.pattern, "", regex=True)
             .str.replace(_WS_RE.pattern, " ", regex=True).str.strip())
    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "scrubbed": clean,
        "n_redactions": n,
    })


def pii_scrub(docs: rd.Dataset) -> pd.DataFrame:
    """Round-trip: inject deterministic PII, scrub it back out. The
    scrubbed text must equal the whitespace-normalized source and the
    redaction count must equal the planted count (1 + doc_id%3)."""

    def dirty(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "dirty": [inject_pii(int(i), t)
                      for i, t in zip(b["doc_id"], b["text"])],
        })

    out = (docs.map_batches(dirty, batch_format="pandas", batch_size=8192)
           .map_batches(pii_scrub_stage, batch_format="pandas",
                        batch_size=8192)
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


# ------------------------------------------------- weighted sampling


def sample_by_source(docs: rd.Dataset, base_pct: int = 20) -> pd.DataFrame:
    """Deterministic weighted downsampling for corpus mixing: each
    source keeps ``base_pct + 5 * len(source)`` percent of its docs,
    selected by a stable hash permutation of doc_id (reproducible across
    runs and workers — the property reservoir sampling lacks). Stateless
    per-batch filter + metadata-scale grouped summary; no shuffle of
    the kept rows themselves."""

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        h = (b["doc_id"].to_numpy("int64") * 2654435761) % 4294967296 % 100
        quota = (base_pct + 5 * b["source"].str.len()).to_numpy("int64")
        sel = b[h < quota]
        return pd.DataFrame({
            "source": sel["source"].astype(str),
            "kept": np.ones(len(sel), dtype="int64"),
            "kept_chars": sel["n_chars"].to_numpy("int64"),
        })

    from .relational import grouped_agg

    g = grouped_agg(
        docs.map_batches(pick, batch_format="pandas", batch_size=8192),
        ["source"], sums=["kept_chars"])
    out = pd.DataFrame({
        "source": g["source"].astype(str),
        "n_kept": g["n"].astype("int64"),
        "kept_chars": g["sum_kept_chars"].astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


# ------------------------------------------------------- text chunking


def chunk_documents(docs: rd.Dataset, size: int = 200,
                    overlap: int = 50) -> rd.Dataset:
    """Fixed-size character chunking with overlap (the RAG/embedding
    prep step): chunk i covers [i*(size-overlap), i*(size-overlap)+size)
    of the whitespace-normalized text; emission continues while the
    start is inside the text (empty docs get one empty chunk so
    rows-in/rows-out accounting holds). Stateless flat map, no
    shuffle."""
    assert overlap < size
    step = size - overlap

    def f(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, starts, chunks = [], [], [], []
        for i, t in zip(b["doc_id"], b["text"]):
            t = _WS_RE.sub(" ", t or "").strip()
            n = len(t)
            j = 0
            while j == 0 or j * step < n:
                s = j * step
                ids.append(int(i))
                idxs.append(j)
                starts.append(s)
                chunks.append(t[s:s + size])
                j += 1
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "chunk_idx": pd.Series(idxs, dtype="int64"),
            "start": pd.Series(starts, dtype="int64"),
            "chunk": pd.Series(chunks, dtype=str),
        })

    return docs.map_batches(f, batch_format="pandas", batch_size=8192)


# ------------------------------------------------------ tier extraction


TIER_RATES = (5, 15, 40, 80, 100)  # percent kept per tier, worst -> best


def tier_extract(docs: rd.Dataset, rates: tuple = TIER_RATES
                 ) -> pd.DataFrame:
    """Quality-tier corpus extraction (the FineWeb-style curation
    primitive): per-source percent-rank of document quality (n_chars,
    the same SQL-exact score quality_percentile uses) bins every doc
    into ``len(rates)`` tiers, and each tier keeps a deterministic
    hash-selected fraction — extract most of the best tier, a sliver of
    the worst. Returns per (source, tier): doc count, kept count, kept
    chars.

    One source-keyed ``partition_map`` (sources are partition-complete,
    so ranks and the per-(source, tier) aggregate finalize inside the
    partition); membership is the stable Knuth permutation of doc_id
    (reproducible across runs/workers, like sample_by_source). Driver
    sees only the sources x tiers summary."""
    n_tiers = len(rates)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("source")["n_chars"].rank(method="min")
        n = g.groupby("source")["n_chars"].transform("size")
        pr = np.where(n > 1, (r - 1) / (n - 1), 0.0)
        tier = np.minimum((pr * n_tiers).astype(np.int64), n_tiers - 1)
        h = (g["doc_id"].to_numpy("int64") * 2654435761) % 4294967296 % 100
        kept = h < np.asarray(rates, dtype=np.int64)[tier]
        chars = g["n_chars"].to_numpy("int64")
        df = pd.DataFrame({
            "source": g["source"].astype(str),
            "tier": tier,
            "kept": kept.astype("int64"),
            "kc": np.where(kept, chars, 0),
        })
        agg = (df.groupby(["source", "tier"], as_index=False)
                 .agg(n_docs=("kept", "size"), n_kept=("kept", "sum"),
                      kept_chars=("kc", "sum")))
        return pd.DataFrame({
            "source": agg["source"], "tier": agg["tier"].astype("int64"),
            "n_docs": agg["n_docs"].astype("int64"),
            "n_kept": agg["n_kept"].astype("int64"),
            "kept_chars": agg["kept_chars"].astype("int64")})

    out = partition_map(docs, "source", per_part).to_pandas()
    return out.sort_values(["source", "tier"]).reset_index(drop=True)


# ----------------------------------------------------- C4 line cleaning

_C4_STRIP = " \t\r\x0b\x0c"  # shared with the SQL twin (no \n: separator)


def c4_clean(docs: rd.Dataset) -> rd.Dataset:
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2) — the
    classic web-text scrubber, spec'd deterministically so the DuckDB
    twin is exact:

      line kept iff (after strip): ends in terminal punctuation
      (. ! ? \"), has >= 5 whitespace words, and does not contain
      'javascript' (case-insensitive);
      doc kept iff: >= 3 kept lines and the full lowercased text
      contains neither 'lorem ipsum' nor '{'.

    Emits one row per input doc (kept flag + cleaned text, '' when
    dropped) so corpus accounting is lossless. Stateless per-doc map
    over an exploded line frame — no shuffle."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        n = len(b)
        text = b["text"].fillna("")
        if n == 0:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_lines": pd.Series([], dtype="int64"),
                "n_kept_lines": pd.Series([], dtype="int64"),
                "kept": pd.Series([], dtype="int64"),
                "clean_text": pd.Series([], dtype=str)})
        lines = text.str.split("\n")
        n_lines = lines.map(len).to_numpy(np.int64)
        le = lines.explode().dropna()
        lidx = le.index.to_numpy(np.int64)
        lt = le.str.strip(_C4_STRIP)
        keep = (lt.str.contains(r'[.!?"]$', regex=True)
                & (lt.str.split().map(len) >= 5)
                & ~lt.str.lower().str.contains("javascript", regex=False)
                ).to_numpy()
        n_kept = np.bincount(lidx[keep], minlength=n).astype(np.int64)
        kept_lines = pd.Series(lt.to_numpy()[keep], index=lidx[keep])
        joined = kept_lines.groupby(level=0).agg("\n".join)
        clean = np.full(n, "", dtype=object)
        clean[joined.index.to_numpy(np.int64)] = joined.to_numpy()
        low = text.str.lower()
        doc_ok = ((n_kept >= 3)
                  & ~low.str.contains("lorem ipsum", regex=False).to_numpy()
                  & ~low.str.contains("{", regex=False).to_numpy())
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_lines": n_lines,
            "n_kept_lines": n_kept,
            "kept": doc_ok.astype("int64"),
            "clean_text": pd.Series(np.where(doc_ok, clean, ""), dtype=str),
        })

    return docs.map_batches(f, batch_format="pandas", batch_size=65536)


# --------------------------------------------------- corpus mixing


def mix_corpus(docs: rd.Dataset, budget_pct: int = 50) -> pd.DataFrame:
    """Corpus mixing to a UNIFORM target over sources under a global
    char budget (the data-mixture rebalancing step: oversampled sources
    are cut hard, rare sources kept whole). Each source's keep percent
    is

        pct_s = min(100, (budget_pct * total_chars) // (n_sources * chars_s))

    — integer arithmetic end-to-end so the DuckDB twin is exact —
    and membership is the stable Knuth permutation of doc_id
    (reproducible across runs/workers, like sample_by_source).

    Scale shape: pass 1 is a metadata-scale per-source char aggregate;
    the per-source pct dict (sources are few) is a broadcast small
    side; pass 2 is a stateless filter + metadata-scale summary. No
    corpus-scale shuffle, no driver materialization."""
    from .relational import grouped_agg

    sizes = grouped_agg(docs.select_columns(["source", "n_chars"]),
                        ["source"], sums=["n_chars"])
    cs = sizes.set_index("source")["sum_n_chars"].astype("int64")
    total = int(cs.sum())
    ns = len(cs)
    pct = np.minimum(100, (budget_pct * total) // (ns * cs.to_numpy()))
    pct_by_source = dict(zip(cs.index, pct.astype(np.int64)))

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        h = (b["doc_id"].to_numpy("int64") * 2654435761) % 4294967296 % 100
        quota = b["source"].map(pct_by_source).to_numpy("int64")
        sel = b[h < quota]
        return pd.DataFrame({
            "source": sel["source"].astype(str),
            "kept_chars": sel["n_chars"].to_numpy("int64"),
        })

    g = grouped_agg(
        docs.map_batches(pick, batch_format="pandas", batch_size=8192),
        ["source"], sums=["kept_chars"]).set_index("source")
    out = pd.DataFrame({
        "source": cs.index,
        "pct": [int(pct_by_source[s]) for s in cs.index],
        "n_kept": [int(g["n"].get(s, 0)) for s in cs.index],
        "kept_chars": [int(g["sum_kept_chars"].get(s, 0))
                       for s in cs.index],
    })
    return out.sort_values("source").reset_index(drop=True)


def url_table(docs: rd.Dataset, batch_size: int = 8192) -> rd.Dataset:
    """Per-doc URL curation record (C4/RefinedWeb-style URL filtering):
    synthesize the deterministic URL (sources/urlgen.py — a real crawl
    supplies its own url column instead), then parse/normalize it with
    the from-scratch kernels in functions/urlx.py. Stateless per-doc
    map, no shuffle; string work is metadata-scale (URLs, not bodies),
    so the per-row Python is bounded by URL length, not doc length."""
    from ..functions import urlx
    from ..sources.urlgen import doc_url

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        urls = [doc_url(int(i), s)
                for i, s in zip(b["doc_id"], b["source"])]
        feats = [urlx.url_features(u) for u in urls]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "url": pd.Series(urls, dtype=str),
            "scheme": pd.Series([f["scheme"] for f in feats], dtype=str),
            "host": pd.Series([f["host"] for f in feats], dtype=str),
            "domain": pd.Series([f["domain"] for f in feats], dtype=str),
            "norm_url": pd.Series([f["norm_url"] for f in feats],
                                  dtype=str),
            "path_depth": pd.Series([f["path_depth"] for f in feats],
                                    dtype="int64"),
            "n_params": pd.Series([f["n_params"] for f in feats],
                                  dtype="int64"),
            "blocked": pd.Series([f["blocked"] for f in feats],
                                 dtype=bool),
        })

    return docs.map_batches(stage, batch_format="pandas",
                            batch_size=batch_size)


def robots_gate(doc_ids, sources, user_agent: str = "graftbot",
                matchers: dict | None = None
                ) -> tuple[list[str], list[bool]]:
    """THE politeness rule, in one place: per-doc URL path resolution +
    RFC 9309 longest-match evaluation against the source's robots.txt.
    Returns (paths, allowed) aligned with the inputs.  Every pipeline
    that gates on robots (``robots_filter``, the ``warc_curate``
    flagship) calls this, so a change to the rule — the agent string,
    crawl-delay handling — can never silently diverge between them.
    Pass a worker-lifetime dict as ``matchers`` to memoize compiled
    per-source Matchers (robots bodies are domain-scale)."""
    from ..functions import robotsx, urlx
    from ..sources.urlgen import doc_url, robots_txt

    if matchers is None:
        matchers = {}
    paths, allowed = [], []
    for i, s in zip(doc_ids, sources):
        m = matchers.get(s)
        if m is None:
            m = robotsx.Matcher(robotsx.parse_robots(robots_txt(s)),
                                user_agent)
            matchers[s] = m
        p = urlx.parse_url(doc_url(int(i), s))
        path = urlx.resolve_dot_segments(p["path"] or "/")
        paths.append(path)
        allowed.append(m.is_allowed(path))
    return paths, allowed


def robots_filter(docs: rd.Dataset, user_agent: str = "graftbot",
                  batch_size: int = 8192) -> rd.Dataset:
    """Crawl-politeness gate: evaluate each doc's URL path against its
    source's robots.txt (functions/robotsx.py, RFC 9309 longest-match
    semantics) for ``user_agent``.

    Scale shape: robots bodies are domain-scale — each batch parses a
    source's file ONCE into a compiled Matcher and caches it for the
    life of the worker (process-level memo), so per-row work is one
    regex scan over a URL path. Stateless map, no shuffle."""
    matchers: dict = {}

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        paths, allowed = robots_gate(b["doc_id"], b["source"],
                                     user_agent, matchers)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "path": pd.Series(paths, dtype=str),
            "allowed": pd.Series(allowed, dtype=bool),
        })

    return docs.map_batches(stage, batch_format="pandas",
                            batch_size=batch_size)


def domain_stats(docs: rd.Dataset) -> pd.DataFrame:
    """Registered-domain rollup of the URL table (the blocklist-audit
    view): docs per domain, blocked count, max path depth. One
    domain-keyed grouped aggregation; partial aggregation happens
    inside grouped_agg's batch combiner."""
    from .relational import grouped_agg

    tbl = url_table(docs)
    out = grouped_agg(tbl, ["domain"], sums=["blocked"],
                      maxs=["path_depth"])
    return pd.DataFrame({
        "domain": out["domain"],
        "n_docs": out["n"].astype("int64"),
        "n_blocked": out["sum_blocked"].astype("int64"),
        "max_depth": out["max_path_depth"].astype("int64"),
    }).sort_values("domain").reset_index(drop=True)


def web_curate(docs: rd.Dataset) -> pd.DataFrame:
    """Composed round-3 curation flagship — the classic web-pipeline
    chain, each link an operator this engine ships separately:

      1. render + jusText gate: keep docs whose wrapped page has >= 2
         substantial main-content blocks (context-free neargood+good,
         i.e. paragraph chunks >= 40 chars — extract.justext_stage);
      2. URL blocklist: drop docs whose registered domain is on the
         UT1-style list (curate.url_table);
      3. exact dedup on the whitespace-normalized text, min-doc_id
         keeper (dedup.exact_dedup's hash-bucket shuffle);
      4. per-source rollup: total docs, survivors, surviving chars.

    Scale shape: two stateless map legs joined on doc_id metadata (a
    doc-keyed bucket_join of flag-sized rows), one content-hash dedup
    shuffle over only the gate survivors, one bounded grouped agg.
    Entirely oracle-expressible — every stage has a SQL twin."""
    import pyarrow as pa

    from ..functions import urlx
    from ..sources.urlgen import doc_url
    from ..sources.webgen import wrap_html
    from .dedup import exact_dedup
    from .extract import justext_stage
    from .relational import bucket_join, grouped_agg

    # leg A: render + jusText gate flags + normalized text (per-doc map)
    def gate(b: pd.DataFrame) -> pd.DataFrame:
        html = [wrap_html(int(i), t if isinstance(t, str) else "")
                for i, t in zip(b["doc_id"], b["text"])]
        jt = justext_stage(pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"), "html": html}))
        norm = (b["text"].fillna("").str.split().str.join(" "))
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "norm_text": norm.astype(object),
            "n_subst": (jt["n_neargood"] + jt["n_good"]).to_numpy(np.int64),
        })

    gated = docs.drop_columns(["source"]).map_batches(
        gate, batch_format="pandas", batch_size=256)

    # leg B: blocklist flags (metadata-scale strings)
    def blocked(b: pd.DataFrame) -> pd.DataFrame:
        dom = [urlx.registered_domain(
            urlx.parse_url(doc_url(int(i), s))["host"])
            for i, s in zip(b["doc_id"], b["source"])]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"].astype(object),
            "blocked": pd.Series(
                [d in urlx.BLOCKED_DOMAINS for d in dom], dtype=bool),
        })

    flags = docs.map_batches(blocked, batch_format="pandas",
                             batch_size=65536)

    joined = bucket_join(
        gated, flags, left_on="doc_id", right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("norm_text", pa.string()),
                               ("n_subst", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("source", pa.string()),
                                ("blocked", pa.bool_())]))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        m = (~b["blocked"].to_numpy(bool)) \
            & (b["n_subst"].to_numpy(np.int64) >= 2)
        out = b.loc[m, ["doc_id", "source", "norm_text"]].copy()
        return out

    kept = exact_dedup(joined.map_batches(keep, batch_format="pandas"),
                       text_col="norm_text", id_col="doc_id")

    def chars(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["n_chars"] = b["norm_text"].str.len().astype("int64")
        return b[["source", "n_chars"]]

    surv = grouped_agg(kept.map_batches(chars, batch_format="pandas"),
                       ["source"], sums=["n_chars"])
    tot = grouped_agg(docs, ["source"])
    out = tot.merge(surv, on="source", how="left",
                    suffixes=("_tot", "_kept"))
    return pd.DataFrame({
        "source": out["source"],
        "n_docs": out["n_tot"].astype("int64"),
        "n_kept": out["n_kept"].fillna(0).astype("int64"),
        "kept_chars": out["sum_n_chars"].fillna(0).astype("int64"),
    }).sort_values("source").reset_index(drop=True)


def span_corruption(docs: rd.Dataset, chunk: int = 20, span: int = 3
                    ) -> rd.Dataset:
    """T5-style span corruption (Raffel 2020 §3.1.4 shape): per doc,
    deterministic token spans are replaced by numbered sentinels in the
    encoder input and emitted after the matching sentinel in the
    decoder target. LOSSLESS: interleaving input and target around the
    sentinels reconstructs the original token stream exactly (pinned by
    the round-trip test).

    Span placement is the vectorizable chunk scheme: the token stream
    splits into fixed ``chunk``-token windows and each window masks one
    ``span``-token run at offset hash(doc_id, window) % (chunk - span)
    — non-overlapping by construction, mask rate span/chunk (15% at
    3/20), no per-doc sequential sampling. The whole batch is flattened
    once (token, doc-index, position) and masked with pure numpy; only
    the final string assembly is a groupby join. Sentinels are
    ``<extra_id_K>`` numbered per doc in order."""
    from ..functions import hashing

    def f(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        lens = toks.map(len).to_numpy(np.int64)
        n = len(b)
        didx = np.repeat(np.arange(n, dtype=np.int64), lens)
        words = (np.concatenate([np.asarray(t, dtype=object)
                                 for t in toks if len(t)])
                 if lens.sum() else np.array([], dtype=object))
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:]) if n > 1 else None
        pos = np.arange(len(words), dtype=np.int64) - starts[didx]
        win = pos // chunk
        within = pos - win * chunk
        # a window shorter than chunk at the doc tail masks nothing
        # unless a full span fits from its hashed offset
        doc_ids = b["doc_id"].to_numpy()
        key = np.char.add(np.char.add(doc_ids[didx].astype("U"), "\x1f"),
                          win.astype("U"))
        h = hashing.hash_strings(key.astype(object))
        off = (h % np.uint64(chunk - span)).astype(np.int64)
        masked = (within >= off) & (within < off + span)
        # last (partial) window: only mask if the span fits entirely
        win_len = np.minimum(lens[didx] - win * chunk, chunk)
        masked &= (off + span) <= win_len
        sent_first = masked & (within == off)

        # per-doc sentinel numbering without a doc loop: global cumsum
        # minus each doc's starting offset
        c = np.cumsum(sent_first)
        doc_base = np.zeros(n, dtype=np.int64)
        if len(c):
            doc_base = c[starts] - sent_first[starts]
        sid = c - (doc_base[didx] if len(c) else 0) - 1
        sent_str = np.array([], dtype=object)
        if sent_first.any():
            sent_str = np.array(
                [f"<extra_id_{k}>" for k in sid[sent_first]], dtype=object)

        # encoder input: unmasked tokens, span starts swapped for their
        # sentinel (pure index ops + one groupby join)
        tok_in = words.copy()
        tok_in[sent_first] = sent_str
        keep = ~masked | sent_first
        inp = (pd.Series(tok_in[keep])
               .groupby(didx[keep]).agg(" ".join))

        # decoder target: sentinel entries (sort key 2*pos) interleaved
        # with masked words (2*pos + 1), one stable sort + join
        t_doc = np.concatenate([didx[sent_first], didx[masked]])
        t_key = np.concatenate([2 * pos[sent_first],
                                2 * pos[masked] + 1])
        t_tok = np.concatenate([sent_str, words[masked]])
        order = np.lexsort((t_key, t_doc))
        tgt = (pd.Series(t_tok[order])
               .groupby(t_doc[order]).agg(" ".join))

        all_docs = pd.RangeIndex(n)
        n_spans = np.bincount(didx[sent_first], minlength=n) \
            if len(didx) else np.zeros(n, dtype=np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "input_text": inp.reindex(all_docs, fill_value="").to_numpy(),
            "target_text": tgt.reindex(all_docs, fill_value="").to_numpy(),
            "n_spans": n_spans.astype("int64"),
        })

    return docs.map_batches(f, batch_format="pandas", batch_size=8192)


def span_corruption_restore(input_text: str, target_text: str) -> str:
    """Inverse of span_corruption for one example: splice each
    sentinel's target tokens back into the input (the round-trip
    invariant's other half)."""
    import re

    spans = {}
    cur = None
    for tok in target_text.split():
        m = re.fullmatch(r"<extra_id_(\d+)>", tok)
        if m:
            cur = int(m.group(1))
            spans[cur] = []
        else:
            spans[cur].append(tok)
    out = []
    for tok in input_text.split():
        m = re.fullmatch(r"<extra_id_(\d+)>", tok)
        if m:
            out.extend(spans.get(int(m.group(1)), []))
        else:
            out.append(tok)
    return " ".join(out)


# ------------------------------------------- multi-pattern blocklist


def blocklist_scan(docs: rd.Dataset, patterns: "list[str]") -> pd.DataFrame:
    """Multi-pattern blocklist scan (the C4/CCNet bad-words filter
    stage): count EVERY occurrence start of every pattern (overlapping
    starts included — 'a a' hits twice in 'a a a') and aggregate per
    (source, pattern) into docs_hit / n_occ.

    Distributed shape: the pattern list is tiny and rides the task
    closure; each batch scans its own bytes and emits a bounded
    sources x patterns partial — NO shuffle, driver combine is
    partials-scale. The scan is one vectorized sliding-window byte
    comparison per pattern over the batch's concatenated UTF-8 text
    (0x00 separators: a window crossing a doc boundary contains the
    separator byte and can never equal a pattern, so no cross-doc
    false hits; byte-level equality == character-level equality
    because UTF-8 is self-synchronizing). Exact all-starts semantics
    match the SQL twin's position enumeration.

    10^4+-pattern scale path: swap the per-pattern sliding windows for
    one Aho-Corasick automaton held in an actor pool (build in
    __init__, stream the same byte buffer through it); the output
    contract and combine are unchanged.
    """
    pats = sorted(set(patterns))
    if not pats or any("\x00" in p or not p for p in pats):
        raise ValueError("blocklist_scan: patterns must be non-empty "
                         "and NUL-free")
    pat_bytes = [np.frombuffer(p.encode(), np.uint8) for p in pats]

    def scan(b: pd.DataFrame) -> pd.DataFrame:
        enc = [t.encode() if isinstance(t, str) else b""
               for t in b["text"].tolist()]
        lens = np.fromiter((len(e) for e in enc), np.int64, len(enc))
        starts = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(lens + 1)])[:-1]
        big = np.frombuffer(b"\x00".join(enc), np.uint8)
        src = b["source"].to_numpy()
        frames = []
        for p, pb in zip(pats, pat_bytes):
            m = len(pb)
            if len(big) >= m:
                sw = np.lib.stride_tricks.sliding_window_view(big, m)
                hits = np.flatnonzero((sw == pb).all(axis=1))
            else:
                hits = np.empty(0, np.int64)
            cnt = np.bincount(
                np.searchsorted(starts, hits, "right") - 1,
                minlength=len(enc)).astype(np.int64)
            g = pd.DataFrame({"source": src, "pat": p, "n": cnt})
            g = g[g["n"] > 0]
            if len(g):
                agg = g.groupby(["source", "pat"], as_index=False).agg(
                    docs_hit=("n", "size"), n_occ=("n", "sum"))
                frames.append(agg)
        if not frames:
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "pat": pd.Series([], dtype=object),
                "docs_hit": pd.Series([], dtype="int64"),
                "n_occ": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    parts = docs.map_batches(scan, batch_format="pandas").to_pandas()
    if parts.empty:
        return parts
    out = parts.groupby(["source", "pat"], as_index=False).agg(
        docs_hit=("docs_hit", "sum"), n_occ=("n_occ", "sum"))
    out["docs_hit"] = out["docs_hit"].astype("int64")
    out["n_occ"] = out["n_occ"].astype("int64")
    return out.sort_values(["source", "pat"]).reset_index(drop=True)
