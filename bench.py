#!/usr/bin/env python
"""Benchmark harness. Every mode prints ONE JSON line.

  python bench.py                    # one in-process run: the OCR
                                     # flagship, the query subset, the
                                     # uw3 legs (when the tarball is
                                     # there) and the extraction leg
  python bench.py --scaling          # OCR leg at lo vs hi CPUs
  python bench.py --scaling-extract  # extraction leg at lo vs hi CPUs
  python bench.py --big              # spill regime at the host's CPUs
  python bench.py --leg LEG          # one leg of LEGS in this process

The headline run prints

  {"metric": "ocr_e2e_sec", "value": <sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "pages": P,
   "pages_per_sec": ..., "lines_per_sec": ..., "extract_*": ...}

Two environment variables set the run: GRAFT_SF_DIR, the scale-factor
directory (default sf0.1), and RAY_GRAFT_CPUS, the Ray CPU count
(default: the CPUs this process may run on). Every time is steal-free
(``perfbench.worker.measure``): the wall time less the share of CPU
time the hypervisor stole meanwhile.

The scaling modes run the leg at lo = max(1, hi // 4) and hi =
RAY_GRAFT_CPUS CPUs, each run in a fresh process and Ray session
(``run_level``), RUNS pairs in alternating order, and report per level
the median and the interquartile range (``*_iqr``) of every figure.
"""

import contextlib
import json
import os
import re
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

from perfbench.worker import measure  # noqa: E402

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
# N -> 4N scaling levels: 1 -> 4 on a 4-CPU host
LEVELS = (max(1, NUM_CPUS // 4), NUM_CPUS)
# pairs of runs per scaling mode, for a median and an IQR per level
RUNS = 5
# One page count for the headline and the scaling legs: 720 pages take
# about 50 s at 4 CPUs and 170 s at 1 CPU, so the session start (~2.4
# s, timed apart as session_sec) is ~5% of the hi level, and 5 pairs of
# --scaling take 20 min. 4x the pages would suit a 4x larger host.
BENCH_PAGES = 720
# One extraction size for the headline and --scaling-extract: 16
# copies of sf0.1's 5000 documents take about 25 s at 4 CPUs and 100 s
# at 1 CPU; 4 copies (9 s) are too short against the worker ramp.
EXTRACT_REPEAT = 16
# The spill legs of --big must outgrow their object store: 128 copies
# of the extracted corpus behind one all-to-all on a 500 MB store.
SPILL_REPEAT = 128
SPILL_STORE_MB = 500
# span dedup at the Bloom design point: 8 replicas, and a broadcast cap
# low enough that the Bloom bitmap + semi-join path carries the run
SPANDEDUP_REPEAT = 8
SPANDEDUP_MAX_BROADCAST = 100_000
# steady-state recognition leg: >= 2000 lines amortize the recognizer
# start (the 94-line held-out leg is ~40% start-up)
UW3_BIG_LINES = 2000
UW3_MODEL = os.path.join(REPO, "dup_ocropy_ray", "models", "uw3_model.npz")
UW3_LEGS = os.path.exists(UW3_MODEL) and os.path.exists(
    "/root/reference/tests/uw3-500.tgz")

QUERY_SUBSET = [
    "pricing_summary",
    "revenue_by_nation",
    "events_hourly",
    "dedup_exact",
    "dedup_ngram",
    "dedup_clusters",
    "dedup_minhash",
    "knn",
    "token_stats",
    "html_extract",
    "pdf_extract",
    "cer_pairs",
    "range_join",
    "value_quantiles",
    "join_revenue_priority",
    "strip_dup_spans",
    "heavy_hitters",
    "dedup_events_window",
    "shuffle_shards",
    "bigram_logprob",
    "tier_extract",
    "index_search",
    "salted_join_revenue",
    "rate_limit",
    "retention",
    "profile_table",
    "warc_curate",
    "html_markdown",
    "snapshot_diff",
    "source_overlap",
    "unigram_lm",
    "zorder_layout",
    "attribution",
    "typo_pairs",
    "coalesce_intervals",
    "interval_join",
    "gapfill_hourly",
    "max_concurrency",
    "pagerank",
    "phrase_search",
    "blocklist_scan",
    "stream_windows",
    "snm_pairs",
    "trigram_search",
    "frequent_pairs",
    "bootstrap_ci",
    "cetr_extract",
    "holt_forecast",
]


def build_bench_corpus() -> dict:
    """Deterministic OCR corpus from the sf documents table; cached by
    content key so repeated runs skip rendering."""
    import hashlib

    from dup_ocropy_ray.sources.fixtures import build_corpus, renderer_version

    key = hashlib.md5(
        f"{SF_DIR}:{BENCH_PAGES}:{renderer_version()}".encode()
    ).hexdigest()[:10]
    root = f"/tmp/bench_corpus_{key}"
    docs_path = os.path.join(root, "docs.parquet")
    if not os.path.exists(docs_path):
        import pyarrow.parquet as pq

        texts = pq.read_table(
            os.path.join(SF_DIR, "documents.parquet"), columns=["text"]
        ).column("text").to_pylist()
        # num_docs such that pages ≈ BENCH_PAGES (1 page/doc + 4-page skew doc)
        build_corpus(root, num_docs=BENCH_PAGES - 3, seed=42, texts=texts,
                     skew_doc_pages=4, include_edge_cases=False)
    return {"docs": docs_path, "media": os.path.join(root, "media.parquet")}


def build_uw3_big_corpus(n_lines: int = UW3_BIG_LINES) -> str:
    """Cached parquet of degrade_real-amplified REAL uw3 train lines
    (blur/noise/affine on the scans themselves — stays in the uw3 glyph
    distribution). Gives the recognition leg a steady-state denominator:
    the 94-line held-out leg is ~40% actor-pool startup."""
    import hashlib

    key = hashlib.md5(f"uw3big:{n_lines}:v1".encode()).hexdigest()[:10]
    path = f"/tmp/uw3_big_{key}.parquet"
    if os.path.exists(path):
        return path
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dup_ocropy_ray.functions import png as _png
    from dup_ocropy_ray.sources import linegen
    from dup_ocropy_ray.sources.uw3 import load_uw3_cached, split_uw3

    train, _ = split_uw3(load_uw3_cached())
    ids, pngs = [], []
    k = 0
    # 900_000 offset: disjoint from every training augmentation stream
    while len(ids) < n_lines and k < 4 * n_lines:
        rec = train[k % len(train)]
        try:
            img = linegen.degrade_real(rec["image"], 900_000 + k)
            if min(img.shape) >= 10 and (img < 0.5).any():
                ids.append(f"big-{k}")
                pngs.append(_png.encode_gray(img))
        except Exception:
            pass
        k += 1
    pq.write_table(pa.table({
        "line_id": pa.array(ids, pa.string()),
        "line_png": pa.array(pngs, pa.binary())}), path)
    return path


@contextlib.contextmanager
def session(object_store_mb: int = 0):
    """One Ray session of NUM_CPUS CPUs for the ``with`` block; yields
    its steal-free start-up seconds. ``object_store_mb`` shrinks the
    object store (the spill legs); 0 keeps Ray's default."""
    import ray
    from ray.data import DataContext

    kw = {"object_store_memory": object_store_mb << 20} if object_store_mb \
        else {}
    _, _, sec = measure(lambda: ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR", **kw))
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    try:
        yield round(sec, 3)
    finally:
        ray.shutdown()


def spill_counters() -> dict:
    """Cumulative spill/restore counters of this session, from the
    running "Spilled N MiB, M objects" lines of its raylet log. Ray's
    own figures (``global_bytes_spilled``, "Spilled to disk" in
    ``Dataset.stats()``) come from ``get_memory_info_reply``
    (ray/data/_internal/plan.py), which needs the grpc package; without
    it they stay 0."""
    import ray._private.worker as _w

    log = os.path.join(_w._global_node.get_session_dir_path(), "logs",
                       "raylet.out")
    try:
        with open(log, errors="replace") as f:
            txt = f.read()
    except OSError:
        txt = ""
    sp = re.findall(r"Spilled (\d+) MiB, (\d+) objects", txt)
    rs = re.findall(r"Restored (\d+) MiB", txt)
    return {"spilled_mb": int(sp[-1][0]) if sp else 0,
            "spilled_objects": int(sp[-1][1]) if sp else 0,
            "restored_mb": int(rs[-1]) if rs else 0}


def run_ocr_leg() -> dict:
    """The flagship OCR pipeline (binarize→segment→recognize→reassemble)
    over the bench corpus."""
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    corpus = build_bench_corpus()
    # warm the page cache (untimed)
    read_docs(corpus["docs"]).count()
    media_ref = put_media_store(corpus["media"])
    df, _, sec = measure(lambda: ocr_pipeline(
        read_docs(corpus["docs"]), media_ref).to_pandas())
    pages = int(df["n_pages"].sum())
    lines = int(df["n_lines"].sum())
    return {"ocr_sec": round(sec, 3), "pages": pages, "lines": lines,
            "pages_per_sec": round(pages / sec, 2),
            "lines_per_sec": round(lines / sec, 2)}


def run_queries() -> dict:
    """Seconds of each QUERY_SUBSET query, result fetched."""
    import __ray_entry__ as e

    qs = e.queries()

    def run(name):
        res = qs[name](SF_DIR)
        if hasattr(res, "to_pandas"):
            res.to_pandas()

    return {name: round(measure(lambda: run(name))[2], 3)
            for name in QUERY_SUBSET}


def run_uw3_legs() -> dict:
    """The uw3-500 legs (the north star names a uw3-500-derived
    corpus): recognized lines/sec and CER over the reference's REAL
    held-out scan lines, then steady-state recognition over
    UW3_BIG_LINES real-derived lines through the production task-pool
    recognizer (the OCR flagship's recognize stage)."""
    import ray.data as rd

    from dup_ocropy_ray.pipelines.queries import q_uw3_cer
    from dup_ocropy_ray.sources.uw3 import load_uw3_cached
    from dup_ocropy_ray.stages.recognize import LineRecognizerTask

    load_uw3_cached()  # decode cache warm-up (untimed)
    cer_df, _, sec = measure(lambda: q_uw3_cer(SF_DIR))
    ok = cer_df[cer_df.rec_status == "ok"]
    ds = rd.read_parquet(build_uw3_big_corpus()).repartition(NUM_CPUS)
    n, _, big_sec = measure(lambda: ds.map_batches(
        LineRecognizerTask(model_path=UW3_MODEL), batch_size=32,
        batch_format="pyarrow").count())
    return {"uw3_lines": int(len(cer_df)), "uw3_sec": round(sec, 3),
            "uw3_lines_per_sec": round(len(cer_df) / sec, 2),
            "uw3_heldout_cer": round(
                float(ok.dist.sum() / max(1, ok.gt_len.sum())), 4),
            "uw3_big_lines": int(n), "uw3_big_sec": round(big_sec, 3),
            "uw3_big_lines_per_sec": round(n / big_sec, 2)}


def _read_documents():
    import ray.data as rd

    from dup_ocropy_ray.tuning import parquet_schema

    path = os.path.join(SF_DIR, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text"],
                         schema=parquet_schema(path, ["doc_id", "text"]))
    # the sf table is ONE parquet file -> few read blocks; fan the
    # per-doc work out across all workers before the map
    return ds.repartition(NUM_CPUS * 4)


def run_span_dedup_leg() -> dict:
    """Span-dedup at the Bloom design point: the documents table
    replicated SPANDEDUP_REPEAT x under DISTINCT doc ids (every window
    becomes corpus-duplicated, so the dup table outgrows any sane
    broadcast), with SPANDEDUP_MAX_BROADCAST forced low so the Bloom
    bitmap + semi-join verification path — not the sorted-array
    broadcast — carries the run. Reports throughput plus the actual
    broadcast bytes (must stay at the adaptive bitmap size, <= the
    256 MiB cap)."""
    from dup_ocropy_ray.pipelines.dedup import strip_dup_spans

    ds = _read_documents()

    def rep(b):
        import pandas as pd

        out = []
        for r in range(SPANDEDUP_REPEAT):
            out.append(pd.DataFrame({
                # 1e12 stride: no replica-id collision for any source
                # table with doc_id < 1e12 (int64-safe to repeat ~9e6)
                "doc_id": b["doc_id"].to_numpy() + r * 10 ** 12,
                "text": b["text"]}))
        return pd.concat(out, ignore_index=True)

    docs = ds.map_batches(rep, batch_format="pandas", batch_size=512)
    stats: dict = {}
    kept, _, sec = measure(lambda: strip_dup_spans(
        docs, window=8, min_docs=2, max_broadcast=SPANDEDUP_MAX_BROADCAST,
        stats=stats).count())
    n_docs = SPANDEDUP_REPEAT * ds.count()
    return {"span_dedup_sec": round(sec, 3),
            "span_dedup_docs": int(n_docs),
            "span_dedup_docs_per_sec": round(n_docs / sec, 2),
            "span_dedup_kept_docs": int(kept),
            "span_dedup_mode": stats.get("mode"),
            "span_dedup_broadcast_mb": round(
                stats.get("broadcast_bytes", 0) / 2**20, 1)}


def run_extract_leg(repeat: int = EXTRACT_REPEAT,
                    shuffle: bool = False) -> dict:
    """North-rule extraction flagship: documents -> interleaved
    (doc_id, spans) with the body as a kind='html' span -> full
    boilerplate-strip extraction -> span count. ``repeat`` replicates
    the table with distinct doc_id offsets (wrap_html varies chrome by
    doc_id, so replicas are distinct pages, not cache hits)."""
    import pyarrow as pa

    from dup_ocropy_ray.pipelines.extract import (
        _span_list_type, extract_interleaved)
    from dup_ocropy_ray.sources.webgen import wrap_html

    def to_docs(b) -> "pa.Table":
        ids, spans = [], []
        for i, t in zip(b["doc_id"], b["text"]):
            for r in range(repeat):
                d = int(i) + r * 1_000_000
                ids.append(f"doc-{d}")
                spans.append([
                    {"kind": "html", "text": wrap_html(d, t or ""),
                     "media_ref": None, "offset": 0},
                ])
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "spans": pa.array(spans, _span_list_type())})

    docs = _read_documents().map_batches(to_docs, batch_format="pandas",
                                         batch_size=128)

    def count(b: "pa.Table") -> "pa.Table":
        return pa.table({
            "docs": pa.array([b.num_rows], pa.int64()),
            "spans": pa.array(
                [len(b.column("spans").combine_chunks().flatten())],
                pa.int64())})

    def run():
        out = extract_interleaved(docs)
        if shuffle:
            # --big: one all-to-all over the EXTRACTED corpus. AllToAll
            # operators materialize their input in the object store, so
            # a store sized below the dataset forces the spill regime
            # the 100 TB target lives in.
            out = out.repartition(max(64, NUM_CPUS * 4))
        return out.map_batches(count, batch_format="pyarrow").to_pandas().sum()

    sums, _, sec = measure(run)
    n_docs, n_spans = int(sums["docs"]), int(sums["spans"])
    return {"extract_sec": round(sec, 3), "extract_docs": n_docs,
            "extract_spans": n_spans,
            "extract_docs_per_sec": round(n_docs / sec, 2)}


# leg -> (metric, its seconds key, object store MB or 0 for Ray's
# default, the leg)
LEGS = {
    "ocr": ("ocr_e2e_sec", "ocr_sec", 0, run_ocr_leg),
    "extract": ("extract_e2e_sec", "extract_sec", 0, run_extract_leg),
    "spill": ("extract_e2e_sec", "extract_sec", SPILL_STORE_MB,
              lambda: run_extract_leg(SPILL_REPEAT, shuffle=True)),
    "spandedup": ("span_dedup_sec", "span_dedup_sec", SPILL_STORE_MB,
                  run_span_dedup_leg),
}


def run_leg(leg: str) -> dict:
    """One leg in its own session of NUM_CPUS CPUs; the record that
    ``run_level`` reads back."""
    metric, sec_key, store_mb, fn = LEGS[leg]
    with session(store_mb) as session_sec:
        r = fn()
        if store_mb:
            r |= {"object_store_mb": store_mb, **spill_counters()}
    return {"metric": metric, "value": r[sec_key], "unit": "sec",
            "sf": SF_DIR, "num_cpus": NUM_CPUS, "session_sec": session_sec,
            **r}


def run_level(ncpu: int, leg: str) -> dict:
    """Runs ``bench.py --leg leg`` in a fresh process (and so a fresh
    Ray session) of ``ncpu`` CPUs; returns its JSON record, the last
    line it prints."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py"), "--leg", leg],
        env=dict(os.environ, RAY_GRAFT_CPUS=str(ncpu)),
        capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"--leg {leg} at {ncpu} CPUs exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def interleave(leg: str, levels, runs: int, run=run_level) -> list:
    """``runs`` rounds of one ``run(level, leg)`` per level; returns
    the records per level. The order alternates between rounds (lo, hi,
    then hi, lo, ...): ambient host load drifts over tens of minutes,
    and running all lo legs before all hi legs would bake the drift
    into the ratio."""
    out = [[] for _ in levels]
    for i in range(runs):
        order = range(len(levels))
        for j in (order if i % 2 == 0 else reversed(order)):
            out[j].append(run(levels[j], leg))
    return out


def _iqr(xs) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def pair_summary(lo: int, hi: int, runs_lo: list, runs_hi: list,
                 keys: dict) -> dict:
    """Median and IQR per level of the leg seconds (``sec``), the
    session start-up (``session_sec``) and each ``keys`` figure
    (output name -> record key), plus the scaling efficiency of the
    median seconds and the IQR of the per-pair efficiencies."""
    out = {"num_cpus_lo": lo, "num_cpus_hi": hi, "runs": len(runs_lo)}
    for name, key in {"sec": "value", "session_sec": "session_sec",
                      **keys}.items():
        for level, runs in (("lo", runs_lo), ("hi", runs_hi)):
            xs = [r[key] for r in runs]
            out[f"{name}_{level}"] = round(statistics.median(xs), 3)
            out[f"{name}_{level}_iqr"] = round(_iqr(xs), 3)
    med = [statistics.median(r["value"] for r in runs)
           for runs in (runs_lo, runs_hi)]
    out["scaling_efficiency"] = round(med[0] / med[1] / (hi / lo), 3)
    out["scaling_efficiency_iqr"] = round(_iqr(
        [a["value"] / b["value"] / (hi / lo)
         for a, b in zip(runs_lo, runs_hi)]), 3)
    return out


def scaling(leg: str, metric: str, keys: dict, count: str, count_key: str):
    """--scaling / --scaling-extract: RUNS alternating lo/hi pairs."""
    runs_lo, runs_hi = interleave(leg, LEVELS, RUNS)
    print(json.dumps({"metric": metric,
                      **pair_summary(*LEVELS, runs_lo, runs_hi, keys),
                      count: runs_hi[-1][count_key], "sf": SF_DIR}))


def big():
    """--big: the spill-regime legs at the host's CPU count, once each.
    The extraction flagship over a corpus replicated far past the
    shrunk object store, with one all-to-all repartition over the
    extracted output (the AllToAll materialization plus the small store
    force Ray's disk spill, the regime a 100 TB run lives in), then
    span dedup at the Bloom design point on the same store. No lo level:
    under backpressure the small level measures the store, not the
    pipeline. No-OOM is implicit: an OOM-killed leg fails the run."""
    [[ex]] = interleave("spill", [NUM_CPUS], 1)
    [[sd]] = interleave("spandedup", [NUM_CPUS], 1)
    print(json.dumps({
        "metric": "extract_spill_regime", "num_cpus": NUM_CPUS,
        "sec": ex["value"], "docs_per_sec": ex["extract_docs_per_sec"],
        "docs": ex["extract_docs"], "object_store_mb": ex["object_store_mb"],
        "spilled_mb": ex["spilled_mb"], "restored_mb": ex["restored_mb"],
        **{k: v for k, v in sd.items() if k.startswith("span_dedup_")},
        "sf": SF_DIR,
    }))


def main():
    """The headline run, in this process and one session."""
    with session():
        ocr = run_ocr_leg()
        result = {
            "metric": "ocr_e2e_sec",
            "value": ocr.pop("ocr_sec"),
            "unit": "sec",
            "queries": run_queries(),
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            **ocr,
        }
        if UW3_LEGS:
            result |= run_uw3_legs()
        result |= run_extract_leg()
    print(json.dumps(result))


if __name__ == "__main__":
    if "--leg" in sys.argv:
        print(json.dumps(run_leg(sys.argv[sys.argv.index("--leg") + 1])))
    elif "--scaling-extract" in sys.argv:
        scaling("extract", "extract_scaling",
                {"docs_per_sec": "extract_docs_per_sec"}, "docs",
                "extract_docs")
    elif "--scaling" in sys.argv:
        scaling("ocr", "ocr_scaling", {"pages_per_sec": "pages_per_sec",
                                       "lines_per_sec": "lines_per_sec"},
                "pages", "pages")
    elif "--big" in sys.argv:
        big()
    else:
        main()
