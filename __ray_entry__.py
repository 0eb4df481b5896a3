"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship OCR pipeline (binarize → segment →
recognize → reassemble over an interleaved text+media corpus synthesized
deterministically from the sf0.001 documents table). ``queries()`` /
``oracle_sql()`` expose every operator family from SURVEY.md §2 plus the
training-data-pipeline operators (dedup / similarity / text analysis)
over the driver's parquet tables.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_SF0001 = "/root/testdata/sf0.001"


def _ocr_corpus_dir(sf_dir: str, num_docs: int) -> dict:
    """Synthesize (once, cached) the interleaved corpus whose page images
    render the documents-table texts. Deterministic: same sf_dir ->
    same bytes."""
    import hashlib

    from dup_ocropy_ray.sources.fixtures import build_corpus, renderer_version

    key = hashlib.md5(
        f"{sf_dir}:{num_docs}:{renderer_version()}".encode()
    ).hexdigest()[:10]
    root = f"/tmp/ocr_corpus_{key}"
    docs_path = os.path.join(root, "docs.parquet")
    if not os.path.exists(docs_path):
        import pyarrow.parquet as pq

        texts = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        ).column("text").to_pylist()
        build_corpus(root, num_docs=num_docs, seed=42, texts=texts,
                     skew_doc_pages=4)
    return {
        "docs": docs_path,
        "media": os.path.join(root, "media.parquet"),
        "groundtruth": os.path.join(root, "groundtruth.parquet"),
    }


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; returns the
    reassembled interleaved docs Dataset."""
    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(_SF0001, num_docs=12)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    return ocr_pipeline(docs, media_ref)


def _graph_sql(which: str) -> str:
    from dup_ocropy_ray.pipelines import graph

    return {"pagerank": graph.sql_pagerank,
            "indegree_hist": graph.sql_indegree_hist,
            "triangle_count": graph.sql_triangle_count,
            "bfs_levels": graph.sql_bfs_levels,
            "harmonic_centrality": graph.sql_harmonic_centrality}[which]()


def _pagerank(sf_dir: str):
    from dup_ocropy_ray.pipelines import graph

    return graph.pagerank_topk(sf_dir)


def _harmonic_centrality(sf_dir: str):
    from dup_ocropy_ray.pipelines import graph

    return graph.harmonic_centrality(sf_dir)


def _indegree_hist(sf_dir: str):
    from dup_ocropy_ray.pipelines import graph

    return graph.indegree_hist(sf_dir)


def _triangle_count(sf_dir: str):
    from dup_ocropy_ray.pipelines import graph

    return graph.triangle_count(sf_dir)


def _bfs_levels(sf_dir: str):
    from dup_ocropy_ray.pipelines import graph

    return graph.bfs_levels(sf_dir)


def _ocr_spans(sf_dir: str):
    """OCR end-to-end as a query: reassembled spans flattened to rows
    (doc_id, offset, kind, text, media_ref) — the span-sequence the
    north-star invariant keys on. Rows-only oracle (not SQL-expressible)."""
    import pandas as pd

    from dup_ocropy_ray.pipelines.ocr import ocr_pipeline, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    out = ocr_pipeline(docs, media_ref).to_pandas()
    rows = []
    for _, r in out.iterrows():
        for s in r["spans"]:
            rows.append(
                (r["doc_id"], s["offset"], s["kind"], s["text"], s["media_ref"])
            )
    return pd.DataFrame(
        rows, columns=["doc_id", "offset", "kind", "text", "media_ref"]
    ).sort_values(["doc_id", "offset"]).reset_index(drop=True)


def _hocr(sf_dir: str):
    """hOCR HTML sink over the OCR corpus (rows-only oracle)."""
    from dup_ocropy_ray.pipelines.ocr import ocr_hocr, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    out = ocr_hocr(docs, media_ref).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _dewarp(sf_dir: str):
    """Standalone line dewarp geometry (rows-only oracle)."""
    from dup_ocropy_ray.pipelines.ocr import dewarp_line_stats, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    out = dewarp_line_stats(docs, media_ref).to_pandas()
    return out.sort_values(["doc_id", "media_ref", "line_order"]).reset_index(
        drop=True
    )


def _gtedit(sf_dir: str):
    """Correction-HTML sink (reference ocropus-gtedit, S10; rows-only
    oracle — base64-embedded images aren't SQL-expressible)."""
    from dup_ocropy_ray.pipelines.ocr import ocr_correction_html, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    out = ocr_correction_html(docs, media_ref).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _debug_html(sf_dir: str):
    """Debug/results-browser HTML sink (reference
    ocropus-visualize-results, S11; rows-only oracle)."""
    from dup_ocropy_ray.pipelines.ocr import ocr_debug_html, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    out = ocr_debug_html(docs, media_ref).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _llocs(sf_dir: str):
    """Per-character locations + probabilities (reference .llocs/.prob
    side outputs, ocropus-rpred:170-203; rows-only oracle)."""
    import pandas as pd

    from dup_ocropy_ray.pipelines.ocr import ocr_recognized_lines, read_docs
    from dup_ocropy_ray.sources.media import put_media_store

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    rec = ocr_recognized_lines(
        docs, media_ref, recognizer_kwargs={"keep_llocs": True},
    ).to_pandas()
    rows = []
    for _, r in rec.iterrows():
        if r["line_order"] < 0 or r["llocs"] is None:
            continue
        for e in r["llocs"]:
            rows.append((r["doc_id"], r["media_ref"], int(r["line_order"]),
                         e["ch"], e["x"], e["prob"]))
    return pd.DataFrame(
        rows, columns=["doc_id", "media_ref", "line_order", "ch", "x", "prob"]
    ).sort_values(["doc_id", "media_ref", "line_order", "x"]).reset_index(drop=True)


def _alocs(sf_dir: str):
    """Gt-ALIGNED per-character locations via CTC forward-backward
    (reference .alocs side output, ocropus-rpred:183-196; rows-only
    oracle). Gt is a broadcast lookup; alignment runs on the task pool."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from dup_ocropy_ray.pipelines.ocr import ocr_recognized_lines, read_docs
    from dup_ocropy_ray.sources.media import put_media_store
    from dup_ocropy_ray.stages.recognize import AlignedLocs

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)  # shares the cache with siblings
    docs = read_docs(paths["docs"])
    media_ref = put_media_store(paths["media"])
    rec = ocr_recognized_lines(
        docs, media_ref, recognizer_kwargs={"keep_png": True},
    )
    gt = pq.read_table(paths["groundtruth"]).to_pandas()
    gtd = {
        (r.doc_id, r.media_ref, int(r.line_order)): r.gt_text
        for r in gt.itertuples()
    }
    gref = ray.put(gtd)

    def attach(b: pa.Table) -> pa.Table:
        d = ray.get(gref)
        vals = [
            d.get((a, m, int(o))) if o is not None and o >= 0 else None
            for a, m, o in zip(
                b.column("doc_id").to_pylist(),
                b.column("media_ref").to_pylist(),
                b.column("line_order").to_pylist(),
            )
        ]
        return b.append_column("gt_text", pa.array(vals, pa.string()))

    out = (
        rec.map_batches(attach, batch_format="pyarrow")
        .map_batches(AlignedLocs(), batch_format="pyarrow")
        .to_pandas()
    )
    rows = []
    for _, r in out.iterrows():
        if r["alocs"] is None:
            continue
        for e in r["alocs"]:
            rows.append((r["doc_id"], r["media_ref"], int(r["line_order"]),
                         e["ch"], e["x"]))
    return pd.DataFrame(
        rows, columns=["doc_id", "media_ref", "line_order", "ch", "x"]
    ).sort_values(["doc_id", "media_ref", "line_order", "x"]).reset_index(drop=True)


def _media_features(sf_dir: str):
    """Image decode + feature extraction over the media table (multimodal
    actor-pool stage; rows-only oracle)."""
    import ray.data as rd

    from dup_ocropy_ray.stages.multimodal import ImageFeatures

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    ds = rd.read_parquet(paths["media"])
    # autoscaling actor pool (stateful decode stage); batch_size stays
    # small because rows carry whole page PNGs (heap = batch x actors)
    out = ds.map_batches(ImageFeatures, batch_format="pyarrow", batch_size=2,
                         concurrency=(1, 8)).to_pandas()
    return out.sort_values("media_ref").reset_index(drop=True)


def _media_dups(sf_dir: str):
    """Near-duplicate page images: dHash actor-pool decode + the 64-bit
    banding/Hamming pipeline shared with SimHash text dedup (rows-only
    oracle — image decode is not SQL-expressible). The fixture corpus
    renders near-identical texts to near-identical pages, so real pairs
    exist."""
    import ray.data as rd

    from dup_ocropy_ray.pipelines.dedup import image_dup_pairs

    paths = _ocr_corpus_dir(sf_dir, num_docs=8)
    media = rd.read_parquet(paths["media"])
    # 3 = the 4-band guarantee bound (every pair within distance 3
    # shares a band, so recall is exact up to the threshold)
    return image_dup_pairs(media, max_hamming=3)


# Deterministic rotation of the oracle-backed block: the driver's
# correctness sweep records a fixed-size prefix of the queries() dict,
# so without rotation it re-checks the same ~50 queries every round.
# Bump per round so each round's independent check exercises a fresh
# slice (rounds 1-4 sampled offset 0; round 5 starts at 60 — fully
# disjoint from the old first-50).
_PREFIX_ROTATION = 60


def queries() -> dict[str, Callable[[str], Any]]:
    from dup_ocropy_ray.pipelines import queries as q

    oracle_backed = {
        # oracle-backed queries first: the driver's correctness
        # sweep records a fixed-size prefix of this dict
        "pricing_summary": q.q_pricing_summary,
        "revenue_filter": q.q_revenue_filter,
        "top_orders": q.q_top_orders,
        "customers_no_orders": q.q_customers_no_orders,
        "revenue_by_nation": q.q_revenue_by_nation,
        "events_hourly": q.q_events_hourly,
        "events_hopping": q.q_events_hopping,
        "distinct_users": q.q_distinct_users,
        "events_props": q.q_events_props,
        "part_stats": q.q_part_stats,
        "sort_topk_events": q.q_sort_topk_events,
        "dedup_exact": q.q_dedup_exact,
        "dedup_ngram": q.q_dedup_ngram,
        "ppjoin": q.q_ppjoin,
        "snm_pairs": q.q_snm_pairs,
        "dedup_clusters": q.q_dedup_clusters,
        "dedup_keep": q.q_dedup_keep,
        "cluster_size_hist": q.q_cluster_size_hist,
        "dedup_embedding": q.q_dedup_embedding,
        "knn": q.q_knn,
        "knn_multi": q.q_knn_multi,
        "knn_ivf_exact": q.q_knn_ivf_exact,
        "token_stats": q.q_token_stats,
        "bpe_tokens": q.q_bpe_tokens,
        "quality_by_source": q.q_quality_by_source,
        "readability": q.q_readability,
        "char_entropy": q.q_char_entropy,
        "top_docs_by_source": q.q_top_docs_by_source,
        "top_terms_by_source": q.q_top_terms_by_source,
        "langid": q.q_langid,
        "cer_pairs": q.q_cer_pairs,
        "late_events": q.q_late_events,
        "running_totals": q.q_running_totals,
        "sessions": q.q_sessions,
        "moving_avg": q.q_moving_avg,
        "asof_join": q.q_asof_join,
        "asof_forward": q.q_asof_forward,
        "order_ntile": q.q_order_ntile,
        "order_ranks": q.q_order_ranks,
        "events_lag": q.q_events_lag,
        "modal_hour": q.q_modal_hour,
        "range_join": q.q_range_join,
        "value_quantiles": q.q_value_quantiles,
        "join_revenue_priority": q.q_join_revenue_priority,
        "salted_join_revenue": q.q_salted_join_revenue,
        "customer_order_counts": q.q_customer_order_counts,
        "big_order_customers": q.q_big_order_customers,
        "bloom_join": q.q_bloom_join,
        "discounted_orders_by_priority": q.q_discounted_orders_by_priority,
        "no_bigorder_custs": q.q_no_bigorder_custs,
        "testset_split": q.q_testset_split,
        "project_text": q.q_project_text,
        "html_extract": q.q_html_extract,
        "html_markdown": q.q_html_markdown,
        "warc_extract": q.q_warc_extract,
        "warc_fetch": q.q_warc_fetch,
        "warc_charsets": q.q_warc_charsets,
        "warc_stats": q.q_warc_stats,
        "web_span_counts": q.q_web_span_counts,
        "justext_stats": q.q_justext_stats,
        "cetr_extract": q.q_cetr_extract,
        "extract_ensemble": q.q_extract_ensemble,
        "nb_langid": q.q_nb_langid,
        "lr_quality": q.q_lr_quality,
        "boost_quality": q.q_boost_quality,
        "calibration": q.q_calibration,
        "textrank": q.q_textrank,
        "texttiling": q.q_texttiling,
        "hard_examples": q.q_hard_examples,
        "span_corruption": q.q_span_corruption,
        "rate_limit": q.q_rate_limit,
        "winsorize_stats": q.q_winsorize_stats,
        "conformal_bounds": q.q_conformal_bounds,
        "ab_cuped": q.q_ab_cuped,
        "bootstrap_ci": q.q_bootstrap_ci,
        "dp_counts": q.q_dp_counts,
        "profile_table": q.q_profile_table,
        "encoding_advisor": q.q_encoding_advisor,
        "dataset_card": q.q_dataset_card,
        "funnel": q.q_funnel,
        "rolling_distinct": q.q_rolling_distinct,
        "retention": q.q_retention,
        "corr_matrix": q.q_corr_matrix,
        "exact_quantiles": q.q_exact_quantiles,
        "label_centroid_sims": q.q_label_centroid_sims,
        "vocab_coverage": q.q_vocab_coverage,
        "source_kl": q.q_source_kl,
        "ngram_diversity": q.q_ngram_diversity,
        "mad_by_source": q.q_mad_by_source,
        "bm25_multi": q.q_bm25_multi,
        "search_eval": q.q_search_eval,
        "web_curate": q.q_web_curate,
        "url_features": q.q_url_features,
        "domain_stats": q.q_domain_stats,
        "robots_filter": q.q_robots_filter,
        "snapshot_diff": q.q_snapshot_diff,
        "meta_extract": q.q_meta_extract,
        "sitemap_extract": q.q_sitemap_extract,
        "merge_upsert": q.q_merge_upsert,
        "event_paths": q.q_event_paths,
        "trending_types": q.q_trending_types,
        "vocab_growth": q.q_vocab_growth,
        "user_lifecycle": q.q_user_lifecycle,
        "frontier_dedup": q.q_frontier_dedup,
        "crawl_schedule": q.q_crawl_schedule,
        "anchor_text": q.q_anchor_text,
        "redirect_chains": q.q_redirect_chains,
        "scd2_history": q.q_scd2_history,
        "unicode_clean": q.q_unicode_clean,
        "compression_ratio": q.q_compression_ratio,
        "balanced_shards": q.q_balanced_shards,
        "domain_prior": q.q_domain_prior,
        "epoch_sample": q.q_epoch_sample,
        "range_shards": q.q_range_shards,
        "range_write": q.q_range_write,
        "csv_read": q.q_csv_read,
        "zorder_layout": q.q_zorder_layout,
        "time_travel": q.q_time_travel,
        "expectations": q.q_expectations,
        "incremental_agg": q.q_incremental_agg,
        "attribution": q.q_attribution,
        "percentile_cont": q.q_percentile_cont,
        "weighted_sample": q.q_weighted_sample,
        "coalesce_intervals": q.q_coalesce_intervals,
        "typo_pairs": q.q_typo_pairs,
        "skyline": q.q_skyline,
        "transition_matrix": q.q_transition_matrix,
        "benford_digits": q.q_benford_digits,
        "trend_by_source": q.q_trend_by_source,
        "mojibake_repair": q.q_mojibake_repair,
        "source_overlap": q.q_source_overlap,
        "knn_ivfpq": q.q_knn_ivfpq,
        "unigram_lm": q.q_unigram_lm,
        "incremental_neardup": q.q_incremental_neardup,
        "warc_curate": q.q_warc_curate,
        "outlink_stats": q.q_outlink_stats,
        "pdf_extract": q.q_pdf_extract,
        "pack_sequences": q.q_pack_sequences,
        "decontaminate": q.q_decontaminate,
        "decontaminate_fuzzy": q.q_decontaminate_fuzzy,
        "pii_scrub": q.q_pii_scrub,
        "sample_by_source": q.q_sample_by_source,
        "repetition_stats": q.q_repetition_stats,
        "curate_corpus": q.q_curate_corpus,
        "neardedup_corpus": q.q_neardedup_corpus,
        "dup_pair_editdist": q.q_dup_pair_editdist,
        "html_tables": q.q_html_tables,
        "audio_features": q.q_audio_features,
        "video_frames": q.q_video_frames,
        "bm25_search": q.q_bm25_search,
        "index_search": q.q_index_search,
        "trigram_search": q.q_trigram_search,
        "chunk_documents": q.q_chunk_documents,
        "dup_ngrams": q.q_dup_ngrams,
        "doc_dup_spans": q.q_doc_dup_spans,
        "strip_dup_spans": q.q_strip_dup_spans,
        "substring_dedup_exact": q.q_substring_dedup_exact,
        "substring_dedup_maximal": q.q_substring_dedup_maximal,
        "dup_spans_maximal": q.q_dup_spans_maximal,
        "heavy_hitters": q.q_heavy_hitters,
        "centroid_outliers": q.q_centroid_outliers,
        "incremental_dedup": q.q_incremental_dedup,
        "dedup_events_window": q.q_dedup_events_window,
        "stratified_sample": q.q_stratified_sample,
        "balance_classes": q.q_balance_classes,
        "pmi_bigrams": q.q_pmi_bigrams,
        "frequent_pairs": q.q_frequent_pairs,
        "holt_forecast": q.q_holt_forecast,
        "theilsen_trend": q.q_theilsen_trend,
        "mannwhitney": q.q_mannwhitney,
        "dedup_eval": q.q_dedup_eval,
        "purge_user": q.q_purge_user,
        "quality_percentile": q.q_quality_percentile,
        "dedup_corpus": q.q_dedup_corpus,
        "paragraph_dedup": q.q_paragraph_dedup,
        "revenue_rollup": q.q_revenue_rollup,
        "events_cube": q.q_events_cube,
        "unigram_logprob": q.q_unigram_logprob,
        "bigram_logprob": q.q_bigram_logprob,
        "tier_extract": q.q_tier_extract,
        "quantiles_by_type": q.q_quantiles_by_type,
        "gopher_quality": q.q_gopher_quality,
        "c4_clean": q.q_c4_clean,
        "dsir_weights": q.q_dsir_weights,
        "mix_corpus": q.q_mix_corpus,
        "event_outliers": q.q_event_outliers,
        "video_dups": q.q_video_dups,
        "audio_dups": q.q_audio_dups,
        "boilerplate_strip": q.q_boilerplate_strip,
        "hybrid_search": q.q_hybrid_search,
        "cust_order_outer": q.q_cust_order_outer,
        "pagerank": _pagerank,
        "graph_agg": q.q_graph_agg,
        "indegree_hist": _indegree_hist,
        "triangle_count": _triangle_count,
        "bfs_levels": _bfs_levels,
        "events_pivot": q.q_events_pivot,
        "price_histogram": q.q_price_histogram,
        "interval_join": q.q_interval_join,
        "gapfill_hourly": q.q_gapfill_hourly,
        "max_concurrency": q.q_max_concurrency,
        "compact_files": q.q_compact_files,
        "changepoint": q.q_changepoint,
        "evolving_read": q.q_evolving_read,
        "stream_windows": q.q_stream_windows,
        "blocklist_scan": q.q_blocklist_scan,
        "phrase_search": q.q_phrase_search,
        "cooccurrence": q.q_cooccurrence,
        "scd2_join": q.q_scd2_join,
        "incremental_join": q.q_incremental_join,
        "harmonic_centrality": _harmonic_centrality,
        "drift_emd": q.q_drift_emd,
        "containment": q.q_containment,
    }
    rows_only = {
        # rows-only (non-SQL-expressible) queries
        "pca_embeddings": q.q_pca_embeddings,
        "bpe_tokenize": q.q_bpe_tokenize,
        "minhash_recall": q.q_minhash_recall,
        "dedup_minhash": q.q_dedup_minhash,
        "dedup_simhash": q.q_dedup_simhash,
        "knn_ivf": q.q_knn_ivf,
        "knn_pq": q.q_knn_pq,
        "knn_lsh": q.q_knn_lsh,
        "vacuum_audit": q.q_vacuum_audit,
        "suffix_array": q.q_suffix_array,
        "knn_ivf_disk": q.q_knn_ivf_disk,
        "kmeans": q.q_kmeans,
        "fingerprints": q.q_fingerprints,
        "shuffle_shards": q.q_shuffle_shards,
        "leakage_safe_split": q.q_leakage_safe_split,
        "confusions": q.q_confusions,
        "ocr_spans": _ocr_spans,
        "hocr": _hocr,
        "gtedit": _gtedit,
        "debug_html": _debug_html,
        "dewarp": _dewarp,
        "llocs": _llocs,
        "alocs": _alocs,
        "media_features": _media_features,
        "media_dups": _media_dups,
        "web_spans": q.q_web_spans,
        "web_interleaved": q.q_web_interleaved,
        "distinct_users_hll": q.q_distinct_users_hll,
        "kll_quantiles": q.q_kll_quantiles,
        "hll_overlap": q.q_hll_overlap,
        "quantile_methods": q.q_quantile_methods,
        "mmr_select": q.q_mmr_select,
        "rp_recall": q.q_rp_recall,
        "semantic_dedup": q.q_semantic_dedup,
        "quantiles_sketch": q.q_quantiles_sketch,
        "text_knn": q.q_text_knn,
        "cms_counts": q.q_cms_counts,
        "ttf_linegen": q.q_ttf_linegen,
        "bpe_merges": q.q_bpe_merges,
        "coreset": q.q_coreset,
        "ann_recall": q.q_ann_recall,
        "uw3_cer": q.q_uw3_cer,
        "full_charset_cer": q.q_full_charset_cer,
    }
    # rotate within the subset that has a DuckDB oracle so the driver's
    # fixed-size prefix stays value-for-value-checked (queries without
    # SQL get only a rows-only check and would weaken the prefix)
    sql_keys = set(oracle_sql())
    strong = [name for name in oracle_backed if name in sql_keys]
    weak = [name for name in oracle_backed if name not in sql_keys]
    k = _PREFIX_ROTATION % len(strong)
    out = {name: oracle_backed[name] for name in strong[k:] + strong[:k]}
    out.update({name: oracle_backed[name] for name in weak})
    out.update(rows_only)
    return out


def oracle_sql() -> dict[str, str]:
    from dup_ocropy_ray.pipelines import queries as q

    return {
        "pricing_summary": q.SQL_PRICING,
        "revenue_filter": q.SQL_REVENUE,
        "top_orders": q.SQL_TOP_ORDERS,
        "customers_no_orders": q.SQL_CUSTOMERS_NO_ORDERS,
        "revenue_by_nation": q.SQL_REVENUE_BY_NATION,
        "events_hourly": q.SQL_EVENTS_HOURLY,
        "events_hopping": q.SQL_EVENTS_HOPPING,
        "distinct_users": q.SQL_DISTINCT_USERS,
        "events_props": q.SQL_EVENTS_PROPS,
        "part_stats": q.SQL_PART_STATS,
        "sort_topk_events": q.SQL_SORT_TOPK_EVENTS,
        "dedup_exact": q.SQL_DEDUP_EXACT,
        "dedup_ngram": q.SQL_DEDUP_NGRAM,
        "ppjoin": q.SQL_PPJOIN,
        "snm_pairs": q.SQL_SNM_PAIRS,
        "dedup_clusters": q.SQL_DEDUP_CLUSTERS,
        "dedup_keep": q.SQL_DEDUP_KEEP,
        "cluster_size_hist": q.SQL_CLUSTER_SIZE_HIST,
        "dedup_embedding": q.SQL_DEDUP_EMBEDDING,
        "knn": q.SQL_KNN,
        "knn_multi": q.SQL_KNN_MULTI,
        "knn_ivf_exact": q.SQL_KNN,  # exhaustive nprobe == brute force
        "token_stats": q.SQL_TOKEN_STATS,
        "bpe_tokens": q.SQL_BPE_TOKENS,
        "quality_by_source": q.SQL_QUALITY_BY_SOURCE,
        "readability": q.SQL_READABILITY,
        "char_entropy": q.SQL_CHAR_ENTROPY,
        "top_docs_by_source": q.SQL_TOP_DOCS_BY_SOURCE,
        "top_terms_by_source": q.SQL_TOP_TERMS_BY_SOURCE,
        "langid": q._langid_sql(),
        "cer_pairs": q.SQL_CER_PAIRS,
        "late_events": q.SQL_LATE_EVENTS,
        "running_totals": q.SQL_RUNNING_TOTALS,
        "sessions": q.SQL_SESSIONS,
        "moving_avg": q.SQL_MOVING_AVG,
        "asof_join": q.SQL_ASOF_JOIN,
        "asof_forward": q.SQL_ASOF_FORWARD,
        "order_ntile": q.SQL_ORDER_NTILE,
        "order_ranks": q.SQL_ORDER_RANKS,
        "events_lag": q.SQL_EVENTS_LAG,
        "modal_hour": q.SQL_MODAL_HOUR,
        "range_join": q.SQL_RANGE_JOIN,
        "value_quantiles": q.SQL_VALUE_QUANTILES,
        "join_revenue_priority": q.SQL_JOIN_REVENUE_PRIORITY,
        "salted_join_revenue": q.SQL_SALTED_JOIN_REVENUE,
        "customer_order_counts": q.SQL_CUSTOMER_ORDER_COUNTS,
        "big_order_customers": q.SQL_BIG_ORDER_CUSTOMERS,
        "bloom_join": q.SQL_BLOOM_JOIN,
        "discounted_orders_by_priority": q.SQL_DISCOUNTED_ORDERS_BY_PRIORITY,
        "no_bigorder_custs": q.SQL_NO_BIGORDER_CUSTS,
        "testset_split": q.SQL_TESTSET_SPLIT,
        "project_text": q.SQL_PROJECT_TEXT,
        "html_extract": q.SQL_HTML_EXTRACT,
        "html_markdown": q.SQL_HTML_MARKDOWN,
        "warc_extract": q.SQL_HTML_EXTRACT,
        "warc_fetch": q.SQL_WARC_FETCH,
        "warc_charsets": q.SQL_WARC_CHARSETS,
        "warc_stats": q.SQL_WARC_STATS,
        "web_span_counts": q.SQL_WEB_SPAN_COUNTS,
        "justext_stats": q.SQL_JUSTEXT_STATS,
        "nb_langid": q.SQL_NB_LANGID,
        "rate_limit": q.SQL_RATE_LIMIT,
        "winsorize_stats": q.SQL_WINSORIZE_STATS,
        "conformal_bounds": q.SQL_CONFORMAL_BOUNDS,
        "ab_cuped": q.SQL_AB_CUPED,
        "bootstrap_ci": q.SQL_BOOTSTRAP_CI,
        "dp_counts": q.SQL_DP_COUNTS,
        "profile_table": q.SQL_PROFILE_TABLE,
        "encoding_advisor": q.SQL_ENCODING_ADVISOR,
        "dataset_card": q.SQL_DATASET_CARD,
        "funnel": q.SQL_FUNNEL,
        "rolling_distinct": q.SQL_ROLLING_DISTINCT,
        "retention": q.SQL_RETENTION,
        "corr_matrix": q.SQL_CORR_MATRIX,
        "exact_quantiles": q.SQL_EXACT_QUANTILES,
        "label_centroid_sims": q.SQL_LABEL_CENTROID_SIMS,
        "vocab_coverage": q.SQL_VOCAB_COVERAGE,
        "source_kl": q.SQL_SOURCE_KL,
        "ngram_diversity": q.SQL_NGRAM_DIVERSITY,
        "mad_by_source": q.SQL_MAD_BY_SOURCE,
        "bm25_multi": q.SQL_BM25_MULTI,
        "search_eval": q.SQL_SEARCH_EVAL,
        "web_curate": q.SQL_WEB_CURATE,
        "url_features": q.SQL_URL_FEATURES,
        "domain_stats": q.SQL_DOMAIN_STATS,
        "robots_filter": q.SQL_ROBOTS_FILTER,
        "snapshot_diff": q.SQL_SNAPSHOT_DIFF,
        "meta_extract": q.SQL_META_EXTRACT,
        "sitemap_extract": q.SQL_SITEMAP_EXTRACT,
        "merge_upsert": q.SQL_MERGE_UPSERT,
        "event_paths": q.SQL_EVENT_PATHS,
        "trending_types": q.SQL_TRENDING_TYPES,
        "vocab_growth": q.SQL_VOCAB_GROWTH,
        "user_lifecycle": q.SQL_USER_LIFECYCLE,
        "frontier_dedup": q.SQL_FRONTIER_DEDUP,
        "crawl_schedule": q.SQL_CRAWL_SCHEDULE,
        "redirect_chains": q.SQL_REDIRECT_CHAINS,
        "scd2_history": q.SQL_SCD2_HISTORY,
        "unicode_clean": q.SQL_UNICODE_CLEAN,
        "balanced_shards": q.SQL_BALANCED_SHARDS,
        "domain_prior": q.SQL_DOMAIN_PRIOR,
        "epoch_sample": q.SQL_EPOCH_SAMPLE,
        "range_shards": q.SQL_RANGE_SHARDS,
        "range_write": q.SQL_RANGE_SHARDS,
        "csv_read": q.SQL_CSV_READ,
        "zorder_layout": q.SQL_ZORDER_LAYOUT,
        "time_travel": q.SQL_TIME_TRAVEL,
        "expectations": q.SQL_EXPECTATIONS,
        "incremental_agg": q.SQL_INCREMENTAL_AGG,
        "attribution": q.SQL_ATTRIBUTION,
        "percentile_cont": q.SQL_PERCENTILE_CONT,
        "weighted_sample": q.SQL_WEIGHTED_SAMPLE,
        "coalesce_intervals": q.SQL_COALESCE_INTERVALS,
        "typo_pairs": q.SQL_TYPO_PAIRS,
        "skyline": q.SQL_SKYLINE,
        "transition_matrix": q.SQL_TRANSITION_MATRIX,
        "benford_digits": q.SQL_BENFORD_DIGITS,
        "trend_by_source": q.SQL_TREND_BY_SOURCE,
        "mojibake_repair": q.SQL_MOJIBAKE_REPAIR,
        "source_overlap": q.SQL_SOURCE_OVERLAP,
        "warc_curate": q.SQL_WARC_CURATE,
        "outlink_stats": q.SQL_OUTLINK_STATS,
        "pdf_extract": q.SQL_PDF_EXTRACT,
        "pack_sequences": q.SQL_PACK_SEQUENCES,
        "decontaminate": q.SQL_DECONTAMINATE,
        "decontaminate_fuzzy": q.SQL_DECONTAMINATE_FUZZY,
        "pii_scrub": q.SQL_PII_SCRUB,
        "sample_by_source": q.SQL_SAMPLE_BY_SOURCE,
        "repetition_stats": q.SQL_REPETITION_STATS,
        "curate_corpus": q.SQL_CURATE_CORPUS,
        "neardedup_corpus": q.SQL_NEARDEDUP_CORPUS,
        "dup_pair_editdist": q.SQL_DUP_PAIR_EDITDIST,
        "html_tables": q.SQL_HTML_TABLES,
        "audio_features": q.SQL_AUDIO_FEATURES,
        "video_frames": q.SQL_VIDEO_FRAMES,
        "bm25_search": q.SQL_BM25_SEARCH,
        "index_search": q.SQL_INDEX_SEARCH,
        "trigram_search": q.SQL_TRIGRAM_SEARCH,
        "chunk_documents": q.SQL_CHUNK_DOCUMENTS,
        "dup_ngrams": q.SQL_DUP_NGRAMS,
        "doc_dup_spans": q.SQL_DOC_DUP_SPANS,
        "strip_dup_spans": q.SQL_STRIP_DUP_SPANS,
        "substring_dedup_exact": q.SQL_SUBSTRING_DEDUP_EXACT,
        "substring_dedup_maximal": q.SQL_SUBSTRING_DEDUP_MAXIMAL,
        "dup_spans_maximal": q.SQL_DUP_SPANS_MAXIMAL,
        "heavy_hitters": q.SQL_HEAVY_HITTERS,
        "centroid_outliers": q.SQL_CENTROID_OUTLIERS,
        "incremental_dedup": q.SQL_INCREMENTAL_DEDUP,
        "dedup_events_window": q.SQL_DEDUP_EVENTS_WINDOW,
        "stratified_sample": q.SQL_STRATIFIED_SAMPLE,
        "balance_classes": q.SQL_BALANCE_CLASSES,
        "pmi_bigrams": q.SQL_PMI_BIGRAMS,
        "frequent_pairs": q.SQL_FREQUENT_PAIRS,
        "holt_forecast": q.SQL_HOLT_FORECAST,
        "theilsen_trend": q.SQL_THEILSEN_TREND,
        "mannwhitney": q.SQL_MANNWHITNEY,
        "purge_user": q.SQL_PURGE_USER,
        "quality_percentile": q.SQL_QUALITY_PERCENTILE,
        "dedup_corpus": q.SQL_DEDUP_CORPUS,
        "paragraph_dedup": q.SQL_PARAGRAPH_DEDUP,
        "revenue_rollup": q.SQL_REVENUE_ROLLUP,
        "events_cube": q.SQL_EVENTS_CUBE,
        "unigram_logprob": q.SQL_UNIGRAM_LOGPROB,
        "bigram_logprob": q.SQL_BIGRAM_LOGPROB,
        "tier_extract": q.SQL_TIER_EXTRACT,
        "quantiles_by_type": q.SQL_QUANTILES_BY_TYPE,
        "gopher_quality": q.SQL_GOPHER_QUALITY,
        "c4_clean": q.SQL_C4_CLEAN,
        "dsir_weights": q.SQL_DSIR_WEIGHTS,
        "mix_corpus": q.SQL_MIX_CORPUS,
        "event_outliers": q.SQL_EVENT_OUTLIERS,
        "video_dups": q.SQL_VIDEO_DUPS,
        "audio_dups": q.SQL_AUDIO_DUPS,
        "boilerplate_strip": q.SQL_BOILERPLATE_STRIP,
        "hybrid_search": q.SQL_HYBRID_SEARCH,
        "cust_order_outer": q.SQL_CUST_ORDER_OUTER,
        "pagerank": _graph_sql("pagerank"),
        "graph_agg": q.SQL_GRAPH_AGG,
        "indegree_hist": _graph_sql("indegree_hist"),
        "triangle_count": _graph_sql("triangle_count"),
        "bfs_levels": _graph_sql("bfs_levels"),
        "events_pivot": q.SQL_EVENTS_PIVOT,
        "price_histogram": q.SQL_PRICE_HISTOGRAM,
        "interval_join": q.SQL_INTERVAL_JOIN,
        "gapfill_hourly": q.SQL_GAPFILL_HOURLY,
        "max_concurrency": q.SQL_MAX_CONCURRENCY,
        "compact_files": q.SQL_COMPACT_FILES,
        "changepoint": q.SQL_CHANGEPOINT,
        "evolving_read": q.SQL_EVOLVING_READ,
        "stream_windows": q.SQL_STREAM_WINDOWS,
        "blocklist_scan": q.SQL_BLOCKLIST_SCAN,
        "phrase_search": q.SQL_PHRASE_SEARCH,
        "cooccurrence": q.SQL_COOCCURRENCE,
        "scd2_join": q.SQL_SCD2_JOIN,
        "incremental_join": q.SQL_INCREMENTAL_JOIN,
        "harmonic_centrality": _graph_sql("harmonic_centrality"),
        "drift_emd": q.SQL_DRIFT_EMD,
        "containment": q.SQL_CONTAINMENT,
        "fingerprints": q.SQL_FINGERPRINTS,
        "shuffle_shards": q.SQL_SHUFFLE_SHARDS,
        "leakage_safe_split": q.SQL_LEAKAGE_SAFE_SPLIT,
        # minhash, simhash, knn_ivf, kmeans, semantic_dedup, confusions, ocr_spans,
        # hocr, gtedit, debug_html, dewarp: intentionally omitted (not
        # ANSI-SQL-expressible) -> rows-only check
    }
