#!/usr/bin/env python
"""Cluster job entry point — the `ray job submit` target.

    ray job submit --working-dir . -- \
        python scripts/run_job.py --docs /data/docs.parquet \
        --media /data/media.parquet --out /data/ocr_out --fragments 64

Runs the flagship OCR pipeline (or, by --pipeline, the extraction, dedup
or WARC job) fragment-by-fragment with checkpoint/lineage manifests, all
through the one fragment loop of state/checkpoint.py: a killed job rerun
with the same --out resumes, skipping every fragment whose manifest exists
(at most the one in-flight fragment is reprocessed). Counters (for OCR:
docs, pages, lines segmented, skipped pages, chars decoded, low-confidence
lines) aggregate across manifests.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pipeline",
                    choices=("ocr", "extract", "dedup", "warc", "compact"),
                    default="ocr",
                    help="ocr = media OCR flagship; extract = html-span "
                         "main-content extraction (no media table needed); "
                         "dedup = global exact dedup in two corpus scans, "
                         "resumable per fragment; warc = crawl-shard "
                         "main-text extraction (--docs is a glob of "
                         ".warc.gz shards); "
                         "compact = lakehouse OPTIMIZE (--docs is a parquet "
                         "directory, bin-packed into ~--target-bytes files)")
    ap.add_argument("--docs", required=True,
                    help="interleaved docs table (parquet/lance); for warc: "
                         "a glob of .warc.gz shard paths; for compact: a "
                         "parquet directory")
    ap.add_argument("--media", default=None, help="media blob table (media_ref, bytes); required for --pipeline ocr")
    ap.add_argument("--out", required=True, help="output root (fragment dirs + manifests)")
    ap.add_argument("--fragments", type=int, default=16)
    ap.add_argument("--model", default=None)
    ap.add_argument("--target-bytes", type=int, default=128 << 20,
                    help="compact only: target output file size")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))

    if args.pipeline == "extract":
        from dup_ocropy_ray.pipelines.extract import run_extract_with_checkpoint

        result = run_extract_with_checkpoint(
            args.docs, args.out, num_fragments=args.fragments)
    elif args.pipeline == "dedup":
        from dup_ocropy_ray.pipelines.dedup import run_dedup_with_checkpoint

        result = run_dedup_with_checkpoint(
            args.docs, args.out, num_fragments=args.fragments)
    elif args.pipeline == "warc":
        import glob as _glob

        from dup_ocropy_ray.sources.warcgen import run_warc_extract_with_checkpoint

        shards = sorted(_glob.glob(args.docs))
        if not shards:
            ap.error(f"--docs glob matched no WARC shards: {args.docs}")
        result = run_warc_extract_with_checkpoint(
            shards, args.out, num_fragments=args.fragments)
    elif args.pipeline == "compact":
        from dup_ocropy_ray.pipelines.relational import compact_parquet

        result = compact_parquet(
            args.docs, args.out, target_bytes=args.target_bytes)
    else:
        from dup_ocropy_ray.pipelines.ocr import run_ocr_with_checkpoint

        if not args.media:
            ap.error("--media is required for --pipeline ocr")
        result = run_ocr_with_checkpoint(
            args.docs,
            args.media,
            args.out,
            num_fragments=args.fragments,
            model_path=args.model,
        )
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
