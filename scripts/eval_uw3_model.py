#!/usr/bin/env python
"""Canonical region-decode evaluation of a CANDIDATE uw3 model.

Runs the held-out uw3-500 split (same deterministic hash split as
training and ``q_uw3_cer``) through the production task-pool recognizer
with an arbitrary ``--model`` path and prints the CER — the number
the bench leg / tests gate on. Used to decide whether a freshly trained
checkpoint should be adopted as ``dup_ocropy_ray/models/uw3_model.npz``.

Usage: python scripts/eval_uw3_model.py --model /tmp/candidate.npz
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import ray
import ray.data as rd


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", required=True)
    ap.add_argument("--num-cpus", type=int, default=6)
    args = ap.parse_args()

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)

    from dup_ocropy_ray.functions import png as _png
    from dup_ocropy_ray.functions.edist import levenshtein
    from dup_ocropy_ray.functions.text import normalize_text
    from dup_ocropy_ray.sources.uw3 import load_uw3_cached, split_uw3
    from dup_ocropy_ray.stages.recognize import LineRecognizerTask

    _, test = split_uw3(load_uw3_cached())
    tbl = pa.table({
        "line_id": pa.array([r["line_id"] for r in test], pa.string()),
        "gt_text": pa.array([normalize_text(r["text"]) for r in test],
                            pa.string()),
        "line_png": pa.array([_png.encode_gray(r["image"]) for r in test],
                             pa.binary()),
    })
    ds = rd.from_arrow(tbl).repartition(2)
    rec = ds.map_batches(LineRecognizerTask(model_path=args.model),
                         batch_size=32, batch_format="pyarrow")
    out = rec.to_pandas()
    out["dist"] = [levenshtein(p, g) for p, g in zip(out["text"],
                                                     out["gt_text"])]
    out["glen"] = out["gt_text"].str.len()
    ok = out[out.rec_status == "ok"]
    # cer_ok is bench.py's uw3_heldout_cer convention (rec_status=="ok"
    # lines only); cer_all also charges check_line rejects as
    # full-length misses
    print(json.dumps({
        "model": args.model, "lines": len(out), "lines_ok": len(ok),
        "cer_ok": round(float(ok.dist.sum() / max(1, ok.glen.sum())), 5),
        "cer_all": round(float(out.dist.sum() / max(1, out.glen.sum())), 5),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
