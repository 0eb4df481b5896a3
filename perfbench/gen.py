"""Seeded inputs for the two workloads.

Everything here is a pure function of ``seed`` and is built from the
engine's public builders only: ``sources.fixtures.build_corpus`` for the
OCR corpora and ``sources.webgen.wrap_html`` (over word lines from
``sources.fixtures.make_doc_texts``) for the curation corpus. Inputs go
to a fresh directory per run; nothing is read from outside it.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# OCR corpora: doc 0 is the multi-page skew doc, the last doc is the
# edge doc (a too-small page that must be skipped, a masked two-column
# page, a 0.75 deg skewed page), every other doc has one page. Pages
# carry 5 lines each, so the work per corpus does not vary with the
# seed (only the words do). The engine drops a line as short as "a a"
# (the recognizer's "line too short" guard, or segmentation), which
# make_doc_texts can produce, and that fails the line-count check on a
# few seeds only; so page text is word-wrapped seeded paragraphs (lines
# of 15-24 characters), and a corpus whose edge doc still has a line
# under MIN_LINE_CHARS is rebuilt from the next derived seed.
OCR_PAGES_DOCS = 6
OCR_PAGES_SKEW_PAGES = 3
# the checkpointed job of the traced run fragments the corpus by file
OCR_PAGES_FILES = 2
LINES_PER_PAGE = (5, 6)
MIN_LINE_CHARS = 5

# Curation corpus: a fixed share of docs carries one of a few shared
# passages, so the dedup strip has duplicated windows to remove.
TEXT_DOCS = 2000
SHARED_PASSAGES = 12
SHARED_RATE = 0.15
LINE_POOL = 4000


def ocr_corpus(root: str, seed: int, num_docs: int, skew_doc_pages: int,
               num_files: int = 1) -> dict:
    """build_corpus under ``root``, 5 lines a page. With ``num_files > 1``
    the docs table is also written as that many parquet files under
    ``<root>/docs/`` (contiguous doc slices): the multi-file input that
    the checkpointed job fragments by file group."""
    from dup_ocropy_ray.sources.fixtures import build_corpus, make_doc_texts

    for attempt in range(100):
        build_seed = seed + attempt * 1_000_003
        rng = np.random.default_rng(build_seed)
        paragraphs = [" ".join(make_doc_texts(rng, 12)) for _ in range(64)]
        shutil.rmtree(root, ignore_errors=True)
        out = build_corpus(root, num_docs=num_docs, seed=build_seed,
                           lines_per_page=LINES_PER_PAGE,
                           skew_doc_pages=skew_doc_pages, texts=paragraphs)
        out["gt"] = pq.read_table(out["groundtruth"]).to_pylist()
        if min(len(r["gt_text"]) for r in out["gt"]) >= MIN_LINE_CHARS:
            break
    else:
        raise RuntimeError(f"no corpus without short lines for seed {seed}")
    docs = pq.read_table(out["docs"])
    if num_files > 1:
        d = os.path.join(root, "docs")
        os.makedirs(d)
        bounds = np.linspace(0, docs.num_rows, num_files + 1).astype(int)
        for k in range(num_files):
            pq.write_table(docs.slice(bounds[k], bounds[k + 1] - bounds[k]),
                           os.path.join(d, f"part-{k:02d}.parquet"))
        out["docs_dir"] = d
    out["doc_spans"] = {r["doc_id"]: r["spans"] for r in docs.to_pylist()}
    return out


def text_corpus(root: str, seed: int, num_docs: int = TEXT_DOCS) -> dict:
    """Docs whose single kind='html' span is ``wrap_html(i, body)``.
    Returns the docs parquet path and ``truth``: doc_id -> (i, body)."""
    from dup_ocropy_ray.schema import DOCS_SCHEMA
    from dup_ocropy_ray.sources.fixtures import make_doc_texts
    from dup_ocropy_ray.sources.webgen import wrap_html

    rng = np.random.default_rng(seed)
    # bodies draw lines from one seeded pool (make_doc_texts costs one
    # numpy call per line, too slow to call per doc)
    pool = make_doc_texts(rng, LINE_POOL)
    passages = [make_doc_texts(rng, 5) for _ in range(SHARED_PASSAGES)]
    planted = set(rng.choice(num_docs, int(num_docs * SHARED_RATE),
                             replace=False).tolist())
    rows, truth = [], {}
    for i in range(num_docs):
        lines = [pool[k] for k in
                 rng.integers(0, LINE_POOL, int(rng.integers(8, 20)))]
        if i in planted:
            at = int(rng.integers(0, len(lines) + 1))
            lines[at:at] = passages[int(rng.integers(SHARED_PASSAGES))]
        body = " ".join(lines)
        doc_id = f"web-{i:06d}"
        truth[doc_id] = (i, body)
        rows.append({"doc_id": doc_id, "spans": [
            {"kind": "html", "text": wrap_html(i, body), "media_ref": None,
             "offset": 0}]})
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=DOCS_SCHEMA), path)
    return {"docs": path, "truth": truth}
