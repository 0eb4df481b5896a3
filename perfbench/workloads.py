"""The two workloads: inputs, set-up, one measured round, output
checks, exact counts and the single-process kernel pass.

Every engine call uses the public function with its default arguments.
A round is one batch job from input to complete, fetched result; the
same round repeats until the run's time is up.
"""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, gen

COUNT_NAMES = ("count.pages", "count.lines", "count.chars",
               "count.skipped_pages", "count.low_conf_lines", "count.docs",
               "count.windows", "count.dup_windows", "count.words_stripped",
               "count.fragments", "count.out_mb")
KERNELS = ("png_decode", "png_encode", "binarize", "skew", "segment",
           "compute_segmentation", "compute_line_seeds", "normalize_line",
           "lstm_forward", "ctc_decode", "reassemble", "html_extract",
           "window_hash")


def _fetch(ds) -> pa.Table:
    """A materialized dataset as one Arrow table. Ray's sort shuffle
    emits empty pandas blocks for empty groups; they are dropped."""
    import ray

    return pa.concat_tables(
        [b for b in ray.get(ds.to_arrow_refs()) if len(b)])


class OcrPages:
    """The flagship ocr_pipeline over one seeded corpus. The corpus is
    also written as several parquet files, so the traced run can time
    the checkpointed job over it (``job_pass``)."""

    name = "ocr_pages"
    num_docs = gen.OCR_PAGES_DOCS
    num_files = gen.OCR_PAGES_FILES
    skew_doc_pages = gen.OCR_PAGES_SKEW_PAGES

    def generate(self, root: str, seed: int) -> None:
        self.root = root
        self.corpus = gen.ocr_corpus(os.path.join(root, "in"), seed,
                                     self.num_docs, self.skew_doc_pages,
                                     self.num_files)
        self.truth = checks.ocr_truth(self.corpus)

    @property
    def docs(self) -> int:
        return len(self.truth)

    def load(self) -> None:
        """Media broadcast and input load (timed as set-up)."""
        from dup_ocropy_ray.pipelines.ocr import read_docs
        from dup_ocropy_ray.sources.media import put_media_store

        self.media_ref = put_media_store(self.corpus["media"])
        self.docs_ds = read_docs(self.corpus["docs"]).materialize()

    def _counts(self, rows: list[dict]) -> dict:
        s = lambda k: sum(r[k] for r in rows)  # noqa: E731
        return {"count.pages": s("n_pages"), "count.lines": s("n_lines"),
                "count.chars": s("chars_decoded"),
                "count.skipped_pages": s("n_skipped_pages"),
                "count.low_conf_lines": s("low_confidence_lines"),
                "count.docs": len(rows)}

    def kernel_pass(self, tracer) -> None:
        """The page and line chain in this process, over docs 0-2 (the
        skew doc and single-page docs) and the edge doc."""
        from dup_ocropy_ray.functions import png
        from dup_ocropy_ray.nn.lstm import BiLSTMRecognizer
        from dup_ocropy_ray.pipelines.ocr import (
            PageProcessor, explode_media_spans)
        from dup_ocropy_ray.stages import (
            binarize, reassemble, recognize, segment)

        docs = pq.read_table(self.corpus["docs"])
        docs = docs.take(sorted({0, 1, 2, docs.num_rows - 1}))
        media = pq.read_table(self.corpus["media"]).to_pydict()
        store = dict(zip(media["media_ref"], media["bytes"]))
        pages = explode_media_spans(docs)
        refs = pages.column("media_ref").to_pylist()
        pages = pages.append_column(
            "page_png", pa.array([store[r] for r in refs], pa.binary()))
        pages = pages.append_column("mask_png", pa.array(
            [store.get(r + ".mask") for r in refs], pa.binary()))
        for owner, attr, kernel in (
                (png, "decode", "png_decode"),
                (png, "encode_gray", "png_encode"),
                (binarize, "binarize_page", "binarize"),
                (binarize, "estimate_skew_angle", "skew"),
                (segment, "segment_page", "segment"),
                (segment, "compute_segmentation", "compute_segmentation"),
                (segment, "compute_line_seeds", "compute_line_seeds"),
                (recognize, "normalize_line", "normalize_line"),
                (BiLSTMRecognizer, "forward_batch", "lstm_forward"),
                (recognize, "translate_back", "ctc_decode"),
                (reassemble, "reassemble_partition", "reassemble")):
            tracer.patch(owner, attr, kernel)
        try:
            proc = PageProcessor()
            lines = pa.concat_tables(
                [proc(pages.slice(i, 1)) for i in range(pages.num_rows)])
            rec = recognize.LineRecognizer()
            rec_lines = pa.concat_tables(
                [rec(lines.slice(i, 256))
                 for i in range(0, lines.num_rows, 256)])
            union = pa.concat_tables([
                reassemble.spans_to_union_rows(docs),
                reassemble.lines_to_union_rows(rec_lines)])
            out = reassemble.reassemble_partition(union.to_pandas())
        finally:
            tracer.restore()
        sub = {d: self.truth[d] for d in docs.column("doc_id").to_pylist()}
        res = checks.check_ocr(sub, out.to_pylist())
        if res["failed"] or res["problems"]:
            raise RuntimeError(f"kernel pass output wrong: {res}")

    def round(self):
        from dup_ocropy_ray.pipelines.ocr import ocr_pipeline

        out = ocr_pipeline(self.docs_ds, self.media_ref).materialize()
        return _fetch(out)

    def check(self, tbl: pa.Table) -> dict:
        rows = tbl.to_pylist()
        res = checks.check_ocr(self.truth, rows)
        res["counts"] = self._counts(rows)
        return res

    def job_pass(self) -> dict:
        """run_ocr_with_checkpoint over the multi-file corpus into a
        fresh output root (one fragment per file), then a second call
        that must resume with nothing to do; checked like a round."""
        from dup_ocropy_ray.pipelines.ocr import run_ocr_with_checkpoint
        from dup_ocropy_ray.state import checkpoint

        out_root = os.path.join(self.root, "out")
        shutil.rmtree(out_root, ignore_errors=True)
        first = run_ocr_with_checkpoint(self.corpus["docs_dir"],
                                        self.corpus["media"], out_root)
        again = run_ocr_with_checkpoint(self.corpus["docs_dir"],
                                        self.corpus["media"], out_root)
        files = sorted(glob.glob(os.path.join(out_root, "fragment=*",
                                              "*.parquet")))
        rows = pa.concat_tables([pq.read_table(f) for f in files]).to_pylist()
        res = checks.check_ocr(self.truth, rows)
        p = res["problems"]
        if first["fragments_run"] != list(range(self.num_files)):
            p.append(f"first call ran fragments {first['fragments_run']}")
        if again["fragments_run"]:
            p.append(f"resume ran fragments {again['fragments_run']}")
        for got in (first["counters"], again["counters"]):
            p += checks.check_counters(self.truth, got, rows,
                                       res["char_errors"])
        manifests = checkpoint.read_manifests(out_root)
        res["counts"] = {
            "count.fragments": len(first["fragments_run"]),
            "count.out_mb": sum(os.path.getsize(f) for f in files) / 2**20}
        res["fragment_s"] = [m["metrics"]["wall_sec"] for m in manifests]
        shutil.rmtree(out_root)
        return res


def doc_text(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) -> (doc_id, text): a doc's text spans joined by
    single spaces, the input of the dedup strip."""
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "text": pa.array([" ".join(s["text"] for s in ss
                                   if s["kind"] == "text")
                          for ss in batch.column("spans").to_pylist()],
                         pa.string())})


class TextCurate:
    """extract_interleaved over wrap_html docs, then strip_dup_spans over
    the extracted text."""

    name = "text_curate"

    def generate(self, root: str, seed: int) -> None:
        import inspect

        from dup_ocropy_ray.pipelines.dedup import strip_dup_spans

        self.corpus = gen.text_corpus(os.path.join(root, "in"), seed)
        self.truth = self.corpus["truth"]
        params = inspect.signature(strip_dup_spans).parameters
        self.window = params["window"].default
        texts = {d: f"Story {i} " + " ".join(body.split())
                 for d, (i, body) in self.truth.items()}
        self.expected = checks.strip_truth(texts, self.window,
                                           params["min_docs"].default)

    @property
    def docs(self) -> int:
        return len(self.truth)

    def load(self) -> None:
        from dup_ocropy_ray.pipelines.ocr import read_docs

        self.docs_ds = read_docs(self.corpus["docs"]).materialize()

    def round(self):
        from dup_ocropy_ray.pipelines.dedup import strip_dup_spans
        from dup_ocropy_ray.pipelines.extract import extract_interleaved

        ex = extract_interleaved(self.docs_ds).materialize()
        clean = strip_dup_spans(
            ex.map_batches(doc_text, batch_format="pyarrow")).materialize()
        return _fetch(ex), _fetch(clean)

    def check(self, result) -> dict:
        ex, clean = result
        res = checks.check_extract(self.truth, ex.to_pylist())
        res["problems"] += checks.check_strip(self.expected,
                                              clean.to_pylist())
        e = self.expected
        res["counts"] = {"count.docs": ex.num_rows,
                         "count.windows": e["windows"],
                         "count.dup_windows": e["dup_windows"],
                         "count.words_stripped": e["words_stripped"]}
        return res

    def kernel_pass(self, tracer) -> None:
        """extract_interleaved_stage and the window hashing over the
        first 500 docs, in this process."""
        from dup_ocropy_ray.functions import hashing, htmlx
        from dup_ocropy_ray.pipelines.extract import (
            extract_interleaved_stage)

        docs = pq.read_table(self.corpus["docs"]).slice(0, 500)
        tracer.patch(htmlx, "extract_spans", "html_extract")
        tracer.patch(hashing, "batch_window_hashes", "window_hash")
        try:
            ex = extract_interleaved_stage(docs)
            texts = doc_text(ex).column("text").to_pylist()
            hashing.batch_window_hashes(texts, self.window)
        finally:
            tracer.restore()
        sub = {d: self.truth[d] for d in docs.column("doc_id").to_pylist()}
        res = checks.check_extract(sub, ex.to_pylist())
        if res["failed"] or res["problems"]:
            raise RuntimeError(f"kernel pass output wrong: {res}")


WORKLOADS = {w.name: w for w in (OcrPages, TextCurate)}
