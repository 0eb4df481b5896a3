"""The one resumable fragment loop (state/checkpoint.py): crash and
resume, empty fragments, a pinned plan across changed settings, and a
ratchet that keeps the loop and the planner in one module."""

import glob
import os
import re

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data as rd

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "dup_ocropy_ray")


def _read_rows(root: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(root, "fragment=*", "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def test_run_fragments_crash_and_resume(ray_session, tmp_path, monkeypatch):
    """A commit that fails on fragment 1, over a stale ``.tmp`` holding
    junk rows: the job raises, the rerun runs only fragment 1, leaves
    fragment 0's files alone, and ends with the rows and counters of an
    uninterrupted run."""
    from dup_ocropy_ray.state import checkpoint as ckpt

    def build(frag: int) -> rd.Dataset:
        return rd.range(5).map_batches(
            lambda b: {"id": b["id"] + 5 * frag}, batch_format="numpy")

    def count(_frag: int, t: pa.Table) -> dict:
        return {"rows": t.num_rows,
                "id_sum": int(pc.sum(t["id"]).as_py() or 0)}

    def run(root):
        return ckpt.run_fragments(root, 2, build, count, columns=("id",))

    want = run(str(tmp_path / "clean"))
    assert want["fragments_run"] == [0, 1]
    assert want["counters"] == {"rows": 10, "id_sum": sum(range(10))}

    root = str(tmp_path / "crash")
    stale = ckpt.fragment_dir(root, 1) + ".tmp"
    os.makedirs(stale)
    pq.write_table(pa.table({"id": [999] * 7}),
                   os.path.join(stale, "junk.parquet"))
    commit, failed = ckpt.commit_fragment, []

    def flaky(root_, frag, *a, **kw):
        if frag == 1 and not failed:
            failed.append(frag)
            raise OSError("killed before the manifest")
        return commit(root_, frag, *a, **kw)

    monkeypatch.setattr(ckpt, "commit_fragment", flaky)
    with pytest.raises(OSError, match="killed"):
        run(root)
    assert ckpt.completed_fragments(root) == {0}
    frag0 = {f: os.path.getmtime(f) for f in
             glob.glob(os.path.join(ckpt.fragment_dir(root, 0), "*"))}
    assert frag0

    got = run(root)
    assert got["fragments_run"] == [1]
    assert {f: os.path.getmtime(f) for f in glob.glob(
        os.path.join(ckpt.fragment_dir(root, 0), "*"))} == frag0
    ids = _read_rows(root)["id"]
    assert sorted(ids) == list(range(10))  # no junk, no duplicates
    assert got["counters"] == want["counters"]
    assert not os.path.exists(stale)


def test_extract_checkpoint_empty_fragments(ray_session, tmp_path):
    """More doc-hash fragments than docs: the empty fragments still get
    a (empty) directory and a manifest with zero counters."""
    from dup_ocropy_ray.pipelines.extract import (
        _span_list_type, run_extract_with_checkpoint)
    from dup_ocropy_ray.sources.webgen import wrap_html
    from dup_ocropy_ray.state import checkpoint as ckpt

    docs_path = str(tmp_path / "docs.parquet")
    spans = [[{"kind": "html", "text": wrap_html(i, f"body words {i} " * 6),
               "media_ref": None, "offset": 0}] for i in range(2)]
    pq.write_table(pa.table({
        "doc_id": pa.array(["d0", "d1"], pa.string()),
        "spans": pa.array(spans, _span_list_type()),
    }), docs_path)
    out_root = str(tmp_path / "out")
    r = run_extract_with_checkpoint(docs_path, out_root, num_fragments=4)
    assert r["fragments_run"] == [0, 1, 2, 3]
    assert ckpt.completed_fragments(out_root) == {0, 1, 2, 3}
    assert r["counters"]["docs"] == 2 and r["counters"]["text_spans"] > 0
    for m in ckpt.read_manifests(out_root):
        assert set(m["counters"]) == {"docs", "text_spans", "media_spans"}
        assert os.path.isdir(m["lineage"]["output"])


def test_dedup_resume_keeps_pinned_plan(ray_session, tmp_path):
    """A dedup resume with a different fragment count reruns the lost
    fragment over the PINNED plan, so no row is written twice."""
    from dup_ocropy_ray.pipelines.dedup import run_dedup_with_checkpoint

    full = pd.DataFrame({"doc_id": range(300),
                         "text": [f"doc {i} body words" for i in range(300)]})
    full.loc[[150, 250], "text"] = full.loc[0, "text"]  # cross-file dups
    docs_dir = str(tmp_path / "docs")
    os.makedirs(docs_dir)
    for i in range(3):
        pq.write_table(pa.Table.from_pandas(full.iloc[i * 100:(i + 1) * 100],
                                            preserve_index=False),
                       os.path.join(docs_dir, f"part-{i}.parquet"))
    out_root = str(tmp_path / "out")
    r1 = run_dedup_with_checkpoint(docs_dir, out_root, num_fragments=2)
    assert r1["fragments_run"] == [0, 1]
    first = _read_rows(os.path.join(out_root, "output"))

    os.remove(os.path.join(out_root, "output", "_manifest", "00001.json"))
    r2 = run_dedup_with_checkpoint(docs_dir, out_root, num_fragments=3)
    got = _read_rows(os.path.join(out_root, "output"))
    assert len(got) == got["doc_id"].nunique()
    assert set(got["doc_id"]) == set(first["doc_id"]) == set(range(300)) - {
        150, 250}
    assert r2["fragments_run"] == [1]
    assert r2["counters"] == r1["counters"]
    assert r2["counters"]["rows_in"] == len(full)


def test_one_fragment_loop_ratchet():
    """The fragment plan and the write-swap-commit loop live in
    state/checkpoint.py only: no other module commits a manifest, names
    a fragment directory, lists pending fragments, groups files into
    fragments or names the plan file. relational.py's compaction and
    purge jobs keep a ``_plan.json`` of their own (a plan key over
    per-file tasks, not a fragment plan), so they may name it."""
    banned = []
    for root, _, files in os.walk(PKG):
        for f in files:
            path = os.path.join(root, f)
            if not f.endswith(".py") or path.endswith(
                    os.path.join("state", "checkpoint.py")):
                continue
            with open(path, encoding="utf-8") as fh:
                src = fh.read()
            banned += [f"{path}: {m}" for m in re.findall(
                r"\b(?:commit_fragment\(|fragment_dir\(|pending_fragments\("
                r"|_lpt_groups\b|_doc_fragment_filter\b)", src)]
            if f != "relational.py":
                banned += [f"{path}: _plan.json"] * src.count("_plan.json")
    assert not banned, banned
