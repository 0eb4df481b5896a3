"""Deterministic WARC shard corpus + distributed Ray reader.

The web-scale input story: crawl data arrives as ``.warc.gz`` shards
(member-per-record gzip, Common Crawl layout — see functions/warcx.py).
This module

- **builds** a deterministic shard set from the sandbox ``documents``
  table (each doc rendered into a boilerplate-laden page by
  sources/webgen.py and routed to shard ``doc_id % num_shards``) — the
  build itself is a Ray pipeline (one coarse groupby on the shard key,
  one writer task per shard), not a driver loop;
- **reads** shard sets back as a ``ray.data.Dataset`` of record rows,
  one read task per shard file (``read_binary_files`` keeps the file →
  block mapping; at 100 TB shards are ~1 GiB and the streaming executor
  pipelines parse against read).

Each shard is written next to a CDX-style parquet index
``(uri, offset, length)`` so a consumer can fetch single records with
ranged reads (functions/warcx.read_record_at) instead of shard scans.
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..functions import warcx
from .webgen import wrap_html

_URI_PREFIX = "https://example.org/doc/"
# Records per extraction batch of the checkpointed WARC job.
WARC_BATCH_SIZE = 64


def doc_uri(doc_id: int) -> str:
    return f"{_URI_PREFIX}{int(doc_id)}"


def uri_doc_id(uri: str) -> int:
    if not uri.startswith(_URI_PREFIX):
        raise ValueError(f"not a corpus URI: {uri!r}")
    return int(uri[len(_URI_PREFIX):])


def _corpus_version() -> str:
    """Content hash of the modules whose output bytes the cache pins."""
    from . import content_version

    return content_version(
        __file__, ("warcgen.py", "webgen.py", "../functions/warcx.py"))


def encode_mixed(doc_id: int, html: str) -> tuple[bytes, str]:
    """Deterministic per-doc transport encoding (the charset_mix corpus):
    doc_id%4 == 0 plain UTF-8 (validity-sniff path), 1 UTF-16LE+BOM,
    2 UTF-16BE+BOM (BOM paths; header stays silent), 3 UTF-8 with the
    charset declared in the Content-Type header (header path).
    Returns (payload bytes, content-type header value)."""
    v = doc_id % 4
    if v == 1:
        return b"\xff\xfe" + html.encode("utf-16-le"), "text/html"
    if v == 2:
        return b"\xfe\xff" + html.encode("utf-16-be"), "text/html"
    if v == 3:
        return html.encode(), "text/html; charset=utf-8"
    return html.encode(), "text/html"


def build_warc_corpus(sf_dir: str, num_shards: int = 8,
                      root: str = "/tmp", charset_mix: bool = False) -> dict:
    """Render ``documents`` into ``num_shards`` deterministic .warc.gz
    shards (cached per (sf, num_shards, code version)).

    Distributed shape: read (doc_id, text) with pruned columns, route by
    ``doc_id % num_shards`` (ONE coarse metadata-scale shuffle), then one
    writer task per shard serializes its group in doc_id order.  Only the
    num_shards-row manifest lands on the driver.  Publication is atomic:
    shards are written under a tmp dir and renamed into place last.
    """
    key = hashlib.sha1(
        f"{os.path.abspath(sf_dir)}|{num_shards}|{_corpus_version()}"
        f"|mix={int(charset_mix)}".encode()
    ).hexdigest()[:12]
    out_dir = os.path.join(root, f"warc_corpus_{key}")
    manifest_path = os.path.join(out_dir, "_manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    from ..tuning import configure_data_context

    configure_data_context()
    # per-process tmp: two concurrent builders must never share a tmp
    # dir (the loser's reap below would delete files the other is still
    # writing); each publishes its own and reaps its own on a lost race
    tmp_dir = out_dir + f".tmp.{os.getpid()}"
    os.makedirs(tmp_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        shard = int(g["shard"].iloc[0])
        recs = []
        for i, t in zip(g["doc_id"], g["text"]):
            html = wrap_html(int(i), t if isinstance(t, str) else "")
            if charset_mix:
                payload, ct = encode_mixed(int(i), html)
                recs.append((doc_uri(i), payload, ct))
            else:
                recs.append((doc_uri(i), html.encode()))
        blob, index = warcx.write_warc_gz(recs)
        name = f"shard-{shard:05d}.warc.gz"
        with open(os.path.join(tmp_dir, name), "wb") as f:
            f.write(blob)
        pq.write_table(
            pa.table({
                "uri": [e["uri"] for e in index],
                "offset": pa.array([e["offset"] for e in index], pa.int64()),
                "length": pa.array([e["length"] for e in index], pa.int64()),
            }),
            os.path.join(tmp_dir, name + ".cdx.parquet"),
        )
        return pd.DataFrame({"shard": [shard], "file": [name],
                             "n_records": [len(recs)]})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    rows = (
        ds.map_batches(
            lambda b: b.assign(shard=(b["doc_id"] % num_shards).astype("int64")),
            batch_format="pandas")
        .groupby("shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()
    )
    manifest = {
        "dir": out_dir,
        "num_shards": int(num_shards),
        "shards": [os.path.join(out_dir, f)
                   for f in sorted(rows["file"].tolist())],
        "n_records": int(rows["n_records"].sum()),
        "version": _corpus_version(),
    }
    with open(os.path.join(tmp_dir, "_manifest.json"), "w") as f:
        json.dump(manifest, f)
    if not os.path.exists(manifest_path):  # lose benign races gracefully
        try:
            os.rename(tmp_dir, out_dir)
        except OSError:
            pass
    if os.path.exists(tmp_dir):
        # race lost (another builder published first): drop the full
        # duplicate shard copy instead of leaking it — every later call
        # short-circuits on the published manifest and would never reap it
        import shutil

        shutil.rmtree(tmp_dir, ignore_errors=True)
    return manifest


def read_warc(paths: list[str] | str) -> rd.Dataset:
    """``.warc.gz`` shard set -> Dataset of record rows
    ``(path, offset, length, uri, payload:binary)``.

    One read task per shard; the member-per-record parse streams inside
    ``map_batches`` so a shard never exists decompressed-in-full —
    payload rows flow out in Arrow blocks under backpressure.
    """
    from ..tuning import configure_data_context

    configure_data_context()
    if isinstance(paths, str):
        paths = [paths]
    # NOTE: not read_binary_files — Ray's file datasource force-detects
    # gzip from the .gz extension and would hand us the shard already
    # gunzipped, destroying the member offsets the CDX index addresses.
    # One parse task per shard opens the raw bytes itself (at scale this
    # is an arrow-filesystem ranged read against object storage).
    files = rd.from_items([{"path": p} for p in sorted(paths)],
                          override_num_blocks=len(paths))

    # flush a chunk once decompressed payloads pass this budget, so peak
    # task memory is compressed-blob + ONE chunk (not the whole shard
    # decompressed: payloads average ~3-5x their gzip size, and a 1 GiB
    # shard held decompressed-in-full would triple the task heap)
    chunk_budget = 32 << 20

    def parse(b: pa.Table):
        from pyarrow import fs as pafs

        def flush(rows):
            paths_out, offs, lens, uris, ctypes, payloads = rows
            return pa.table({
                "path": pa.array(paths_out, pa.string()),
                "offset": pa.array(offs, pa.int64()),
                "length": pa.array(lens, pa.int64()),
                "uri": pa.array(uris, pa.string()),
                "content_type": pa.array(ctypes, pa.string()),
                "payload": pa.array(payloads, pa.large_binary()),
            })

        for path in b.column("path").to_pylist():
            f = pafs.LocalFileSystem().open_input_file(path)
            try:
                blob = f.read()
            finally:
                f.close()
            rows = ([], [], [], [], [], [])
            pending = 0
            for off, length, rec in warcx.iter_warc_gz(blob):
                rows[0].append(path)
                rows[1].append(off)
                rows[2].append(length)
                rows[3].append(rec["headers"].get("warc-target-uri", ""))
                rows[4].append(rec["headers"].get("content-type", ""))
                rows[5].append(rec["payload"])
                pending += len(rec["payload"])
                if pending >= chunk_budget:
                    yield flush(rows)
                    rows = ([], [], [], [], [], [])
                    pending = 0
            if rows[0]:
                yield flush(rows)

    return files.map_batches(parse, batch_format="pyarrow", batch_size=1)


def _warc_counters(_frag: int, t: pa.Table) -> dict:
    import pyarrow.compute as pc

    # an empty fragment's column is null-typed: cast before measuring
    lens = pc.utf8_length(t["main_text"].cast(pa.string()))
    return {"records": t.num_rows,
            "chars_extracted": int(pc.sum(lens).as_py() or 0),
            "empty_docs": int(pc.sum(pc.equal(lens, 0)).as_py() or 0)}


def run_warc_extract_with_checkpoint(
    shard_paths: list[str],
    out_root: str,
    num_fragments: int = 4,
) -> dict:
    """Resumable WARC-shard extraction (the north-rule checkpoint
    contract on the crawl input shape): shards are pinned into
    ``num_fragments`` size-balanced FILE GROUPS on the first run
    (``checkpoint.pin_plan`` mode ``warc_shards``, guarded like every
    other plan), and ``checkpoint.run_fragments`` has each pending
    fragment read only its shards, extract main text per record, and
    commit a lineage+counter manifest (records / extracted chars /
    empty docs, plus wall, throughput and shard-count metrics). A
    killed run reprocesses at most one in-flight fragment; every shard
    file is read exactly once per completed job."""
    from ..functions.charsetx import decode_html
    from ..functions.htmlx import extract_main_text
    from ..state import checkpoint as ckpt

    groups = ckpt.pin_plan(out_root, "warc_shards", num_fragments,
                           sorted(shard_paths))["groups"]

    def extract(b: pa.Table) -> pa.Table:
        uris = b.column("uri").to_pylist()
        # WHATWG-order charset sniffing, never strict utf-8: a real
        # crawl shard carries UTF-16+BOM / latin-1 / header-declared
        # payloads (build_warc_corpus(charset_mix=True) plants exactly
        # these) and one bad record must not abort the fragment
        texts = [extract_main_text(decode_html(p, ct)[0])
                 for p, ct in zip(b.column("payload").to_pylist(),
                                  b.column("content_type").to_pylist())]
        return pa.table({
            "doc_id": pa.array([uri_doc_id(u) for u in uris], pa.int64()),
            "uri": pa.array(uris, pa.string()),
            "main_text": pa.array(texts, pa.string()),
        })

    return ckpt.run_fragments(
        out_root, len(groups),
        lambda frag: read_warc(groups[frag]).map_batches(
            extract, batch_format="pyarrow", batch_size=WARC_BATCH_SIZE),
        _warc_counters, columns=("main_text",),
        metrics=lambda frag: {"shards": len(groups[frag])})
