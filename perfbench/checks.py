"""Output checks computed independently of the engine.

The OCR checks compare against the generator's ground-truth table; the
curation checks compare against the source text and against a plain
Python recomputation of duplicated-window stripping. Nothing here
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

from collections import defaultdict

# Character error rate allowed on a recognized page. The fixture model
# reads the generator's renders almost exactly (one wrong character in
# 23 seeded 19-page corpora, page CER 0.022), while a line-order mix-up
# or a broken recognizer costs whole lines. 0.10 still lets the
# shortest pages (about 30 characters) carry 3 wrong characters.
PAGE_CER_BOUND = 0.10


def edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# ------------------------------------------------------------------ OCR


def ocr_truth(corpus: dict) -> dict:
    """doc_id -> list of ("text", str) / ("page", ref, [gt lines]) items
    in span order, from the input spans and the ground-truth table."""
    lines = defaultdict(list)
    for r in sorted(corpus["gt"], key=lambda r: r["line_order"]):
        lines[r["media_ref"]].append(r["gt_text"])
    truth = {}
    for doc_id, spans in corpus["doc_spans"].items():
        items = []
        for s in sorted(spans, key=lambda s: s["offset"]):
            if s["kind"] == "media":
                items.append(("page", s["media_ref"], lines[s["media_ref"]]))
            else:
                items.append(("text", s["text"]))
        truth[doc_id] = items
    return truth


def check_ocr(truth: dict, rows: list[dict]) -> dict:
    """Check reassembled docs (rows of doc_id, spans, n_pages, n_lines,
    n_skipped_pages, chars_decoded) against ``truth``.

    An operation is a page. A page fails when the engine gives it no
    result: its doc is missing, or a page with text came back skipped
    with no lines. Every other page must have the right span sequence
    (kind, media_ref, order), exactly its ground-truth line count, and
    a page CER within PAGE_CER_BOUND; the title spans must be exact and
    exactly the pages without text must be skipped."""
    out = {r["doc_id"]: r for r in rows}
    pages = failed = char_errors = 0
    problems: list[str] = []
    for doc_id, items in truth.items():
        n_pages = sum(1 for it in items if it[0] == "page")
        pages += n_pages
        r = out.get(doc_id)
        if r is None:
            failed += n_pages
            continue
        spans = r["spans"]
        if [s["offset"] for s in spans] != list(range(len(spans))):
            problems.append(f"{doc_id}: span offsets not 0..n-1")
        pos, want_skipped = 0, 0
        for k, it in enumerate(items):
            s = spans[pos] if pos < len(spans) else None
            if it[0] == "text":
                if s is None or (s["kind"], s["text"], s["media_ref"]) != (
                        "text", it[1], None):
                    problems.append(f"{doc_id}: text span {pos} differs")
                pos += 1
                continue
            _, ref, gt = it
            if s is None or (s["kind"], s["text"], s["media_ref"]) != (
                    "media", None, ref):
                problems.append(f"{doc_id}: media span {ref} missing")
                break
            pos += 1
            # recognized lines follow their page's media span, up to the
            # next media span or the next input text span
            stop = next((i[1] for i in items[k + 1:k + 2] if i[0] == "text"),
                        None)
            got = []
            while pos < len(spans) and spans[pos]["kind"] == "text" \
                    and spans[pos]["text"] != stop:
                got.append(spans[pos]["text"])
                pos += 1
            if not gt:
                want_skipped += 1
                if got:
                    problems.append(f"{ref}: page without text gave lines")
                continue
            if not got:
                failed += 1
                continue
            if len(got) != len(gt):
                problems.append(f"{ref}: {len(got)} lines, want {len(gt)}")
                continue
            err = sum(edit_distance(g, t) for g, t in zip(got, gt))
            char_errors += err
            cer = err / max(1, sum(len(t) for t in gt))
            if cer > PAGE_CER_BOUND:
                problems.append(f"{ref}: page CER {cer:.3f}")
        if pos != len(spans):
            problems.append(f"{doc_id}: {len(spans) - pos} extra spans")
        if r["n_pages"] != n_pages:
            problems.append(f"{doc_id}: n_pages {r['n_pages']} != {n_pages}")
        if r["n_skipped_pages"] != want_skipped:
            problems.append(f"{doc_id}: {r['n_skipped_pages']} skipped "
                            f"pages, want {want_skipped}")
    extra = set(out) - set(truth)
    if extra:
        problems.append(f"unknown docs in output: {sorted(extra)[:3]}")
    skipped = sum(r["n_skipped_pages"] for r in rows)
    if skipped != 1:
        problems.append(f"{skipped} skipped pages in the corpus, want 1")
    return {"attempted": pages, "failed": failed, "problems": problems,
            "char_errors": char_errors}


def check_counters(truth: dict, counters: dict, rows: list[dict],
                   char_errors: int) -> list[str]:
    """The job's aggregated manifest counters against sums over the
    ground truth. chars_decoded must equal the characters of the output
    lines, which differ from the ground truth's by at most the
    recognition's character errors."""
    pages = [it for items in truth.values() for it in items
             if it[0] == "page"]
    want = {
        "docs": len(truth),
        "pages": len(pages),
        "lines_segmented": sum(len(p[2]) for p in pages),
        "skipped_pages": sum(1 for p in pages if not p[2]),
    }
    problems = [f"counter {k} = {counters.get(k)}, want {v}"
                for k, v in want.items() if counters.get(k) != v]
    chars = counters.get("chars_decoded")
    if chars != sum(r["chars_decoded"] for r in rows) or abs(
            chars - sum(len(t) for p in pages for t in p[2])) > char_errors:
        problems.append(f"counter chars_decoded = {chars} disagrees with "
                        f"the output and the ground truth")
    return problems


# ------------------------------------------------------------ curation


def check_extract(truth: dict, rows: list[dict]) -> dict:
    """Each doc's extracted spans: the ``Story <i>`` heading, then text
    spans whose join is the whitespace-normalized body, with exactly
    the ``img://<i>/`` media spans wrap_html plants (one, after a body
    paragraph, on every third doc). An operation is a doc; a doc missing
    from the output failed."""
    out = {r["doc_id"]: r["spans"] for r in rows}
    failed = 0
    problems: list[str] = []
    for doc_id, (i, body) in truth.items():
        spans = out.get(doc_id)
        if spans is None:
            failed += 1
            continue
        texts = [s["text"] for s in spans if s["kind"] == "text"]
        media = [s for s in spans if s["kind"] == "media"]
        if [s["offset"] for s in spans] != list(range(len(spans))):
            problems.append(f"{doc_id}: offsets not 0..n-1")
        if not texts or texts[0] != f"Story {i}":
            problems.append(f"{doc_id}: heading missing")
        elif " ".join(texts[1:]) != " ".join(body.split()):
            problems.append(f"{doc_id}: body text differs")
        want_media = 1 if i % 3 == 0 else 0
        if len(media) != want_media or any(
                s["text"] is not None
                or not s["media_ref"].startswith(f"img://{i}/")
                or s["offset"] < 2 for s in media):
            problems.append(f"{doc_id}: media spans differ")
    extra = set(out) - set(truth)
    if extra:
        problems.append(f"unknown docs in output: {sorted(extra)[:3]}")
    return {"attempted": len(truth), "failed": failed, "problems": problems}


def strip_truth(texts: dict, window: int, min_docs: int) -> dict:
    """Recompute duplicated-window stripping over exact token windows:
    a W-word window is duplicated when at least ``min_docs`` distinct
    docs contain it; every word a duplicated window covers is dropped,
    and docs left without words are dropped. Returns the expected
    doc_id -> clean text plus the counts the ledger reports."""
    toks = {d: t.split() for d, t in texts.items()}
    docs_of = defaultdict(set)
    windows = 0
    for d, ws in toks.items():
        for p in range(len(ws) - window + 1):
            docs_of[tuple(ws[p:p + window])].add(d)
            windows += 1
    dup = {w for w, ds in docs_of.items() if len(ds) >= min_docs}
    clean, stripped = {}, 0
    for d, ws in toks.items():
        covered = [False] * len(ws)
        for p in range(len(ws) - window + 1):
            if tuple(ws[p:p + window]) in dup:
                covered[p:p + window] = [True] * window
        kept = [w for w, c in zip(ws, covered) if not c]
        stripped += len(ws) - len(kept)
        if kept:
            clean[d] = " ".join(kept)
    return {"clean": clean, "windows": windows, "dup_windows": len(dup),
            "words_stripped": stripped}


def check_strip(expected: dict, rows: list[dict]) -> list[str]:
    got = {r["doc_id"]: r["clean_text"] for r in rows}
    if len(got) != len(rows):
        return ["duplicate doc ids in strip output"]
    want = expected["clean"]
    bad = [d for d in set(want) | set(got) if want.get(d) != got.get(d)]
    return [f"{len(bad)} docs strip differently, e.g. {sorted(bad)[:3]}"] \
        if bad else []
