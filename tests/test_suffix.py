"""Distributed suffix array (pipelines/suffix.py): exact equality vs a
serial numpy doubling reference on the real corpus, planted fixture,
and layout invariance."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.001"


def test_suffix_array_banana(ray_session):
    from dup_ocropy_ray.pipelines.suffix import (suffix_array,
                                                 suffix_array_ref)

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["b a n a", "n a"]})
    ranks, n = suffix_array(rd.from_pandas(df))
    got = ranks.to_pandas().sort_values("rank")["pos"].to_numpy()
    assert n == 6
    assert got.tolist() == suffix_array_ref(
        "b a n a n a".split()).tolist() == [5, 3, 1, 0, 4, 2]


def test_suffix_array_matches_serial_and_layout(ray_session):
    from dup_ocropy_ray.pipelines.suffix import (corpus_tokens,
                                                 suffix_array,
                                                 suffix_array_ref)

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    ranks, n = suffix_array(docs)
    sa = ranks.to_pandas().sort_values("rank")["pos"].to_numpy()
    toks, total = corpus_tokens(
        rd.read_parquet(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]))
    words = toks.to_pandas().sort_values("pos")["word"].tolist()
    assert n == total == len(words)
    assert np.array_equal(sa, suffix_array_ref(words))

    r8, n8 = suffix_array(docs.repartition(8))
    sa8 = r8.to_pandas().sort_values("rank")["pos"].to_numpy()
    assert n8 == n and np.array_equal(sa8, sa)


def test_suffix_array_empty_and_single(ray_session):
    from dup_ocropy_ray.pipelines.suffix import suffix_array

    empty = pd.DataFrame({"doc_id": [0], "text": [""]})
    ranks, n = suffix_array(rd.from_pandas(empty))
    assert n == 0 and len(ranks.to_pandas()) == 0

    one = pd.DataFrame({"doc_id": [0], "text": ["solo"]})
    ranks, n = suffix_array(rd.from_pandas(one))
    out = ranks.to_pandas()
    assert n == 1 and out["pos"].tolist() == [0]
    assert out["rank"].tolist() == [0]


def test_substring_dedup_exact_matches_hash_approx(ray_session):
    """The suffix-array exact path and the windowed-hash approximation
    compute the same transform (absent hash collisions): value-equal on
    a planted corpus with cross-doc duplicated runs, an intra-doc
    repeated run (NOT duplicated at min_docs=2 — distinct-doc
    semantics), and short/empty docs."""
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.dedup import strip_dup_spans
    from dup_ocropy_ray.pipelines.suffix import substring_dedup_exact

    shared = "alpha beta gamma delta"
    df = pd.DataFrame({
        "doc_id": range(7),
        "text": [
            f"{shared} tail0 one two",
            f"head1 {shared} tail1",
            # intra-doc repeat only: must survive at min_docs=2
            f"rep one rep two {('x y z w ' * 2).strip()} x y z w",
            "unrelated words entirely here now",
            "",            # empty doc drops on both paths
            "tiny",        # shorter than the window
            f"{shared} {shared}",  # dup run twice in one doc, also x-doc
        ],
    })
    ds = rd.from_pandas(df).repartition(3)
    exact = (substring_dedup_exact(ds, window=4, min_docs=2)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    approx = (strip_dup_spans(ds, window=4, min_docs=2)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(exact, approx[exact.columns])
    got = exact.set_index("doc_id")["clean_text"]
    assert got.loc[0] == "tail0 one two"
    assert got.loc[1] == "head1 tail1"
    # doc 2: the intra-doc 'x y z w' windows repeat only within doc 2
    assert "x y z w" in got.loc[2]
    assert 6 not in got.index  # doc 6 is pure duplicated mass -> dropped


def test_substring_dedup_exact_string_doc_ids(ray_session):
    """Non-integer doc ids ride the int64 surrogate key (corpus_tokens
    _doc_surrogate) but the OUTPUT carries the original ids — parity
    with strip_dup_spans on the same string-id corpus."""
    import pandas as pd
    import ray.data as rd
    from dup_ocropy_ray.pipelines.dedup import strip_dup_spans
    from dup_ocropy_ray.pipelines.suffix import substring_dedup_exact

    shared = "lorem ipsum dolor sit amet"
    df = pd.DataFrame({
        "doc_id": [f"doc-{i}" for i in range(5)],
        "text": [
            f"{shared} unique0 endings",
            f"start1 {shared}",
            "totally different content here now",
            "",
            f"{shared}",
        ],
    })
    ds = rd.from_pandas(df).repartition(2)
    exact = (substring_dedup_exact(ds, window=5, min_docs=2)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    approx = (strip_dup_spans(ds, window=5, min_docs=2)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(exact, approx[exact.columns])
    got = exact.set_index("doc_id")["clean_text"]
    assert got.loc["doc-0"] == "unique0 endings"
    assert got.loc["doc-1"] == "start1"
    assert "doc-4" not in got.index  # pure duplicated mass -> dropped


# ------------------------------- maximal duplicated spans (Lee et al.)


def _mx(df, min_len, parts=2):
    from dup_ocropy_ray.pipelines.suffix import (dup_spans_maximal,
                                                 substring_dedup_maximal)

    ds = rd.from_pandas(df).repartition(parts)
    # reindex: a fully-empty result loses its schema in to_pandas()
    clean = (substring_dedup_maximal(ds, min_len=min_len)
             .to_pandas().reindex(columns=["doc_id", "clean_text"])
             .sort_values("doc_id").reset_index(drop=True))
    spans = (dup_spans_maximal(ds, min_len=min_len)
             .to_pandas()
             .reindex(columns=["doc_id", "start", "length"])
             .sort_values(["doc_id", "start"])
             .reset_index(drop=True))
    return clean, spans


def _ref_clean_spans(df, min_len):
    from dup_ocropy_ray.pipelines.suffix import maximal_cover_ref

    recs = list(zip(df.doc_id, df.text))
    cover, spans = maximal_cover_ref(recs, min_len)
    rows = []
    for i, t in recs:
        w = (t or "").split()
        kept = [x for x, c in zip(w, cover[i]) if not c]
        if kept:
            rows.append((i, " ".join(kept)))
    clean = pd.DataFrame(rows, columns=["doc_id", "clean_text"])
    srows = [(i, s, ln) for i, sp in spans.items() for s, ln in sp]
    sdf = (pd.DataFrame(srows, columns=["doc_id", "start", "length"])
           .sort_values(["doc_id", "start"]).reset_index(drop=True))
    return (clean.sort_values("doc_id").reset_index(drop=True), sdf)


def test_maximal_within_doc_repeat(ray_session):
    """A substring repeated INSIDE one document: the min_docs>=2
    windowed family keeps it (only one distinct doc), the maximal
    occurrence-counting path removes both copies — the planted fixture
    the windowed path cannot separate."""
    from dup_ocropy_ray.pipelines.dedup import strip_dup_spans
    from dup_ocropy_ray.pipelines.suffix import substring_dedup_exact

    s = " ".join(f"s{i}" for i in range(10))
    df = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [f"alpha beta {s} gamma delta {s} omega",
                 "totally unrelated words only here"],
    })
    ds = rd.from_pandas(df)
    for fn in (lambda d: strip_dup_spans(d, window=8, min_docs=2),
               lambda d: substring_dedup_exact(d, window=8, min_docs=2)):
        kept = fn(ds).to_pandas().set_index("doc_id")["clean_text"]
        assert kept.loc[1] == df.text[0]  # windowed family: untouched
    clean, spans = _mx(df, 8)
    got = clean.set_index("doc_id")["clean_text"]
    assert got.loc[1] == "alpha beta gamma delta omega"
    assert got.loc[2] == df.text[1]
    assert spans[spans.doc_id == 1][["start", "length"]].values.tolist() \
        == [[2, 10], [14, 10]]


def test_maximal_nested_cross_doc_spans(ray_session):
    """Nested duplicates: docs A,B share a 20-token span; doc C holds a
    12-token INNER sub-span. Maximal spans report the true variable
    lengths (20 in A/B, 12 in C) — a fixed-W window path can only smear
    W-windows."""
    big = [f"w{i}" for i in range(20)]
    inner = big[4:16]  # 12 tokens
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["pre1x " + " ".join(big) + " post1x",
                 "pre2x pre2y " + " ".join(big),
                 "cstart " + " ".join(inner) + " cend1 cend2"],
    })
    clean, spans = _mx(df, 8)
    ref_clean, ref_spans = _ref_clean_spans(df, 8)
    pd.testing.assert_frame_equal(clean, ref_clean)
    pd.testing.assert_frame_equal(spans, ref_spans)
    by = {d: g[["start", "length"]].values.tolist()
          for d, g in spans.groupby("doc_id")}
    assert by[1] == [[1, 20]]
    assert by[2] == [[2, 20]]
    assert by[3] == [[1, 12]]


def test_maximal_selfoverlap_run(ray_session):
    """Periodic self-overlapping repeats ('a'*10): every position is
    covered, the whole doc drops — the coverage union must handle
    overlapping occurrences of the same substring."""
    df = pd.DataFrame({
        "doc_id": [7, 8],
        "text": [" ".join(["a"] * 10), "plain distinct other tokens"],
    })
    clean, spans = _mx(df, 8)
    assert clean.doc_id.tolist() == [8]
    assert spans[["doc_id", "start", "length"]].values.tolist() \
        == [[7, 0, 10]]


def test_maximal_matches_serial_random(ray_session):
    """Randomized corpora with a tiny vocabulary (forces overlapping /
    nested / cross-doc duplicates) against the O(n^2) serial reference,
    plus layout invariance (1 vs 8 input blocks)."""
    rng = np.random.default_rng(42)
    for trial in range(4):
        docs = []
        for d in range(6):
            nw = int(rng.integers(0, 40))
            docs.append(" ".join(
                f"t{rng.integers(3)}" for _ in range(nw)))
        df = pd.DataFrame({"doc_id": range(6), "text": docs})
        min_len = int(rng.integers(3, 7))
        clean, spans = _mx(df, min_len)
        ref_clean, ref_spans = _ref_clean_spans(df, min_len)
        # empty frames carry placeholder dtypes on both sides
        pd.testing.assert_frame_equal(clean, ref_clean,
                                      check_dtype=len(clean) > 0)
        pd.testing.assert_frame_equal(spans, ref_spans,
                                      check_dtype=len(spans) > 0)
        clean1, spans1 = _mx(df, min_len, parts=8)
        pd.testing.assert_frame_equal(clean1, clean)
        pd.testing.assert_frame_equal(spans1, spans)


def test_maximal_string_ids_and_no_dups(ray_session):
    from dup_ocropy_ray.pipelines.suffix import (dup_spans_maximal,
                                                 substring_dedup_maximal)

    df = pd.DataFrame({
        "doc_id": ["x", "y", "z"],
        "text": ["one two three four", "five six seven eight", ""],
    })
    ds = rd.from_pandas(df)
    clean = substring_dedup_maximal(ds, min_len=3).to_pandas()
    assert (clean.sort_values("doc_id").clean_text.tolist()
            == ["one two three four", "five six seven eight"])
    assert len(dup_spans_maximal(ds, min_len=3).to_pandas()) == 0


def test_maximal_duplicate_doc_ids_fail_fast(ray_session):
    """Two rows sharing a doc_id: both maximal variants raise a
    ValueError naming the id column instead of an opaque index error."""
    from dup_ocropy_ray.pipelines.suffix import (dup_spans_maximal,
                                                 substring_dedup_maximal)

    s = " ".join(f"w{i}" for i in range(6))
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": ["a", "a", "b"],
        "text": [f"x {s}", f"y {s}", f"z {s}"]}))
    for fn in (substring_dedup_maximal, dup_spans_maximal):
        with pytest.raises(ValueError, match="'doc_id'"):
            fn(ds, min_len=3).materialize()


def test_maximal_nul_tokens_and_whitespace(ray_session):
    """Reviewer repro: NUL-bearing tokens collide with Ray sort's
    truncate-at-NUL string comparison (and previously with the \\x00
    sentinel scheme); the injective escape keeps rank classes exact.
    Also: the no-dups early exit must emit whitespace-NORMALIZED text
    (the strip path's / SQL twin's string_agg convention), not raw."""
    df = pd.DataFrame({
        "doc_id": ["1", "2"],
        "text": ["p q \x00z k l", "m n p q \x00z j"],
    })
    clean, spans = _mx(df, 3)
    ref_clean, ref_spans = _ref_clean_spans(df, 3)
    pd.testing.assert_frame_equal(clean, ref_clean)
    pd.testing.assert_frame_equal(spans, ref_spans)
    assert spans[["start", "length"]].values.tolist() == [[0, 3], [2, 3]]

    # \x01 (the escape lead byte) round-trips too, incl. self-repeats
    df2 = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["a \x01b \x00c d a \x01b \x00c e",
                 "x a \x01b \x00c y"],
    })
    clean2, spans2 = _mx(df2, 3)
    ref_clean2, ref_spans2 = _ref_clean_spans(df2, 3)
    pd.testing.assert_frame_equal(clean2, ref_clean2)
    pd.testing.assert_frame_equal(spans2, ref_spans2)

    # no-dups early exit: normalized rejoin, empty docs dropped
    df3 = pd.DataFrame({"doc_id": [0, 1],
                        "text": ["foo  bar   baz", "   "]})
    clean3, spans3 = _mx(df3, 3)
    assert clean3.clean_text.tolist() == ["foo bar baz"]
    assert len(spans3) == 0
