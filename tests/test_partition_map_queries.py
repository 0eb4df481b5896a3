"""Queries whose keyed exchanges run on relational.partition_map /
keyed_combine and that no other test runs: each must equal its
``__ray_entry__.oracle_sql()`` twin at sf0.001 under the
``scripts/check_oracle.py`` comparison (``canon`` on both sides, exact
values, and no int/float dtype-kind mismatch)."""

import os
import sys

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

QUERIES = ["pmi_bigrams", "ngram_diversity", "top_terms_by_source",
           "quality_percentile", "unigram_logprob", "video_dups",
           "audio_dups", "source_overlap", "warc_curate"]


@pytest.fixture(scope="module")
def con():
    import duckdb

    from check_oracle import TABLES

    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM "
              f"read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", QUERIES)
def test_matches_oracle(ray_session, con, name):
    import __ray_entry__ as entry
    from check_oracle import canon, to_pandas

    got, got_kinds = canon(to_pandas(entry.queries()[name](SF)))
    want, want_kinds = canon(con.sql(entry.oracle_sql()[name]).df())
    assert len(got) > 0
    assert list(got.columns) == list(want.columns)
    assert not [c for c in got.columns
                if {got_kinds[c], want_kinds[c]} in ({"i", "f"},
                                                     {"u", "f"})]
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=0, atol=0)
