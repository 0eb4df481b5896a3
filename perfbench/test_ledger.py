"""Pins the Ray Data stats-text parser on stats captured from Ray 2.49.2.

    python3 -m pytest perfbench/test_ledger.py

testdata/stats_ocr_pages.txt is ``Dataset.stats()`` of one ocr_pipeline
round; testdata/stats_text_curate.txt joins the stats of the three
datasets one text_curate round materializes (extraction, the window
index inside strip_dup_spans, the strip), so parent operators repeat.
"""

import os
import time

import pytest

from perfbench import ledger

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def _read(name: str) -> str:
    with open(os.path.join(HERE, name)) as f:
        return f.read()


def test_parse_ocr_stats():
    ops = {o["name"]: o for o in ledger.parse_stats(_read(
        "stats_ocr_pages.txt"))}
    page = ops["MapBatches(explode_media_spans)->MapBatches("
               "_resolve_media_fn)->MapBatches(<lambda>)"]
    assert page["tasks"] == 4 and page["wall_s"] == 6.13
    assert page["rows"] > 0 and page["bytes"] > 0
    assert 0 < page["udf_s"] <= page["task_s"]
    spans = ops["MapBatches(spans_to_union_rows)"]
    assert spans["task_s"] == pytest.approx(6.61e-3)
    assert spans["udf_s"] == pytest.approx(2.8e-3)
    assert (spans["rows"], spans["bytes"]) == (31, 2704)
    sort = ops["Sort"]
    assert sort["all_to_all"] and sort["tasks"] == 2
    assert sort["wall_s"] == 7.96
    # operators without tasks parse to zeros
    union = ops["UnionOperator(MapBatches(spans_to_union_rows), "
                "MapBatches(lines_to_union_rows))"]
    assert (union["tasks"], union["task_s"], union["rows"]) == (0, 0.0, 0)


def test_ocr_ledger_roles():
    led = ledger.operator_ledger([_read("stats_ocr_pages.txt")], 2)
    assert set(led) == {f"op.{r}.{f}" for r, _ in ledger.ROLES
                        for f in ledger.OP_FIELDS}
    assert led["op.page.tasks"] == 4
    assert led["op.page.cpu_use"] == pytest.approx(
        led["op.page.task_s"] / (6.13 * 2))
    assert led["op.recognize.tasks"] == 1
    # union = the two row builders feeding the task-less union
    assert led["op.union.tasks"] == 5
    # reassemble = addpart + the groupby sort + reassemble_partition;
    # the sort's wall (its wait for the whole input) is left out
    assert led["op.reassemble.tasks"] == 5 + 2 + 5
    assert led["op.reassemble.wall_s"] == pytest.approx(0.1 + 0.24)
    for r in ("extract", "window_index", "strip"):
        assert led[f"op.{r}.tasks"] == 0


def test_text_ledger_dedupes_repeated_parents():
    text = _read("stats_text_curate.txt")
    names = [o["name"] for o in ledger.parse_stats(text)]
    assert names.count("MapBatches(extract_interleaved_stage)") == 3
    led = ledger.operator_ledger([text], 2)
    assert led["op.extract.tasks"] == 6
    assert led["op.extract.wall_s"] == 4.01
    # hash_rows, the sort's map and reduce, dup_only
    assert led["op.window_index.tasks"] == 4
    assert led["op.strip.tasks"] == 1
    assert led["op.page.tasks"] == 0


def test_durations():
    assert ledger._seconds("223.29us") == pytest.approx(223.29e-6)
    assert ledger._seconds("6.61ms") == pytest.approx(6.61e-3)
    assert ledger._seconds("1.96s") == 1.96
    with pytest.raises(ValueError):
        ledger._seconds("1.2 min")


def test_tracer_self_time():
    class K:
        @staticmethod
        def outer():
            time.sleep(0.02)
            K.inner()
            K.outer_again()

        @staticmethod
        def inner():
            time.sleep(0.01)

        @staticmethod
        def outer_again():
            K.inner()

    t = ledger.Tracer()
    t.patch(K, "outer", "outer")
    t.patch(K, "inner", "inner")
    t.patch(K, "outer_again", "outer")  # re-entrant: not a new span
    K.outer()
    t.restore()
    assert [s["name"] for s in t.spans] == ["outer", "inner", "inner"]
    ms = t.self_ms()
    assert ms["outer"] >= 20 and ms["inner"] >= 20
    total = (t.spans[0]["end"] - t.spans[0]["start"]) * 1e3
    assert ms["outer"] + ms["inner"] == pytest.approx(total)
    assert K.outer.__name__ == "outer"  # restored
