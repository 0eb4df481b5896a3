"""bench.py: the pair summary, the level runner and its two knobs."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pairs_alternate_and_summarize_by_median():
    """Pairs alternate which level runs first; each level reports its
    median and IQR, and the efficiency comes from the medians (best-of
    would give 40 / 9 / 4 = 1.11 here, the mean of the pairs 1.27)."""
    import bench

    secs = {1: iter([40.0, 44.0, 42.0, 41.0, 100.0]),
            4: iter([10.0, 12.0, 11.0, 10.5, 9.0])}
    calls = []

    def fake_level(ncpu, leg):
        calls.append((ncpu, leg))
        sec = next(secs[ncpu])
        return {"value": sec, "session_sec": 2.0, "pages_per_sec": 720 / sec}

    runs_lo, runs_hi = bench.interleave("ocr", (1, 4), 5, run=fake_level)
    assert [n for n, _ in calls] == [1, 4, 4, 1, 1, 4, 4, 1, 1, 4]
    assert {leg for _, leg in calls} == {"ocr"}

    s = bench.pair_summary(1, 4, runs_lo, runs_hi,
                           {"pages_per_sec": "pages_per_sec"})
    assert s["runs"] == 5
    assert (s["sec_lo"], s["sec_lo_iqr"]) == (42.0, 3.0)
    assert (s["sec_hi"], s["sec_hi_iqr"]) == (10.5, 1.0)
    assert (s["session_sec_hi"], s["session_sec_hi_iqr"]) == (2.0, 0.0)
    assert s["pages_per_sec_hi"] == round(720 / 10.5, 3)
    assert s["scaling_efficiency"] == 1.0
    # per-pair efficiencies 1.0, 0.917, 0.955, 0.976, 2.778
    effs = sorted(a / b / 4 for a, b in zip([40, 44, 42, 41, 100],
                                            [10, 12, 11, 10.5, 9]))
    assert s["scaling_efficiency_iqr"] == round(effs[3] - effs[1], 3)


def test_run_level_extract_leg():
    """run_level(1, "extract") runs the extraction leg in a fresh
    process and one 1-CPU Ray session and returns its record; the
    process group is killed after 180 s."""
    env = dict(os.environ, GRAFT_SF_DIR="/root/testdata/sf0.001",
               PYTHONPATH=REPO)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import json, bench; "
         "print(json.dumps(bench.run_level(1, 'extract')))"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_level(1, 'extract') did not finish within 180 s")
    assert proc.returncode == 0, err[-2000:]
    rec = json.loads(out.strip().splitlines()[-1])

    import bench

    assert rec["metric"] == "extract_e2e_sec"
    assert rec["num_cpus"] == 1
    assert rec["sf"] == "/root/testdata/sf0.001"
    assert rec["extract_docs"] == 500 * bench.EXTRACT_REPEAT
    assert rec["extract_spans"] > rec["extract_docs"]
    assert rec["value"] == rec["extract_sec"] > 0
    assert rec["extract_docs_per_sec"] > 0
    assert rec["session_sec"] > 0


def test_bench_reads_two_env_knobs():
    """bench.py reads GRAFT_SF_DIR and RAY_GRAFT_CPUS and no other
    environment variable; the parent passes the leg by --leg."""
    with open(os.path.join(REPO, "bench.py"), encoding="utf-8") as f:
        src = f.read()
    read = re.findall(
        r"os\.(?:environ\.get|getenv)\(\s*[\"'](\w+)|os\.environ\[\s*[\"'](\w+)",
        src)
    assert {a or b for a, b in read} == {"GRAFT_SF_DIR", "RAY_GRAFT_CPUS"}
    assert set(re.findall(r"\b(?:GRAFT|RAY)_[A-Z_]+", src)) == {
        "GRAFT_SF_DIR", "RAY_GRAFT_CPUS"}
