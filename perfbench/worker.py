"""One benchmark run in a fresh process and a fresh Ray session.

    python3 -m perfbench.worker --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR

Prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
``perfbench/run.py`` starts this under a hard timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from . import ledger
from .workloads import COUNT_NAMES, KERNELS, WORKLOADS

# Ray gets 2 of the host's 4 CPUs: enough for page tasks and the
# recognizer actor pool to overlap (at 1 CPU ocr_pipeline hangs, see
# README), while this process, the RSS sampler and the Ray system
# processes keep a CPU of their own.
NUM_CPUS = 2
# the workloads keep a few MB in the object store; Ray's default would
# reserve 30% of the host's memory
OBJECT_STORE_MB = 512
# setup_s is the median of SETUPS set-ups, each a fresh Ray session
# start, the media broadcast and the input load (the first load in a
# session also starts a Ray worker process). The session start alone
# varies by a factor of two between runs (2.5-4.5 s), so one set-up a
# run would make setup_s the noisiest metric of all.
SETUPS = 3
# The first round starts and warms the Ray workers (imports, model
# load: about a second more than later rounds on text_curate) and is
# checked but not timed. The timed rounds follow: at least MIN_ROUNDS
# of them, and as many more as fit in --seconds by the median round
# time so far, so that a run measures about --seconds whatever the
# host's speed. Round times jitter by up to a third between
# consecutive rounds (Ray's actor pool and task scheduling), so a run
# needs many rounds for a steady median.
MIN_ROUNDS = 3
# Exit code when Ray's own daemons die under the run (the raylet died
# mid-round once in about 200 runs, cause unknown); run.py then starts
# the run once more. Faults of the engine's code (a task or actor that
# raises or crashes) exit 1 and are not retried.
RAY_FAILED = 75
# Ray puts Unix sockets under its temp dir; Linux caps a socket path at
# 107 bytes and Ray adds up to 64 to the dir.
_MAX_RAY_TMP = 43


def start_session(tmp: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_MB << 20,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=tmp)
    DataContext.get_current().enable_progress_bars = False


def host_cpu() -> tuple[int, int]:
    """(busy, stolen) CPU time of the whole host so far, in clock ticks,
    from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def measure(fn):
    """Runs ``fn()``; returns its result, the wall time and the
    steal-free time: the wall time less the share of the host's CPU time
    (busy + stolen) that the hypervisor stole meanwhile. A vCPU accrues
    steal only while it has work to run, so the share is that of the
    busy vCPUs, which this run keeps busy.

    Every end-to-end time is steal-free. On a VM whose host is
    oversubscribed the hypervisor steals 0-40% of the CPU time for
    minutes at a time; on a 4-vCPU VM that moved the median round time
    of a run by up to 30% between sets of runs, while the steal-free
    median stayed within 5%."""
    b0, s0 = host_cpu()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    b1, s1 = host_cpu()
    stolen = (s1 - s0) / max(1, b1 - b0 + s1 - s0)
    return out, wall, wall * (1 - stolen)


def timed_run(wl, tmp: str, seconds: float) -> dict:
    import ray

    def setup():
        start_session(tmp)
        wl.load()

    setups = []
    for i in range(SETUPS):
        if i:
            ray.shutdown()
        setups.append(measure(setup)[1:])
    results = [wl.check(wl.round())]
    rounds, peaks = [], []
    with ledger.RssSampler() as rss:
        start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start
               + statistics.median(w for w, _ in rounds) <= seconds):
            rss.take_peak()
            out, *times = measure(wl.round)
            rounds.append(times)
            peaks.append(rss.take_peak())
            results.append(wl.check(out))
    ray.shutdown()
    print("wall / steal-free s: setups "
          + " ".join(f"{w:.2f}/{f:.2f}" for w, f in setups) + "; rounds "
          + " ".join(f"{w:.2f}/{f:.2f}" for w, f in rounds),
          file=sys.stderr)
    wall = statistics.median(f for _, f in rounds)
    return {"results": results, "metrics": {
        "setup_s": {"value": statistics.median(f for _, f in setups),
                    "unit": "s"},
        "steal_free_wall_s": {"value": wall, "unit": "s"},
        "steal_free_docs_per_s": {"value": wl.docs / wall,
                                  "unit": "docs/s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }}


class _Capture:
    """Keeps every dataset ``Dataset.materialize`` returns (the engine's
    own calls included) and times ``checkpoint.commit_fragment``, for
    the duration of a ``with`` block."""

    def __enter__(self):
        import ray.data as rd

        from dup_ocropy_ray.state import checkpoint

        self.datasets, self.commit_ms = [], []
        self._undo = [(rd.Dataset, "materialize", rd.Dataset.materialize),
                      (checkpoint, "commit_fragment",
                       checkpoint.commit_fragment)]
        materialize, commit = self._undo[0][2], self._undo[1][2]

        def captured(ds, *a, **kw):
            out = materialize(ds, *a, **kw)
            self.datasets.append(out)
            return out

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return commit(*a, **kw)
            finally:
                self.commit_ms.append((time.perf_counter() - t0) * 1e3)

        rd.Dataset.materialize = captured
        checkpoint.commit_fragment = timed
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in self._undo:
            setattr(owner, attr, fn)


def traced_run(wl, tmp: str, trace_path: str) -> dict:
    """A warm-up round, one round with Ray Data stats, the workload's
    checkpointed job if it has one, then the kernel pass in this
    process. Writes the kernel spans to ``trace_path``."""
    import ray

    start_session(tmp)
    wl.load()
    warm = wl.check(wl.round())
    with _Capture() as cap:
        res = wl.check(wl.round())
    layer = ledger.operator_ledger([d.stats() for d in cap.datasets],
                                   NUM_CPUS)
    results = [warm, res]
    job, commit_ms = {"counts": {}}, []
    if hasattr(wl, "job_pass"):
        with _Capture() as jobcap:
            job = wl.job_pass()
        results.append(job)
        commit_ms = jobcap.commit_ms
    ray.shutdown()
    tracer = ledger.Tracer()
    wl.kernel_pass(tracer)
    with open(trace_path, "w") as f:
        json.dump({"workload": wl.name, "spans": tracer.spans}, f)
    kernels = tracer.self_ms()
    layer.update({f"kernel.{k}_ms": kernels.get(k, 0.0) for k in KERNELS})
    counts = dict(res["counts"], **job["counts"])
    layer.update({k: counts.get(k, 0) for k in COUNT_NAMES})
    med = lambda v: statistics.median(v) if v else 0.0  # noqa: E731
    layer["job.fragment_s"] = med(job.get("fragment_s", []))
    layer["job.commit_ms"] = med(commit_ms)
    units = {"wall_s": "s", "task_s": "s", "udf_s": "s", "tasks": "count",
             "rows_out": "rows", "mb_out": "MB", "cpu_use": "ratio"}
    metrics = {}
    for k, v in layer.items():
        unit = (units[k.rsplit(".", 1)[1]] if k.startswith("op.")
                else "ms" if k.endswith("_ms") else "s" if k.endswith("_s")
                else "MB" if k.endswith("_mb") else "count")
        metrics[k] = {"value": v, "unit": unit}
    return {"results": results, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    from ray.exceptions import (
        LocalRayletDiedError, NodeDiedError, RaySystemError)

    wl = WORKLOADS[args.workload]()
    run_dir = os.path.join(args.workdir, f"run-{os.getpid()}")
    tmp = os.path.join(args.workdir, "ray")
    if len(tmp) > _MAX_RAY_TMP:
        # a checkout path too long for Ray's socket paths
        tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
    t0 = time.perf_counter()
    try:
        wl.generate(run_dir, args.seed)
        print(f"inputs {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        if args.trace:
            traces = os.path.join(args.workdir, "traces")
            os.makedirs(traces, exist_ok=True)
            run = traced_run(wl, tmp, os.path.join(
                traces, f"{wl.name}-seed{args.seed}.json"))
        else:
            run = timed_run(wl, tmp, args.seconds)
    except (LocalRayletDiedError, NodeDiedError, RaySystemError) as e:
        print(f"Ray's own processes failed: {e!r}", file=sys.stderr)
        return RAY_FAILED
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not tmp.startswith(args.workdir):
            shutil.rmtree(tmp, ignore_errors=True)
    print(f"worker {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    results = run["results"]
    problems = [p for r in results for p in r["problems"]]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
