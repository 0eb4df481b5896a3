"""Benchmark entry point.

    python3 perfbench/run.py --workload ocr_pages|text_curate \
        --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process with its own Ray session,
between two ``ray stop --force``, under a hard timeout, and prints the
worker's result line: {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer ledger
(--trace 1), each metric by name with its unit. Exits non-zero, without
a result, when the run fails or times out; a run under which Ray's own
daemons died is started once more. Work files go to ``.perfbench/``
under the repository root: generated inputs (removed after the run),
Ray's session directory (removed after a run that succeeded; kept as
``ray-failed-<time>/`` when Ray's daemons died) and the traced runs'
kernel spans (``traces/``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")
# a run must end within 180 s; two `ray stop` calls take about 2 s each
TIMEOUT_S = 165
# worker.RAY_FAILED: Ray's own daemons died under the run. The run is
# started once more if the first attempt ended within RETRY_WITHIN_S,
# which leaves the second a full run's time (about 65 s) before
# TIMEOUT_S.
RAY_FAILED = 75
RETRY_WITHIN_S = 90


def _ray_alive() -> bool:
    """True while any Ray process runs: a worker (process title
    ``ray::...``), or a program or script of the installed ray package
    as the first or second argument (``raylet``, ``python3 .../agent.py``).
    Only those two arguments are looked at, so that a process whose
    other arguments merely mention a path with ``ray`` in it does not
    count."""
    spec = importlib.util.find_spec("ray")
    if spec is None:
        return False
    pkg = spec.submodule_search_locations[0] + os.sep
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        if argv[0].startswith("ray::") or any(
                a.startswith(pkg) for a in argv[:2]):
            return True
    return False


def ray_stop() -> None:
    """``ray stop --force`` when a Ray process is alive (the CLI takes
    about 1.5 s even when there is nothing to stop), then wait up to
    10 s for every Ray process to end."""
    if not _ray_alive():
        return
    cmd = ([shutil.which("ray")] if shutil.which("ray")
           else [sys.executable, "-m", "ray.scripts.scripts"])
    subprocess.run(cmd + ["stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)
    deadline = time.monotonic() + 10
    while _ray_alive() and time.monotonic() < deadline:
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(WORKDIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    start = time.monotonic()
    for attempt in (1, 2):
        ray_stop()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=TIMEOUT_S - (time.monotonic() - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"run timed out after {TIMEOUT_S} s", file=sys.stderr)
            return 3
        finally:
            ray_stop()
        if (proc.returncode != RAY_FAILED or attempt == 2
                or time.monotonic() - start > RETRY_WITHIN_S):
            break
        # keep the failed session's logs out of the way of the next run
        failed = os.path.join(WORKDIR, "ray")
        if os.path.isdir(failed):
            os.replace(failed, os.path.join(
                WORKDIR, f"ray-failed-{time.strftime('%Y%m%d-%H%M%S')}"))
        print("Ray's own processes failed; running again", file=sys.stderr)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"malformed result: {lines[-1]}", file=sys.stderr)
        return 1
    # Ray's session logs are kept only for a run that failed
    shutil.rmtree(os.path.join(WORKDIR, "ray"), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
