"""Per-layer measurement: Ray Data operator figures, kernel spans and
process-tree memory.

Operator figures are parsed from ``Dataset.stats()``. Ray Data 2.49's
structured summary (``DatasetStatsSummary``) is only reachable through
private attributes, so the public text form is parsed and
``test_ledger.py`` pins the parser on captured stats text.
"""

from __future__ import annotations

import os
import re
import threading
import time

# Ray Data operators of each layer, matched by substring of the operator
# name (the UDF names the engine passes to map_batches / map_groups).
# An all-to-all operator (the sort behind groupby) belongs to the layer
# of the operator that follows it.
ROLES = (
    ("page", ("explode_media_spans",)),
    ("recognize", ("LineRecognizer",)),
    ("union", ("UnionOperator", "spans_to_union_rows",
               "lines_to_union_rows")),
    ("reassemble", ("addpart", "reassemble_partition")),
    ("extract", ("extract_interleaved_stage",)),
    ("window_index", ("hash_rows", "dup_only")),
    ("strip", ("strip",)),
)
OP_FIELDS = ("wall_s", "task_s", "udf_s", "tasks", "rows_out", "mb_out",
             "cpu_use")

_HEADER = re.compile(r"^(Operator|Suboperator) (\d+) (.*?): ?(.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_WALL = re.compile(r"(?:produced|executed) in (-?[\d.]+)s")
_TOTAL = re.compile(r"(\S+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _seconds(v: str) -> float:
    m = re.fullmatch(r"(-?[\d.]+)(us|ms|s)", v)
    if not m:
        raise ValueError(f"not a Ray Data duration: {v!r}")
    return float(m.group(1)) * _UNIT[m.group(2)]


def parse_stats(text: str) -> list[dict]:
    """One dict per executed operator in a ``Dataset.stats()`` text:
    name, wall_s, tasks, task_s (Σ remote wall), udf_s, rows, bytes, the
    block's raw ``text`` (identifies it when the same parent stats are
    printed again) and ``all_to_all`` (an operator with suboperators).
    Operators printed as ``[execution cached]`` are skipped."""
    ops: list[dict] = []
    cur = None
    for raw in text.splitlines():
        line = raw.strip("\t ")
        if line.startswith("Dataset"):  # throughput / iterator sections
            cur = None
            continue
        m = _HEADER.match(line)
        if m:
            kind, _, name, rest = m.groups()
            if "[execution cached]" in rest:
                cur = None
                continue
            if kind == "Suboperator":
                if cur is None:
                    continue
                cur["all_to_all"] = True
            else:
                cur = {"name": name, "wall_s": 0.0, "tasks": 0,
                       "task_s": 0.0, "udf_s": 0.0, "rows": 0, "bytes": 0,
                       "all_to_all": False, "text": ""}
                ops.append(cur)
                w = _WALL.search(rest)
                if w:
                    cur["wall_s"] = max(0.0, float(w.group(1)))
            t = _TASKS.search(rest)
            if t:
                cur["tasks"] += int(t.group(1))
            cur["text"] += line + "\n"
            continue
        if cur is None or not line.startswith("*"):
            continue
        cur["text"] += line + "\n"
        total = _TOTAL.search(line)
        if line.startswith("* Remote wall time:") and total:
            cur["task_s"] += _seconds(total.group(1))
        elif line.startswith("* UDF time:") and total:
            cur["udf_s"] += _seconds(total.group(1))
        elif line.startswith("* Output num rows per block:") and total:
            cur["rows"] += int(total.group(1))
        elif line.startswith("* Output size bytes per block:") and total:
            cur["bytes"] += int(total.group(1))
    return ops


def role_of(name: str) -> str | None:
    for role, pats in ROLES:
        if any(p in name for p in pats):
            return role
    return None


def operator_ledger(stats_texts: list[str], num_cpus: int) -> dict:
    """``op.<layer>.<field>`` for every layer in ROLES (0 where the
    workload does not run the layer), summed over the operators of the
    layer across ``stats_texts``. wall_s leaves out all-to-all operators,
    whose wall clock includes waiting for their whole input; rows_out
    and mb_out count every block the layer's tasks wrote; cpu_use is
    task_s / (wall_s x num_cpus)."""
    acc = {role: dict.fromkeys(("wall_s", "task_s", "udf_s", "tasks",
                                "rows", "bytes"), 0)
           for role, _ in ROLES}
    seen = set()
    for text in stats_texts:
        ops = parse_stats(text)
        for i, op in enumerate(ops):
            if op["text"] in seen:
                continue
            seen.add(op["text"])
            role = role_of(op["name"])
            if op["all_to_all"]:
                role = next((role_of(o["name"]) for o in ops[i + 1:]
                             if not o["all_to_all"]), None)
            if role is None:
                continue
            a = acc[role]
            if not op["all_to_all"]:
                a["wall_s"] += op["wall_s"]
            for k in ("task_s", "udf_s", "tasks", "rows", "bytes"):
                a[k] += op[k]
    out = {}
    for role, a in acc.items():
        cpu = a["task_s"] / (a["wall_s"] * num_cpus) if a["wall_s"] else 0.0
        vals = {"wall_s": a["wall_s"], "task_s": a["task_s"],
                "udf_s": a["udf_s"], "tasks": a["tasks"],
                "rows_out": a["rows"], "mb_out": a["bytes"] / 2**20,
                "cpu_use": cpu}
        for f in OP_FIELDS:
            out[f"op.{role}.{f}"] = vals[f]
    return out


class Tracer:
    """In-memory spans around wrapped functions (single thread). A call
    of a kernel made inside a span of the same kernel is not a new span,
    so self times add up to the traced wall time without double
    counting."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def patch(self, owner, attr: str, kernel: str) -> None:
        """Replace ``owner.attr`` (module function or class method) by a
        traced wrapper until ``restore``."""
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))

        def traced(*args, **kwargs):
            if any(self.spans[i]["name"] == kernel for i in self._stack):
                return fn(*args, **kwargs)
            span = {"name": kernel, "parent": self._stack[-1]
                    if self._stack else None, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def self_ms(self) -> dict:
        """Kernel name -> total self time (span minus its child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (
                s["end"] - s["start"] - c) * 1e3
        return out


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(p))
    return kids


def tree_rss_mb(root: int) -> float:
    """Summed resident set size of ``root`` and all its descendants (the
    benchmark process and the Ray processes it starts)."""
    kids = _children()
    todo, total = [root], 0
    page = os.sysconf("SC_PAGE_SIZE")
    while todo:
        pid = todo.pop()
        todo += kids.get(pid, [])
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total / 2**20


class RssSampler:
    """Samples tree_rss_mb(os.getpid()) every ``interval`` seconds on a
    daemon thread; ``take_peak`` returns the peak since the last call."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self._peak = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        root = os.getpid()
        while not self._stop.wait(self.interval):
            v = tree_rss_mb(root)
            with self._lock:
                self._peak = max(self._peak, v)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def take_peak(self) -> float:
        v = tree_rss_mb(os.getpid())
        with self._lock:
            peak, self._peak = max(self._peak, v), 0.0
        return peak
