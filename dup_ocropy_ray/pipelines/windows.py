"""Ordered-window operators Ray Data lacks natively: gap-based
sessionization, per-key rolling windows, and an as-of join.

All of them share one partitioning assumption: rows for a key fit in
one partition (per-user event history, per-customer order history).
Each runs on ``relational.partition_map``: a hash tag on the key, one
sort-shuffle exchange on the tag, then the windowed logic vectorized
(numpy searchsorted / sliding windows) across all keys of a partition.
The reference's only windowed op is the training-diagnostics moving
average (ocrolib/common.py:871-882 ``MovingStats``), generalized here
to the event-stream shape a training-data pipeline needs.

At skew (one user with millions of events) the group no longer fits:
salt the key by time-bucket and stitch session boundaries across salt
buckets in a second tiny pass — documented, not needed at these scales.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from .relational import partition_map


def compose_sort_keys(kid: np.ndarray, nts_us: np.ndarray, extra_us: int = 0):
    """Compose (key-rank, µs-timestamp) into ONE int64 sort key with
    overflow-checked headroom: returns ``(comb, span, div)`` where
    ``comb = kid * span + nts_us // div``.

    ``kid`` must be dense ranks (np.unique return_inverse).  The naive
    ``kid * span`` silently wraps int64 once ``n_keys * time_span_us``
    exceeds 2**63 (~40k keys/partition over 7 years at µs resolution), so
    when µs doesn't fit we coarsen the timestamp resolution (ms → s → min
    → h → day) — exact whenever every timestamp and the window are
    aligned to the coarser unit (always true for date/second-resolution
    data) — and raise OverflowError with a partition-count hint otherwise
    rather than return wrong joins."""
    n_keys = int(kid.max()) + 1 if len(kid) else 1
    tmax = int(nts_us.max()) if len(nts_us) else 0
    for div in (1, 1_000, 1_000_000, 60_000_000,
                3_600_000_000, 86_400_000_000):
        span = tmax // div + extra_us // div + 2
        if n_keys * span >= 2**63:
            continue
        if div > 1 and (extra_us % div or (nts_us % div).any()):
            raise OverflowError(
                f"compose_sort_keys: {n_keys} keys x {tmax}us span "
                f"overflows int64 at full resolution and timestamps are "
                f"not aligned to {div}us; spread the keys over more partitions"
            )
        comb = kid.astype(np.int64) * np.int64(span) + nts_us // div
        return comb, np.int64(span), np.int64(div)
    raise OverflowError(
        f"compose_sort_keys: {n_keys} keys x {tmax}us span overflows "
        f"int64 even at day resolution; spread the keys over more "
        f"partitions"
    )


def sessionize(
    events: rd.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    gap: pd.Timedelta = pd.Timedelta(minutes=30),
) -> rd.Dataset:
    """Per-key gap sessionization -> (key, n_sessions, max_session_events,
    n_events). A new session starts when the time since the previous
    event (ordered by ts) exceeds ``gap``.

    Scale shape: one ``partition_map`` exchange on the key, then ONE
    vectorized pass per partition — events lexsorted by (key, ts),
    session breaks found with a single diff, per-key stats with
    bincount/reduceat at key boundaries. Never one UDF call per key."""
    gap_us = np.int64(gap.total_seconds() * 1e6)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b[key_col].to_numpy(np.int64),
                             "ts": b[ts_col]})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        nts = (g["ts"].to_numpy() - g["ts"].to_numpy().min()).astype(
            "timedelta64[us]"
        ).astype(np.int64)
        order = np.lexsort((nts, k))
        ks, ts = k[order], nts[order]
        new_key = np.empty(len(ks), dtype=bool)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        brk = new_key.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap_us
        sid = np.cumsum(brk) - 1
        sess_sizes = np.bincount(sid)
        # sessions are contiguous per key: session's key = key at its start
        sess_key_start = np.nonzero(brk)[0]
        key_start = np.nonzero(new_key)[0]
        # per-key session counts: which key block each session start falls in
        key_of_sess = np.searchsorted(key_start, sess_key_start, side="right") - 1
        n_sessions = np.bincount(key_of_sess, minlength=len(key_start))
        sess_bounds = np.searchsorted(key_of_sess, np.arange(len(key_start)))
        max_sess = np.maximum.reduceat(sess_sizes, sess_bounds)
        n_events = np.diff(np.append(key_start, len(ks)))
        return pd.DataFrame(
            {
                key_col: ks[key_start],
                "n_sessions": n_sessions.astype(np.int64),
                "max_session_events": max_sess.astype(np.int64),
                "n_events": n_events.astype(np.int64),
            }
        )

    return partition_map(events.map_batches(project, batch_format="pandas"),
                         "k", per_part)


def rolling_last(
    events: rd.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window: int = 4,
) -> rd.Dataset:
    """Rolling mean over the trailing ``window`` events per key, ordered
    by ts; returns the FINAL window's mean per key — (key, last_ma).
    MovingStats equivalent (common.py:871-882). Partition-vectorized:
    one lexsort per bucket, tail means via prefix sums at key ends."""

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b[key_col].to_numpy(np.int64),
                             "ts": b[ts_col],
                             "v": b[value_col].astype(np.float64)})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        nts = (g["ts"].to_numpy() - g["ts"].to_numpy().min()).astype(
            "timedelta64[us]"
        ).astype(np.int64)
        order = np.lexsort((nts, k))
        ks, v = k[order], g["v"].to_numpy(np.float64)[order]
        new_key = np.empty(len(ks), dtype=bool)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        key_start = np.nonzero(new_key)[0]
        key_end = np.append(key_start[1:], len(ks))  # exclusive
        cs = np.concatenate([[0.0], np.cumsum(v)])
        tail_start = np.maximum(key_start, key_end - window)
        means = (cs[key_end] - cs[tail_start]) / (key_end - tail_start)
        return pd.DataFrame({key_col: ks[key_start], "last_ma": means})

    return partition_map(events.map_batches(project, batch_format="pandas"),
                         "k", per_part)


def asof_join_aggregate(
    events: rd.Dataset,
    orders: rd.Dataset,
    group_col: str = "event_type",
    direction: str = "backward",
) -> pd.DataFrame:
    """As-of join: each event matches the LATEST order of the same
    customer with o_orderdate <= ts (tie-break: max o_orderkey), where
    custkey = user_id + 1. Aggregated to (event_type, n_events,
    n_matched, sum_price_cents).

    ``direction="forward"`` flips the match to the EARLIEST order with
    o_orderdate >= ts (tie-break: min o_orderkey) — same shuffle, same
    lexsorted history, just the other searchsorted side.

    Scale shape: both sides projected and unioned, ONE ``partition_map``
    exchange on the customer key (never one group per key — per-group
    UDF overhead measured 4-5x), then fully vectorized per partition: keys
    rank-encoded and composed with the microsecond timestamp into one
    int64 sort key; every event resolves with a single searchsorted
    against the (key, date, orderkey)-lexsorted order history."""
    import pyarrow as pa

    def tag_events(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": b["user_id"].to_numpy(np.int64) + 1,
                "side": "e",
                "ts": b["ts"],
                "grp": b[group_col],
                "okey": np.int64(0),
                "price": 0.0,
            }
        )

    def tag_orders(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": b["o_custkey"].to_numpy(np.int64),
                "side": "o",
                "ts": b["o_orderdate"],
                "grp": "",
                "okey": b["o_orderkey"].to_numpy(np.int64),
                "price": b["o_totalprice"],
            }
        )

    both = events.map_batches(tag_events, batch_format="pandas").union(
        orders.map_batches(tag_orders, batch_format="pandas")
    )

    _EMPTY = pd.DataFrame(
        {
            "grp": pd.Series([], dtype="object"),
            "matched": pd.Series([], dtype="int64"),
            "cents": pd.Series([], dtype="int64"),
        }
    )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["side"] == "e"]
        od = g[g["side"] == "o"]
        if len(ev) == 0:
            return _EMPTY
        if len(od) == 0:
            return pd.DataFrame(
                {
                    "grp": ev["grp"].to_numpy(),
                    "matched": np.zeros(len(ev), dtype=np.int64),
                    "cents": np.zeros(len(ev), dtype=np.int64),
                }
            )
        allk = np.concatenate([ev["k"].to_numpy(np.int64),
                               od["k"].to_numpy(np.int64)])
        _, kid_all = np.unique(allk, return_inverse=True)
        kid_e, kid_o = kid_all[: len(ev)], kid_all[len(ev) :]
        all_ts = np.concatenate([ev["ts"].to_numpy(), od["ts"].to_numpy()])
        tmin = all_ts.min()
        nts = (all_ts - tmin).astype("timedelta64[us]").astype(np.int64)
        comb_all, span, _div = compose_sort_keys(kid_all, nts)
        comb_e = comb_all[: len(ev)]
        comb_o = comb_all[len(ev) :]
        okey = od["okey"].to_numpy(np.int64)
        order = np.lexsort((okey, comb_o))  # date asc, okey asc within ties
        cs = comb_o[order]
        cents_o = np.floor(od["price"].to_numpy(np.float64) * 100).astype(
            np.int64
        )[order]
        if direction == "forward":
            # first order at-or-after: left insertion point; the lexsort
            # already puts min okey first within equal (key, ts)
            pos = np.searchsorted(cs, comb_e, side="left")
            valid = pos < len(cs)
            pos = np.minimum(pos, len(cs) - 1)
        else:
            pos = np.searchsorted(cs, comb_e, side="right") - 1
            valid = pos >= 0
            pos = np.maximum(pos, 0)
        # the candidate must belong to the event's key
        valid &= np.where(valid, cs[pos] // span == kid_e, False)
        cents = np.where(valid, cents_o[pos], 0)
        return pd.DataFrame(
            {
                "grp": ev["grp"].to_numpy(),
                "matched": valid.astype(np.int64),
                "cents": cents,
            }
        )

    rows = partition_map(both, "k", per_part)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {"grp": pd.Series([], dtype="object"),
                 "n_events": pd.Series([], dtype="int64"),
                 "n_matched": pd.Series([], dtype="int64"),
                 "cents": pd.Series([], dtype="int64")}
            )
        return b.groupby("grp", as_index=False).agg(
            n_events=("grp", "size"),
            n_matched=("matched", "sum"),
            cents=("cents", "sum"),
        )

    parts = rows.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("grp", as_index=False).agg(
        n_events=("n_events", "sum"),
        n_matched=("n_matched", "sum"),
        cents=("cents", "sum"),
    )
    return pd.DataFrame(
        {
            "event_type": out["grp"],
            "n_events": out["n_events"].astype("int64"),
            "n_matched": out["n_matched"].astype("int64"),
            "sum_price_cents": out["cents"].astype("int64"),
        }
    ).sort_values("event_type").reset_index(drop=True)


def range_join_aggregate(
    orders: rd.Dataset,
    window_days: int = 90,
) -> pd.DataFrame:
    """Range (interval) self-join: each order matches the same customer's
    FOLLOW-UP orders with o_orderdate in [own date, own date +
    window_days), excluding itself. Aggregated to (o_orderpriority of the
    anchor order, n_pairs, sum_price_cents).

    Scale shape: ONE ``partition_map`` exchange on the customer key
    (NOT one group per key — per-group UDF overhead measured 4-5x on
    the dedup ops), then fully vectorized per partition: keys are
    rank-encoded and composed with the microsecond timestamp into a
    single int64 sort key, so every anchor's window resolves with two
    global searchsorteds and a prefix cumsum. A customer with m orders
    costs O(m log m), never O(m^2); no broadcast, no per-pair
    materialization. Int64 headroom is overflow-checked by
    compose_sort_keys (coarsens timestamp resolution when exact, raises
    when not) — never silently wraps."""
    win_us = np.int64(window_days) * 86_400_000_000

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": b["o_custkey"].to_numpy(np.int64),
                "ts": b["o_orderdate"],
                "grp": b["o_orderpriority"],
                "price": b["o_totalprice"],
            }
        )

    _EMPTY = pd.DataFrame(
        {
            "grp": pd.Series([], dtype="object"),
            "n_pairs": pd.Series([], dtype="int64"),
            "cents": pd.Series([], dtype="int64"),
        }
    )

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        ts = g["ts"].to_numpy()
        nts = (ts - ts.min()).astype("timedelta64[us]").astype(np.int64)
        _, kid = np.unique(k, return_inverse=True)
        comb, span, div = compose_sort_keys(kid, nts, extra_us=int(win_us))
        win = win_us // div
        cents = np.floor(g["price"].to_numpy(dtype=np.float64) * 100).astype(
            np.int64
        )
        order = np.argsort(comb, kind="stable")
        cs = comb[order]
        cum = np.concatenate([[0], np.cumsum(cents[order])])
        lo = np.searchsorted(cs, comb, side="left")
        hi = np.searchsorted(cs, comb + win, side="left")
        # every anchor's own row lies in [lo, hi): subtract the self-pair
        n = hi - lo - 1
        keep = n > 0
        return pd.DataFrame(
            {
                "grp": g["grp"].to_numpy()[keep],
                "n_pairs": n[keep],
                "cents": cum[hi[keep]] - cum[lo[keep]] - cents[keep],
            }
        )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return _EMPTY
        return b.groupby("grp", as_index=False).agg(
            n_pairs=("n_pairs", "sum"), cents=("cents", "sum")
        )

    rows = partition_map(orders.map_batches(project, batch_format="pandas"),
                         "k", per_part)
    parts = rows.map_batches(partial, batch_format="pandas").to_pandas()
    if len(parts) == 0 or "grp" not in parts.columns:
        parts = _EMPTY
    out = parts.groupby("grp", as_index=False).agg(
        n_pairs=("n_pairs", "sum"), cents=("cents", "sum")
    )
    return pd.DataFrame(
        {
            "o_orderpriority": out["grp"],
            "n_pairs": out["n_pairs"].astype("int64"),
            "sum_price_cents": out["cents"].astype("int64"),
        }
    ).sort_values("o_orderpriority").reset_index(drop=True)


# ------------------------------------------------------------ ordered scan


def ordered_scan(
    ds: "rd.Dataset",
    order_col: str,
    sum_cols: tuple = (),
    max_cols: tuple = (),
) -> "rd.Dataset":
    """Distributed PREFIX SCAN over a global ordering — the streaming
    primitive behind watermarks and running totals, which no plain
    groupby can express (every row depends on ALL earlier rows).

    Three steps, none corpus-scale on the driver: (1) range-sort on
    ``order_col`` and materialize (fixes block boundaries); (2) one pass
    emits a per-BLOCK summary row (sums / maxima) — the driver reduce is
    one row per block; (3) block prefixes are broadcast and a second
    pass combines them with the in-block running scan. Scanned columns
    must be int64 (exact; float running sums are order-dependent).

    Adds, per scanned column: ``run_<c>`` = INCLUSIVE running sum,
    ``wm_<c>`` = EXCLUSIVE running max (the watermark BEFORE each row;
    int64-min sentinel for the first row)."""
    import ray

    _SENT = np.iinfo(np.int64).min
    s = ds.sort(order_col).materialize()

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"_min_id": pd.Series([], dtype="int64")} | {
                f"s_{c}": pd.Series([], dtype="int64") for c in sum_cols} | {
                f"m_{c}": pd.Series([], dtype="int64") for c in max_cols})
        row = {"_min_id": [np.int64(b[order_col].iloc[0])]}
        for c in sum_cols:
            row[f"s_{c}"] = [np.int64(b[c].sum())]
        for c in max_cols:
            row[f"m_{c}"] = [np.int64(b[c].max())]
        return pd.DataFrame(row)

    sums = (s.map_batches(summarize, batch_format="pandas", batch_size=None)
            .to_pandas().sort_values("_min_id"))
    # block prefixes are keyed by each block's FIRST order value, so the
    # order column must be unique (it is for event_id/doc_id); duplicate
    # keys straddling a block boundary would silently collide here
    if sums["_min_id"].duplicated().any():
        raise ValueError(
            f"ordered_scan requires unique values in {order_col!r}: "
            "duplicate keys cross block boundaries")
    pre: dict = {}
    for c in sum_cols:
        pre[("sum", c)] = dict(zip(
            sums["_min_id"],
            sums[f"s_{c}"].cumsum().shift(1).fillna(0).astype("int64")))
    for c in max_cols:
        pre[("max", c)] = dict(zip(
            sums["_min_id"],
            sums[f"m_{c}"].cummax().shift(1).fillna(_SENT).astype("int64")))
    pre_ref = ray.put(pre)

    def apply(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b
        P = ray.get(pre_ref)  # zero-copy block-prefix lookup per task
        first = np.int64(b[order_col].iloc[0])
        out = b.copy()
        for c in sum_cols:
            out[f"run_{c}"] = (np.cumsum(b[c].to_numpy(np.int64))
                               + P[("sum", c)][first])
        for c in max_cols:
            pref = P[("max", c)][first]
            r = np.maximum.accumulate(b[c].to_numpy(np.int64))
            # exclusive watermark: prior blocks' max folded into the
            # shifted in-block running max
            out[f"wm_{c}"] = np.concatenate(
                [[pref], np.maximum(r[:-1], pref)])
        return out

    return s.map_batches(apply, batch_format="pandas", batch_size=None)


def window_dedup_events(
    events: rd.Dataset,
    key_cols: tuple[str, str] = ("user_id", "event_type"),
    ts_col: str = "ts",
    id_col: str = "event_id",
    window: pd.Timedelta = pd.Timedelta(hours=1),
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Time-windowed event dedup: keep an event only if the PREVIOUS
    event with the same key (ordered by ts, id) is more than ``window``
    older (or absent) — the streaming-log shape of "suppress repeats
    within an hour".

    Same scale skeleton as sessionize: one ``partition_map`` exchange
    on the key columns, then per partition a single lexsort by (key, ts,
    id) + one vectorized diff; the survivor mask never leaves the
    partition. Key identity uses the raw columns (carried through the
    shuffle), not the coarse partition hash."""
    win_us = np.int64(window.total_seconds() * 1e6)
    k1, k2 = key_cols

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return b[[k1, k2, ts_col, id_col]]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        cols = {
            k1: g[k1].to_numpy(),
            k2: g[k2].to_numpy(dtype=object),
            ts_col: g[ts_col].to_numpy(),
            id_col: g[id_col].to_numpy(np.int64),
        }
        ts64 = cols[ts_col].astype("datetime64[us]").astype(np.int64)
        # dense rank of the composite key within the partition
        _, kid = np.unique(
            np.char.add(np.char.add(cols[k1].astype("U"), "\x1f"),
                        cols[k2].astype("U")), return_inverse=True)
        order = np.lexsort((cols[id_col], ts64, kid))
        ks, ts = kid[order], ts64[order]
        keep_sorted = np.empty(len(ks), dtype=bool)
        keep_sorted[0] = True
        keep_sorted[1:] = (ks[1:] != ks[:-1]) | (ts[1:] - ts[:-1] > win_us)
        keep = np.zeros(len(ks), dtype=bool)
        keep[order] = keep_sorted
        out = pd.DataFrame({c: v[keep] for c, v in cols.items()})
        return out

    return partition_map(
        events.map_batches(project, batch_format="pandas", batch_size=65536),
        [k1, k2], per_part, num_partitions=num_partitions)


def rate_limit_events(
    events: rd.Dataset,
    limit: int = 3,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    window: str = "h",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Per-key per-window cap: keep at most ``limit`` events per
    (key, window-bucket), earliest first (order ts then id) — the
    ingestion rate-limit / per-user quota shape of streaming curation
    (SQL twin: QUALIFY row_number() OVER (PARTITION BY key,
    date_trunc(window, ts) ORDER BY ts, id) <= limit).

    Same scale skeleton as window_dedup_events: one ``partition_map``
    exchange on the key, then per partition a single lexsort by (key,
    bucket, ts, id) and a vectorized running-count-within-group mask
    (cumcount via segment-start subtraction — no Python loop). The
    window bucket is a datetime truncation, so a key's events in one
    bucket always co-locate (they share the key hash)."""

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key_col, ts_col, id_col]]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        key = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype("datetime64[us]")
        bucket = ts.astype(f"datetime64[{window}]").astype(np.int64)
        ts64 = ts.astype(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        # dense rank of (key, bucket)
        _, kid = np.unique(
            np.char.add(np.char.add(key.astype("U"), "\x1f"),
                        bucket.astype("U")), return_inverse=True)
        order = np.lexsort((ids, ts64, kid))
        ks = kid[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        idx = np.arange(len(ks), dtype=np.int64)
        starts = np.maximum.accumulate(np.where(new, idx, 0))
        cum = idx - starts  # 0-based rank within (key, bucket)
        keep = np.zeros(len(ks), dtype=bool)
        keep[order] = cum < limit
        return pd.DataFrame({
            key_col: key[keep],
            ts_col: ts[keep],
            id_col: ids[keep],
        })

    return partition_map(
        events.map_batches(project, batch_format="pandas", batch_size=65536),
        key_col, per_part, num_partitions=num_partitions)


def funnel_steps(
    events: rd.Dataset,
    steps: list[str],
    window: pd.Timedelta = pd.Timedelta(hours=24),
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Ordered funnel analysis: how many users reach each step, where
    step k+1 must occur strictly AFTER the user's step-k time and
    within ``window`` of it (earliest-completion semantics: step 1
    anchors at the user's first step-1 event; each later step at the
    first qualifying event). Returns (step_no, step, n_users).

    Scale shape: ONE ``partition_map`` exchange on the key co-locates
    each user's events; inside a partition the whole chain is a
    sequence of C-level groupby-min / map / filter passes across ALL
    its users at once (no per-user Python). The caller receives
    partitions x steps count rows."""
    win_us = np.int64(window.total_seconds() * 1e6)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[key_col, ts_col, type_col]]
        return out[out[type_col].isin(steps)]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        ts64 = g[ts_col].to_numpy().astype(
            "datetime64[us]").astype(np.int64)
        g = pd.DataFrame({"u": g[key_col].to_numpy(),
                          "t": ts64, "e": g[type_col].to_numpy()})
        # step 1: first occurrence per user
        cur = (g[g["e"] == steps[0]].groupby("u")["t"].min())
        counts = [len(cur)]
        for step in steps[1:]:
            ev = g[g["e"] == step]
            anchor = ev["u"].map(cur)
            ok = anchor.notna()
            t = ev["t"][ok]
            a = anchor[ok].astype(np.int64)
            qual = (t > a) & (t <= a + win_us)
            cur = (pd.DataFrame({"u": ev["u"][ok][qual],
                                 "t": t[qual]})
                   .groupby("u")["t"].min())
            counts.append(len(cur))
        return pd.DataFrame({
            "step_no": np.arange(1, len(steps) + 1, dtype=np.int64),
            "n_users": np.asarray(counts, dtype=np.int64),
        })

    parts = partition_map(
        events.map_batches(project, batch_format="pandas", batch_size=65536),
        key_col, per_part, num_partitions=num_partitions).to_pandas()
    if "step_no" not in parts.columns:
        parts = pd.DataFrame({"step_no": pd.Series(dtype="int64"),
                              "n_users": pd.Series(dtype="int64")})
    agg = (parts.groupby("step_no", as_index=False)["n_users"].sum()
           .sort_values("step_no").reset_index(drop=True))
    full = pd.DataFrame({"step_no": np.arange(1, len(steps) + 1,
                                              dtype=np.int64),
                         "step": steps})
    out = full.merge(agg, on="step_no", how="left")
    out["n_users"] = out["n_users"].fillna(0).astype("int64")
    return out


def retention_days(
    events: rd.Dataset,
    max_offset: int = 6,
    key_col: str = "user_id",
    ts_col: str = "ts",
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Cohort retention: for each day-offset 0..max_offset, how many
    users had any event exactly that many days after their own first
    active day (day-0 count == total users). Returns (day_offset,
    n_users).

    Scale shape: the tag pass truncates timestamps to DAYS per batch
    (so the shuffle ships (user, day) pairs pre-deduped per batch, not
    raw events), ONE ``partition_map`` exchange on the user co-locates
    each user's days, and a partition computes all its users' offsets
    with two C-level groupby passes; the caller sums partitions x
    offsets rows."""

    def days(b: pd.DataFrame) -> pd.DataFrame:
        day = (b[ts_col].to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        return pd.DataFrame({"u": b[key_col].to_numpy(),
                             "d": day}).drop_duplicates()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "d"])
        d0 = g.groupby("u")["d"].transform("min")
        off = (g["d"] - d0).to_numpy(np.int64)
        keep = off <= max_offset
        cnt = np.bincount(off[keep], minlength=max_offset + 1)
        return pd.DataFrame({
            "day_offset": np.arange(max_offset + 1, dtype=np.int64),
            "n_users": cnt.astype(np.int64),
        })

    parts = partition_map(
        events.map_batches(days, batch_format="pandas", batch_size=65536),
        "u", per_part, num_partitions=num_partitions).to_pandas()
    if "day_offset" not in parts.columns:
        return pd.DataFrame({"day_offset": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64")})
    return (parts.groupby("day_offset", as_index=False)["n_users"].sum()
            .sort_values("day_offset").reset_index(drop=True))


def rolling_distinct(
    events: rd.Dataset,
    window_hours: int = 3,
    key_col: str = "user_id",
    ts_col: str = "ts",
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Sliding-window COUNT DISTINCT: for every hour bucket h, the
    number of distinct keys active in (h - window + 1 .. h] — the
    rolling-active-users shape an exact distinct can't get from
    per-hour counts (distincts don't sum). Returns (hour, n_keys) for
    every hour with at least one active window member.

    Scale shape: each batch pre-dedups to its (hour, key) pairs, then
    REPLICATES each pair to the ``window_hours`` windows it serves —
    shuffle traffic is window x per-batch-distinct pairs, never raw
    events. One ``partition_map`` exchange on the window hour
    co-locates each window; a partition dedups (window, key) across
    batches and counts. The
    replicate-then-dedup trade is the standard exact sliding-distinct
    plan; for big windows switch to per-hour HLL sketches (mergeable,
    sketches.py) and pay the approximation instead."""

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        hour = (b[ts_col].to_numpy().astype("datetime64[h]")
                .astype(np.int64))
        pairs = pd.DataFrame({"h": hour,
                              "k": b[key_col].to_numpy()}).drop_duplicates()
        reps = []
        for d in range(window_hours):
            w = pairs.copy()
            w["w"] = w["h"] + d
            reps.append(w[["w", "k"]])
        return pd.concat(reps, ignore_index=True).drop_duplicates()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["w", "k"])
        c = d.groupby("w", sort=False).size().reset_index(name="n_keys")
        return c

    parts = partition_map(
        events.map_batches(replicate, batch_format="pandas",
                           batch_size=65536),
        "w", per_part, num_partitions=num_partitions).to_pandas()
    if "w" not in parts.columns:
        return pd.DataFrame({"hour": pd.Series(dtype="datetime64[us]"),
                             "n_keys": pd.Series(dtype="int64")})
    out = parts.groupby("w", as_index=False)["n_keys"].sum()
    return (pd.DataFrame({
        "hour": out["w"].to_numpy("datetime64[h]").astype("datetime64[us]"),
        "n_keys": out["n_keys"].astype("int64"),
    }).sort_values("hour").reset_index(drop=True))


def attribution_credit(
    events: rd.Dataset,
    conv_type: str = "purchase",
    touch_types: tuple = ("click", "view"),
    lookback: pd.Timedelta = pd.Timedelta(days=7),
) -> pd.DataFrame:
    """Marketing ATTRIBUTION: for every conversion event, credit the
    FIRST-touch and LAST-touch channel among the user's touch events in
    the lookback window ending at the conversion (ties at equal
    timestamps broken by event_id — first = smallest, last = largest).
    Returns (model, channel, n_conversions) counts.

    Scale shape: one ``partition_map`` exchange on the user co-locates
    each user's events; per partition BOTH models come from two
    searchsorted calls on the composed (user-rank, ts) key (window
    lower bound clamped to the user's block — no per-conversion loop,
    no touches x conversions pair materialization, which is what the
    SQL twin has to build).
    Driver combine is models x channels x partitions rows."""
    look_us = np.int64(lookback.total_seconds() * 1e6)
    kinds = [conv_type, *touch_types]

    def project(b: pd.DataFrame) -> pd.DataFrame:
        keep = b["event_type"].isin(kinds).to_numpy()
        return pd.DataFrame({
            "k": b["user_id"].to_numpy(np.int64)[keep],
            "ts": b["ts"].to_numpy()[keep],
            "eid": b["event_id"].to_numpy(np.int64)[keep],
            "et": b["event_type"].to_numpy(object)[keep],
        })

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        ts = g["ts"].to_numpy().astype("datetime64[us]")
        nts = (ts - ts.min()).astype(np.int64)
        eid = g["eid"].to_numpy(np.int64)
        et = g["et"].to_numpy(object)
        _, kid = np.unique(k, return_inverse=True)
        comb, span, div = compose_sort_keys(kid, nts, extra_us=int(look_us))
        is_touch = np.isin(et, list(touch_types))
        is_conv = et == conv_type
        t_comb = comb[is_touch]
        t_order = np.lexsort((eid[is_touch], t_comb))
        t_comb = t_comb[t_order]
        t_et = et[is_touch][t_order]
        c_comb = comb[is_conv]
        c_block = kid[is_conv].astype(np.int64) * span
        lo = np.searchsorted(t_comb,
                             np.maximum(c_comb - look_us // div, c_block),
                             side="left")
        hi = np.searchsorted(t_comb, c_comb, side="right")
        valid = hi > lo
        frames = []
        for model, ch in (("first", t_et[lo[valid]]),
                          ("last", t_et[hi[valid] - 1])):
            vals, cnt = np.unique(ch.astype(str), return_counts=True)
            frames.append(pd.DataFrame({
                "model": model, "channel": vals,
                "n_conversions": cnt.astype("int64")}))
        return pd.concat(frames, ignore_index=True)

    parts = partition_map(events.map_batches(project, batch_format="pandas"),
                          "k", per_part).to_pandas()
    out = (parts.groupby(["model", "channel"], as_index=False)
           .agg(n_conversions=("n_conversions", "sum")))
    out["n_conversions"] = out["n_conversions"].astype("int64")
    return out.sort_values(["model", "channel"]).reset_index(drop=True)


def coalesce_intervals(
    events: rd.Dataset,
    ts_col: str = "ts",
    key_col: str = "user_id",
    dur_us_col: str = "dur_us",
) -> pd.DataFrame:
    """Per-key INTERVAL COALESCING (gaps-and-islands): merge each key's
    overlapping-or-touching [ts, ts + dur) intervals into islands and
    report per key the island count and total covered microseconds.

    Scale shape: one ``partition_map`` exchange on the key, then a
    single vectorized pass per partition — intervals lexsorted by
    (key, start, end), the running maximum end computed ONCE with
    np.maximum.accumulate over keys made disjoint by the composed
    (key-rank, ts) keyspace (a new key's start always exceeds the
    previous key's offset block, so the cummax resets itself), islands
    cut where start > cummax(prev end).
    Nothing is per-row Python; driver sees keys-per-partition rows."""

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": b[key_col].to_numpy(np.int64),
            "ts": b[ts_col],
            "dur": b[dur_us_col].to_numpy(np.int64),
        })

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        ts = g["ts"].to_numpy().astype("datetime64[us]")
        nts = (ts - ts.min()).astype(np.int64)
        dur = g["dur"].to_numpy(np.int64)
        _, kid = np.unique(k, return_inverse=True)
        comb, span, div = compose_sort_keys(kid, nts,
                                            extra_us=int(dur.max()))
        if div != 1:
            # durations must survive the coarsening exactly
            if (dur % div).any():
                raise OverflowError(
                    "coalesce_intervals: durations not aligned to the "
                    "coarsened time unit; spread the keys over more "
                    "partitions")
        s = comb
        e = comb + dur // div
        order = np.lexsort((e, s))
        s, e, kid_s = s[order], e[order], kid[order]
        prev_max = np.maximum.accumulate(e)
        new_island = np.empty(len(s), dtype=bool)
        new_island[0] = True
        # strictly-greater start cuts an island; key changes always cut
        # (the composed keyspace makes a new key's s exceed every prior e)
        new_island[1:] = s[1:] > prev_max[:-1]
        isl_start = np.flatnonzero(new_island)
        min_s = s[isl_start]
        max_e = np.maximum.reduceat(e, isl_start)
        covered = (max_e - min_s) * div
        isl_kid = kid_s[isl_start]
        keys, inv = np.unique(isl_kid, return_inverse=True)
        n_islands = np.bincount(inv)
        # int64 accumulation (bincount's float weights would lose
        # exactness past 2^53 µs-sums)
        covered_by_key = np.zeros(len(keys), dtype=np.int64)
        np.add.at(covered_by_key, inv, covered)
        uniq_k = np.unique(k)
        return pd.DataFrame({
            key_col: uniq_k[keys],
            "n_islands": n_islands.astype("int64"),
            "covered_us": covered_by_key,
        })

    out = partition_map(events.map_batches(project, batch_format="pandas"),
                        "k", per_part).to_pandas()
    return out.sort_values(key_col).reset_index(drop=True)


def interval_overlap_join(
    a: rd.Dataset,
    b: rd.Dataset | None = None,
    bucket_us: int = 3_600_000_000,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """INTERVAL-OVERLAP JOIN between two large interval sets, aggregated
    per left interval: for every a-row, the count of b-rows with the
    same key satisfying ``a.s < b.e AND b.s < a.e`` plus the sum of the
    matching b ids (a value-level witness that the exact pair set was
    found, not just its size). Inputs carry (id:int64, key:int64,
    s:int64 µs, e:int64 µs) with s < e (callers must drop or bump empty
    intervals — the strict-overlap predicate is only implemented for
    non-empty ones, and a batch-level guard raises otherwise).

    Scale shape — the classic chunked-range partitioning, NO all-pairs
    and NO driver materialization:
      1. Each interval is replicated to every fixed-width time bucket it
         overlaps (one `map_batches` per side, np.repeat — replication
         factor = ceil(duration / bucket_us)).
      2. ONE ``partition_map`` on (key, bucket) co-locates everything that
         can possibly pair. Inside a partition the join is fully
         vectorized across all its (key, bucket) groups at once: group
         ids and µs offsets are composed into one int64 keyspace
         (overflow-checked; disjoint per group, so global searchsorted
         answers per-group range queries), and each pair is counted
         exactly once by the canonical-bucket rule — pairs where
         b.s >= a.s count in bucket(b.s) against the b-rows' OWN-start
         replicas; pairs where b.s < a.s count in bucket(a.s) via the
         prefix-count identity  #{b.s < a.s} - #{b.e <= a.s}  over all
         b-replicas overlapping that bucket (any such b overlaps the
         instant a.s, hence that bucket). Prefix sums of b ids ride the
         same sorted arrays, so the witness sums cost nothing extra.
      3. A second metadata-scale ``partition_map`` on a_id sums the per-replica
         partials exactly and drops zero-overlap rows.
    Driver never sees interval or pair rows; skewed long intervals only
    raise the replication factor of the rows that are actually long.
    Returns a Dataset of (a_id, n_overlap, sum_b) — pair-aggregate scale.

    When both sides derive from one table, pass a SINGLE dataset as
    ``a`` (with ``b=None``) carrying an extra int8 ``side`` column
    (0 = left, 1 = right): one scan, one replicate stage, no union —
    measured ~3x less fixed latency than the two-dataset form on small
    inputs, and one fewer pass at scale.
    Reference analogue: none (ocropy has no interval ops); this is the
    training-data shape for exposure/session overlap attribution."""
    W = np.int64(bucket_us)

    def replicate(side: int | None):
        def f(bt: pd.DataFrame, _side=side) -> pd.DataFrame:
            s = bt["s"].to_numpy(np.int64)
            e = bt["e"].to_numpy(np.int64)
            if len(s) and int((e <= s).sum()):
                raise ValueError(
                    "interval_overlap_join: empty or inverted interval "
                    "(need s < e); filter or bump durations upstream")
            k = bt["key"].to_numpy(np.int64)
            iid = bt["id"].to_numpy(np.int64)
            sd = (np.full(len(s), _side, dtype=np.int8) if _side is not None
                  else bt["side"].to_numpy(np.int8))
            b0 = s // W
            b1 = (e - 1) // W
            n = (b1 - b0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(s)), n)
            off = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(n) - n, n)
            bk = b0[idx] + off
            return pd.DataFrame({
                "k": k[idx], "bk": bk,
                "s": s[idx], "e": e[idx],
                "id": iid[idx],
                "side": sd[idx],
                "own": bk == b0[idx],
            })
        return f

    empty = pd.DataFrame({"a_id": pd.Series([], dtype="int64"),
                          "n_overlap": pd.Series([], dtype="int64"),
                          "sum_b": pd.Series([], dtype="int64")})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        amask = g["side"].to_numpy() == 0
        if not amask.any():
            return empty.copy()
        k = g["k"].to_numpy(np.int64)
        bk = g["bk"].to_numpy(np.int64)
        s = g["s"].to_numpy(np.int64)
        e = g["e"].to_numpy(np.int64)
        iid = g["id"].to_numpy(np.int64)
        own = g["own"].to_numpy(bool)
        _, kid = np.unique(k, return_inverse=True)
        bk0 = bk - bk.min()
        gcode = kid.astype(np.int64) * (int(bk0.max()) + 1) + bk0
        _, gid = np.unique(gcode, return_inverse=True)
        gid = gid.astype(np.int64)
        tmin = int(s.min())
        span = np.int64(int(e.max()) - tmin + 1)
        # deliberately NOT compose_sort_keys: its overflow escape hatch
        # coarsens the time unit, which is only order-preserving — the
        # strict </<= endpoint comparisons below need exact µs values,
        # so the only safe response to overflow is to refuse
        if int(gid.max()) * int(span) + int(span) >= 2 ** 62:
            raise OverflowError(
                "interval_overlap_join: composed (group, time) keyspace "
                "overflows int64; lower bucket_us or num_partitions")
        comb_s = gid * span + (s - tmin)
        comb_e = gid * span + (e - tmin)
        bmask = ~amask

        def sorted_prefix(comb: np.ndarray, ids: np.ndarray):
            order = np.argsort(comb, kind="stable")
            arr = comb[order]
            csum = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(ids[order])])
            return arr, csum

        m1 = bmask & own
        arr1, c1 = sorted_prefix(comb_s[m1], iid[m1])
        arrS, cS = sorted_prefix(comb_s[bmask], iid[bmask])
        arrE, cE = sorted_prefix(comb_e[bmask], iid[bmask])
        qa_lo = comb_s[amask]
        qa_hi = comb_e[amask]
        lo1 = np.searchsorted(arr1, qa_lo, side="left")
        hi1 = np.searchsorted(arr1, qa_hi, side="left")
        n1 = hi1 - lo1
        s1 = c1[hi1] - c1[lo1]
        own_a = own[amask]
        loS = np.searchsorted(arrS, qa_lo, side="left")
        loE = np.searchsorted(arrE, qa_lo, side="right")
        n2 = np.where(own_a, loS - loE, 0)
        s2 = np.where(own_a, cS[loS] - cE[loE], 0)
        return pd.DataFrame({"a_id": iid[amask],
                             "n_overlap": (n1 + n2).astype("int64"),
                             "sum_b": (s1 + s2).astype("int64")})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("a_id", as_index=False)
               .agg(n_overlap=("n_overlap", "sum"),
                    sum_b=("sum_b", "sum")))
        out = out[out["n_overlap"] > 0]
        return out.astype({"a_id": "int64", "n_overlap": "int64",
                           "sum_b": "int64"})

    if b is None:
        rep = a.map_batches(replicate(None), batch_format="pandas")
    else:
        rep = (a.map_batches(replicate(0), batch_format="pandas")
               .union(b.map_batches(replicate(1), batch_format="pandas")))
    pairs = partition_map(rep, ["k", "bk"], per_part,
                          num_partitions=num_partitions)
    return partition_map(pairs, "a_id", final, num_partitions=num_partitions)


HOUR_US = np.int64(3_600_000_000)


def hourly_partials(b: pd.DataFrame, key_col: str, ts_col: str,
                    cents_col: str | None = None) -> pd.DataFrame:
    """Collapse ONE batch to its distinct (key, hour) partial rows —
    the shared pre-shuffle step of every hourly-series operator
    (gapfill_hourly, the change-point query): key ``k``, hour ``hr``,
    count ``n`` per (key, hour) and the optional integer-cent sum
    ``cents``. Output is bounded by keys x hours, metadata scale; the
    operators exchange it with ``partition_map`` on ``k``."""
    hrs = (b[ts_col].to_numpy().astype("datetime64[us]")
           .astype(np.int64) // HOUR_US)
    key, kinv = np.unique(b[key_col].to_numpy(str), return_inverse=True)
    code = kinv.astype(np.int64) * np.int64(1 << 32) + (hrs - hrs.min())
    u, inv = np.unique(code, return_inverse=True)
    n = np.bincount(inv)
    ku = key[(u >> np.int64(32)).astype(np.int64)]
    out = {
        "k": ku,
        "hr": (u & np.int64((1 << 32) - 1)) + hrs.min(),
        "n": n.astype("int64"),
    }
    if cents_col is not None:
        cents = np.zeros(len(u), dtype=np.int64)
        np.add.at(cents, inv, b[cents_col].to_numpy(np.int64))
        out["cents"] = cents
    return pd.DataFrame(out)


def merge_hour_partials(g: pd.DataFrame, value_cols: tuple):
    """Merge a partition's cross-batch (key, hour) partials into one
    sorted series per key: returns ``(keys, kid, hr, {col: summed},
    gstart)`` with rows ordered by (key-rank, hour) and ``gstart`` the
    per-key group start indices."""
    keys, kid = np.unique(g["k"].to_numpy(str), return_inverse=True)
    hr = g["hr"].to_numpy(np.int64)
    order = np.lexsort((hr, kid))
    kid, hr = kid[order], hr[order]
    vals = {c: g[c].to_numpy(np.int64)[order] for c in value_cols}
    same = np.zeros(len(hr), dtype=bool)
    same[1:] = (kid[1:] == kid[:-1]) & (hr[1:] == hr[:-1])
    starts = np.flatnonzero(~same)
    kid, hr = kid[starts], hr[starts]
    merged = {c: np.add.reduceat(v, starts) for c, v in vals.items()}
    gstart = np.searchsorted(kid, np.arange(len(keys)))
    return keys, kid, hr, merged, gstart


def gapfill_hourly(
    events: rd.Dataset,
    key_col: str = "event_type",
    ts_col: str = "ts",
    cents_col: str = "cents",
) -> pd.DataFrame:
    """TIME-SERIES GAP FILL / RESAMPLE: per key, the hourly event count
    and integer-cent value sum on a DENSE hourly grid from the key's
    first to last observed hour — missing hours materialize as zero
    rows, and ``last_seen`` forward-fills the most recent non-empty
    hour (the staleness column downstream freshness monitors need).

    Scale shape: per-batch partial aggregation first (each input batch
    collapses to its distinct (key, hour) rows — bounded by hours x
    keys, METADATA scale), then ONE ``partition_map`` exchange of those
    partials on the key.
    Inside a partition everything is vectorized across keys at once:
    observed hours scatter into a composed dense (key-rank x hour-range)
    grid built with np.repeat/arange, and the forward fill is a single
    np.maximum.accumulate over the composed keyspace (each key's first
    grid hour is observed by construction, so the running max never
    leaks across key boundaries). Driver sees only the final dense grid
    (hours x keys rows). Reference analogue: the MovingStats training
    diagnostic (ocrolib/common.py:871), generalized to a dense resample."""
    HOUR = HOUR_US

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return hourly_partials(b, key_col, ts_col, cents_col=cents_col)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        keys, ukid, uhr, merged, gstart = merge_hour_partials(
            g, ("n", "cents"))
        n, cents = merged["n"], merged["cents"]
        hmin = uhr.min()
        # per-key observed bounds -> dense grid lengths
        lo = np.minimum.reduceat(uhr, gstart)
        hi = np.maximum.reduceat(uhr, gstart)
        ln = (hi - lo + 1).astype(np.int64)
        gk = np.repeat(np.arange(len(keys), dtype=np.int64), ln)
        ghr = (np.arange(int(ln.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(ln) - ln, ln)) + np.repeat(lo, ln)
        # scatter observed (u is sorted by (kid, hr) already)
        pos = np.repeat(np.cumsum(ln) - ln, np.bincount(
            ukid, minlength=len(keys))) + (uhr - lo[ukid])
        gn = np.zeros(len(gk), dtype=np.int64)
        gc = np.zeros(len(gk), dtype=np.int64)
        gn[pos] = n
        gc[pos] = cents
        # forward fill last non-empty hour over the composed keyspace
        comb = np.where(gn > 0, gk * np.int64(1 << 40) + (ghr - hmin),
                        np.int64(-1))
        comb = np.maximum.accumulate(comb)
        last_seen = (comb & np.int64((1 << 40) - 1)) + hmin
        return pd.DataFrame({
            key_col: keys[gk],
            "hr": (ghr * HOUR).astype("datetime64[us]"),
            "n_events": gn,
            "sum_cents": gc,
            "last_seen": (last_seen * HOUR).astype("datetime64[us]")})

    out = partition_map(events.map_batches(partial, batch_format="pandas"),
                        "k", per_part).to_pandas()
    return (out.sort_values([key_col, "hr"]).reset_index(drop=True))


def max_concurrency(
    intervals: rd.Dataset,
    key_col: str = "key",
    s_col: str = "s",
    e_col: str = "e",
    bucket_us: int = 86_400_000_000,
) -> pd.DataFrame:
    """MAX-CONCURRENCY sweep line: per key, the maximum number of
    simultaneously-open [s, e) intervals and the FIRST instant that
    maximum is reached (capacity planning / peak-sessions shape).

    Distributed prefix scan, no per-key single-partition assumption:
    intervals become ±1 sweep points; points land in fixed time buckets
    (points are instants — no replication); ONE ``partition_map`` on
    (key, bucket) computes per bucket its net delta, its running-prefix max
    and the first instant attaining it, all vectorized across the
    partition's groups via one lexsort + reduceat. Only BUCKET SUMMARY
    rows (keys x buckets) reach the driver, where the cross-bucket
    exclusive prefix offsets and the global argmax are a cumsum over a
    few thousand rows. Concurrency is evaluated AFTER all deltas at an
    instant apply (close-before-open at ties), the usual half-open
    convention."""
    W = np.int64(bucket_us)

    def pts(b: pd.DataFrame) -> pd.DataFrame:
        k = np.concatenate([b[key_col].to_numpy(str)] * 2)
        t = np.concatenate([b[s_col].to_numpy(np.int64),
                            b[e_col].to_numpy(np.int64)])
        d = np.concatenate([np.ones(len(b), dtype=np.int64),
                            -np.ones(len(b), dtype=np.int64)])
        return pd.DataFrame({"k": k, "bk": t // W, "t": t, "d": d})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        keys, kid = np.unique(g["k"].to_numpy(str), return_inverse=True)
        bk = g["bk"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        order = np.lexsort((t, bk, kid))
        kid, bk, t, d = kid[order], bk[order], t[order], d[order]
        # collapse equal (kid, bk, t) instants: net delta per instant
        new = np.empty(len(t), dtype=bool)
        new[0] = True
        new[1:] = ((kid[1:] != kid[:-1]) | (bk[1:] != bk[:-1])
                   | (t[1:] != t[:-1]))
        starts = np.flatnonzero(new)
        dd = np.add.reduceat(d, starts)
        ikid, ibk, it = kid[starts], bk[starts], t[starts]
        # per-(key,bucket) group boundaries over the instant rows
        gnew = np.empty(len(starts), dtype=bool)
        gnew[0] = True
        gnew[1:] = (ikid[1:] != ikid[:-1]) | (ibk[1:] != ibk[:-1])
        gstart = np.flatnonzero(gnew)
        grp = np.cumsum(gnew) - 1
        # local prefix within each group: global cumsum minus the
        # group-prior cumsum (classic segmented scan)
        cs = np.cumsum(dd)
        base = np.concatenate([[0], cs[gstart[1:] - 1]])[grp]
        pref = cs - base
        lmax = np.maximum.reduceat(pref, gstart)
        # first instant attaining the group max (rows are t-sorted, so
        # the min hit instant is the first)
        hit = pref == lmax[grp]
        first = np.full(len(gstart), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, grp[hit], it[hit])
        delta = np.add.reduceat(dd, gstart)
        return pd.DataFrame({
            "k": keys[ikid[gstart]],
            "bk": ibk[gstart],
            "delta": delta.astype("int64"),
            "lmax": lmax.astype("int64"),
            "lmax_at": first})

    summ = partition_map(intervals.map_batches(pts, batch_format="pandas"),
                         ["k", "bk"], per_part).to_pandas()
    if len(summ) == 0:
        return pd.DataFrame({key_col: pd.Series([], dtype=object),
                             "max_concurrent": pd.Series([], dtype="int64"),
                             "first_at": pd.Series([], dtype="datetime64[us]")})
    summ = summ.sort_values(["k", "bk"]).reset_index(drop=True)
    # vectorized cross-bucket combine (keys can be many — one segmented
    # exclusive prefix over the bucket summaries, no per-key loop)
    keys, kid = np.unique(summ["k"].to_numpy(str), return_inverse=True)
    delta = summ["delta"].to_numpy(np.int64)
    lmax = summ["lmax"].to_numpy(np.int64)
    lat = summ["lmax_at"].to_numpy(np.int64)
    gstart = np.searchsorted(kid, np.arange(len(keys)))
    cs = np.cumsum(delta)
    base = np.concatenate([[0], cs[gstart[1:] - 1]])[kid]
    off = cs - delta - base  # exclusive prefix of deltas within key
    cand = off + lmax
    kmax = np.maximum.reduceat(cand, gstart)
    hit = cand == kmax[kid]
    first_row = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_row, kid[hit], np.flatnonzero(hit))
    return pd.DataFrame({
        key_col: keys,
        "max_concurrent": kmax.astype("int64"),
        "first_at": lat[first_row].astype("datetime64[us]"),
    }).sort_values(key_col).reset_index(drop=True)
