"""Query registry: every operator family exposed as a callable
``fn(sf_dir) -> Dataset | DataFrame | pyarrow.Table`` plus (where
SQL-expressible) a DuckDB oracle that must match value-for-value.

Column-naming contract: every computed column is named identically in the
Ray pipeline and the SQL (the driver hashes values after sorting columns
by name). Float aggregates are rounded identically on both sides.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.edist import levenshtein, levenshtein_many, xlevenshtein
from . import dedup, similarity, textstats
from . import relational
from .relational import (broadcast_join, bucket_join, grouped_agg,
                         keyed_combine, partition_map, topk)


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    from ..tuning import configure_data_context, parquet_schema

    configure_data_context()
    path = f"{sf_dir}/{table}.parquet"
    return rd.read_parquet(path, columns=columns,
                           schema=parquet_schema(path, columns))


def _read_pd(sf_dir: str, table: str, columns=None) -> pd.DataFrame:
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns).to_pandas()


# --------------------------------------------------------------- relational


def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style grouped aggregate with per-batch pre-aggregation
    (engine op A5-style global aggregation; ocropy analogue: error-rate
    reduction ocropus-rpred:299-315)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount", "l_shipdate"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b.l_shipdate <= pd.Timestamp("1998-09-02")]
        # exact integer cents per row (identical IEEE double -> identical
        # floor on both engines) so the sums are order-independent
        b = b.assign(
            base_cents=np.floor(b.l_extendedprice * 100).astype("int64"),
            disc_cents=np.floor(
                (b.l_extendedprice * (1 - b.l_discount)) * 100
            ).astype("int64"),
        )
        return b

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["l_returnflag", "l_linestatus"],
                    sums=["l_quantity", "base_cents", "disc_cents"])
    out = pd.DataFrame(
        {
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": g["sum_l_quantity"].astype("int64"),
            "sum_base_cents": g["sum_base_cents"].astype("int64"),
            "sum_disc_cents": g["sum_disc_cents"].astype("int64"),
            "avg_qty": np.round(g["sum_l_quantity"] / g["n"], 6),
            "count_order": g["n"].astype("int64"),
        }
    )
    return out


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)::BIGINT                                    AS sum_qty,
       sum(floor(l_extendedprice * 100)::BIGINT)::BIGINT          AS sum_base_cents,
       sum(floor((l_extendedprice * (1 - l_discount)) * 100)::BIGINT)::BIGINT
                                                                  AS sum_disc_cents,
       round(sum(l_quantity) / count(*), 6)                       AS avg_qty,
       count(*)                                                   AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q_revenue_filter(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6-style filter + scalar aggregate; predicate pushed into the
    batch scan (prune at the read: only 4 columns leave storage)."""
    ds = _read(sf_dir, "lineitem",
               ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"])

    def f(b: pd.DataFrame) -> pd.DataFrame:
        m = (
            (b.l_shipdate >= pd.Timestamp("1996-01-01"))
            & (b.l_shipdate < pd.Timestamp("1998-01-01"))
            & (b.l_discount >= 0.03)
            & (b.l_discount <= 0.07)
            & (b.l_quantity < 24)
        )
        sel = b[m]
        cents = np.floor((sel.l_extendedprice * sel.l_discount) * 100).astype("int64")
        return pd.DataFrame({"rev": [int(cents.sum())], "n": [len(sel)]})

    parts = ds.map_batches(f, batch_format="pandas", batch_size=65536).to_pandas()
    return pd.DataFrame(
        {"revenue_cents": [int(parts.rev.sum())],
         "n_items": [int(parts.n.sum())]}
    )


SQL_REVENUE = """
SELECT sum(floor((l_extendedprice * l_discount) * 100)::BIGINT)::BIGINT AS revenue_cents,
       count(*)                                                 AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1998-01-01'
  AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24
"""


def q_top_orders(sf_dir: str) -> pd.DataFrame:
    """Broadcast join (orders ⋈ customer) + global top-k without a global
    sort (A6-style top-k; see relational.topk)."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read_pd(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    cust = cust[cust.c_mktsegment == "BUILDING"][["c_custkey", "c_name"]]
    joined = broadcast_join(orders, cust.rename(columns={"c_custkey": "o_custkey"}),
                            on="o_custkey")
    best = topk(joined, ["o_totalprice", "o_orderkey"], 10, ascending=[False, True])
    return pd.DataFrame(
        {
            "o_orderkey": best.o_orderkey.astype("int64"),
            "c_name": best.c_name,
            "o_totalprice": np.round(best.o_totalprice, 3),
        }
    )


SQL_TOP_ORDERS = """
SELECT o_orderkey, c_name, round(o_totalprice, 3) AS o_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
ORDER BY orders.o_totalprice DESC, o_orderkey
LIMIT 10
"""


def q_customers_no_orders(sf_dir: str) -> pd.DataFrame:
    """Customers with NO urgent (priority '1-URGENT') orders, counted
    per nation: an anti join on the fixed-bucket shuffle
    (``relational.bucket_join`` how='anti'). The order side is filtered
    at the read and pre-deduped to distinct customer keys per batch, so
    the anti join exchanges keys, not the orders table."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def distinct_urgent_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.equal(t.column("o_orderpriority"), "1-URGENT"))
        return pa.table({"o_custkey": pc.unique(t.column("o_custkey"))})

    keys = orders.map_batches(distinct_urgent_keys, batch_format="pyarrow",
                              batch_size=262144)
    anti = relational.bucket_join(cust, keys, "c_custkey", "o_custkey",
                                  how="anti")
    g = grouped_agg(anti, ["c_nationkey"])
    nation = _read_pd(sf_dir, "nation", ["n_nationkey", "n_name"])
    m = g.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    return (
        pd.DataFrame({"n_name": m.n_name, "n_custs": m.n.astype("int64")})
        .sort_values("n_name")
        .reset_index(drop=True)
    )


SQL_CUSTOMERS_NO_ORDERS = """
SELECT n_name, count(*) AS n_custs
FROM customer JOIN nation ON c_nationkey = n_nationkey
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
GROUP BY n_name ORDER BY n_name
"""


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Two chained broadcast joins (lineitem ⋈ supplier ⋈ nation) +
    pre-aggregated groupby."""
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
    supp = _read_pd(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nat = _read_pd(sf_dir, "nation", ["n_nationkey", "n_name"])
    dim = supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    dim = dim[["s_suppkey", "n_name"]].rename(columns={"s_suppkey": "l_suppkey"})
    joined = broadcast_join(li, dim, on="l_suppkey")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            rev_cents=np.floor(
                (b.l_extendedprice * (1 - b.l_discount)) * 100
            ).astype("int64")
        )

    joined = joined.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(joined, ["n_name"], sums=["rev_cents"])
    return pd.DataFrame(
        {
            "n_name": g.n_name,
            "revenue_cents": g.sum_rev_cents.astype("int64"),
            "n_items": g.n.astype("int64"),
        }
    )


SQL_REVENUE_BY_NATION = """
SELECT n_name,
       sum(floor((l_extendedprice * (1 - l_discount)) * 100)::BIGINT)::BIGINT
         AS revenue_cents,
       count(*) AS n_items
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling-window aggregate over the event stream (engine's
    batch-window op; Ray Data has no watermarks — the window key is
    data-derived, ray_guide 'Streaming-shaped workloads')."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": b.event_type, "hour": b.ts.dt.floor("h"),
             "value": b.value}
        )

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["event_type", "hour"], sums=["value"])
    return pd.DataFrame(
        {
            "event_type": g.event_type,
            "hour": g.hour,
            "n": g.n.astype("int64"),
            "sum_value": np.round(g.sum_value, 3),
        }
    )


SQL_EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n,
       round(sum(value), 3) AS sum_value
FROM events GROUP BY 1, 2
"""


def q_events_hopping(sf_dir: str) -> pd.DataFrame:
    """HOPPING-window aggregate (1 h windows sliding every 15 min): each
    event fans out to its 4 covering windows inside map_batches (pure
    np.repeat arithmetic — the flat-map expansion pattern), then the
    same partial-combine groupby as the tumbling case. Window
    cardinality is time-span/hop x event types — bounded, so the final
    combine stays tiny."""
    hop_us = 900_000_000  # 15 min
    n_win = 4             # 1 h window / 15 min hop

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        ts_us = b["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        base = (ts_us // hop_us) * hop_us
        starts = np.concatenate([base - i * hop_us for i in range(n_win)])
        return pd.DataFrame({
            "event_type": np.tile(b["event_type"].to_numpy(object), n_win),
            "window_start": pd.to_datetime(starts, unit="us"),
            "value": np.tile(b["value"].to_numpy(), n_win),
        })

    g = grouped_agg(
        ds.map_batches(expand, batch_format="pandas", batch_size=65536),
        ["event_type", "window_start"], sums=["value"])
    return (
        pd.DataFrame({
            "event_type": g.event_type,
            "window_start": g.window_start,
            "n": g.n.astype("int64"),
            "sum_value": np.round(g.sum_value, 3),
        })
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


SQL_EVENTS_HOPPING = """
SELECT event_type,
       make_timestamp(((epoch_us(ts) // 900000000) - r.i) * 900000000)
         AS window_start,
       count(*) AS n,
       round(sum(value), 3) AS sum_value
FROM events CROSS JOIN range(0, 4) r(i)
GROUP BY 1, 2
"""


def q_late_events(sf_dir: str) -> pd.DataFrame:
    """Watermark violations: events whose timestamp is BEHIND the max
    timestamp of all earlier events in ARRIVAL order — the late-data
    detection a streaming engine does with watermarks, expressed as a
    distributed ordered prefix-scan (windows.ordered_scan: per-block
    maxima -> tiny driver prefix -> broadcast -> per-row combine).
    Arrival order is a deterministic Knuth-hash permutation of event_id
    (the testdata's ts is monotone in event_id, so arrival==event_id
    would make every event on time); only lateness > 1h is reported to
    keep the result the interesting tail."""
    from .windows import ordered_scan

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        eid = b["event_id"].to_numpy("int64")
        return pd.DataFrame({
            "arrival": (eid * 2654435761) % 2147483648,
            "event_id": eid,
            "event_type": b["event_type"],
            "ts_us": b["ts"].astype("datetime64[us]").astype("int64"),
        })

    scanned = ordered_scan(
        ds.map_batches(prep, batch_format="pandas", batch_size=65536),
        "arrival", max_cols=("ts_us",))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        # wm > ts first: the first-row watermark is an int64-min
        # sentinel and subtracting it would wrap positive
        out = b[b["wm_ts_us"] > b["ts_us"]]
        out = out[out["wm_ts_us"] - out["ts_us"] > 3_600_000_000]
        return pd.DataFrame({
            "event_id": out["event_id"].astype("int64"),
            "event_type": out["event_type"].astype(str),
            "lateness_us": (out["wm_ts_us"] - out["ts_us"]).astype("int64"),
        })

    out = scanned.map_batches(flag, batch_format="pandas").to_pandas()
    if out.empty:
        out = pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                            "event_type": pd.Series([], dtype=str),
                            "lateness_us": pd.Series([], dtype="int64")})
    return out.sort_values("event_id").reset_index(drop=True)


SQL_LATE_EVENTS = """
WITH w AS (
  SELECT event_id, event_type, ts,
         max(ts) OVER (ORDER BY (event_id * 2654435761) % 2147483648
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM events
)
SELECT event_id, event_type,
       (epoch_us(wm) - epoch_us(ts))::BIGINT AS lateness_us
FROM w WHERE epoch_us(wm) - epoch_us(ts) > 3600000000 ORDER BY event_id
"""


def q_running_totals(sf_dir: str) -> pd.DataFrame:
    """Cumulative count + value (cents) over the event stream in
    event_id order, sampled every 500th id — the running-total scan, on
    the same distributed prefix-scan primitive as late_events. Integer
    cents keep the cumulative sums exact (float running sums are
    order-dependent)."""
    from .windows import ordered_scan

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"],
            "one": np.ones(len(b), dtype="int64"),
            "cents": np.floor(b["value"].to_numpy() * 100).astype("int64"),
        })

    scanned = ordered_scan(
        ds.map_batches(prep, batch_format="pandas", batch_size=65536),
        "event_id", sum_cols=("one", "cents"))

    def sample(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b["event_id"] % 500 == 0]
        return pd.DataFrame({
            "event_id": out["event_id"],
            "run_n": out["run_one"].astype("int64"),
            "run_cents": out["run_cents"].astype("int64"),
        })

    out = scanned.map_batches(sample, batch_format="pandas").to_pandas()
    return (out.astype({"event_id": "int64"})
            .sort_values("event_id").reset_index(drop=True))


SQL_RUNNING_TOTALS = """
WITH w AS (
  SELECT event_id,
         count(*) OVER (ORDER BY event_id) AS run_n,
         sum(floor(value * 100)::BIGINT) OVER (ORDER BY event_id)
           AS run_cents
  FROM events
)
SELECT event_id, run_n::BIGINT AS run_n, run_cents::BIGINT AS run_cents
FROM w WHERE event_id % 500 = 0 ORDER BY event_id
"""


def q_sessions(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization (30-min gap) — the ordered-window op
    Ray Data lacks; one shuffle on user_id (pipelines/windows.py)."""
    from .windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    out = sessionize(ds).to_pandas()
    for c in ("user_id", "n_sessions", "max_session_events", "n_events"):
        out[c] = out[c].astype("int64")
    return out


SQL_SESSIONS = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
), g AS (
  SELECT user_id, sid, count(*) AS n FROM s GROUP BY 1, 2
)
SELECT user_id, count(*) AS n_sessions, max(n)::BIGINT AS max_session_events,
       sum(n)::BIGINT AS n_events
FROM g GROUP BY user_id
"""


def q_moving_avg(sf_dir: str) -> pd.DataFrame:
    """Trailing-4-event rolling mean per user, final value (MovingStats
    A10 analogue, reference ocrolib/common.py:871-882)."""
    from .windows import rolling_last

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = rolling_last(ds, window=4).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["last_ma"] = np.round(out["last_ma"], 6)
    return out


SQL_MOVING_AVG = """
WITH m AS (
  SELECT user_id,
         avg(value) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS ma,
         row_number() OVER (PARTITION BY user_id ORDER BY ts DESC) AS rn
  FROM events
)
SELECT user_id, round(ma, 6) AS last_ma FROM m WHERE rn = 1
"""


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join (events -> latest order with o_orderdate <= ts for
    custkey = user_id + 1), aggregated per event_type. Custom operator:
    union + one hash shuffle + per-key searchsorted (windows.py)."""
    from .windows import asof_join_aggregate

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])
    return asof_join_aggregate(events, orders)


def q_events_lag(sf_dir: str) -> pd.DataFrame:
    """Per-user LAG: microseconds since the user's previous event
    (deterministic (ts, event_id) ordering; -1 for each user's first
    event).  One user-hash shuffle, then a vectorized per-partition
    sort + shifted diff — the classic per-key window op, value-exact
    against the LAG window oracle."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        us = g["ts"].astype("datetime64[us]").astype("int64")  # unit-exact µs
        gap = us.diff()
        first = g["user_id"].ne(g["user_id"].shift())
        gap[first] = -1
        return pd.DataFrame({
            "event_id": g["event_id"].astype("int64").to_numpy(),
            "gap_us": gap.astype("int64").to_numpy(),
        })

    out = partition_map(ev, "user_id", per_part).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


SQL_EVENTS_LAG = """
SELECT event_id,
       coalesce(epoch_us(ts) - epoch_us(
           LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)),
           -1)::BIGINT AS gap_us
FROM events ORDER BY event_id
"""


def q_modal_hour(sf_dir: str) -> pd.DataFrame:
    """Per-type modal hour (most frequent hour-of-day, smallest hour on
    ties) — a deterministic MODE: one in-batch partial count + a
    group-scale driver argmax over the types x 24 table."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b.event_type,
            "hod": pd.to_datetime(b.ts).dt.hour.astype("int64"),
        })

    base = grouped_agg(ev.map_batches(prep, batch_format="pandas"),
                       ["event_type", "hod"])
    base = base.sort_values(["event_type", "n", "hod"],
                            ascending=[True, False, True])
    out = base.groupby("event_type", as_index=False).head(1)
    return (pd.DataFrame({
        "event_type": out["event_type"],
        "modal_hour": out["hod"].astype("int64"),
        "n_events": out["n"].astype("int64"),
    }).sort_values("event_type").reset_index(drop=True))


SQL_MODAL_HOUR = """
SELECT event_type, hod AS modal_hour, n AS n_events
FROM (
  SELECT event_type, EXTRACT(hour FROM ts)::BIGINT AS hod,
         count(*)::BIGINT AS n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY count(*) DESC,
                                     EXTRACT(hour FROM ts)::BIGINT) AS rn
  FROM events GROUP BY 1, 2
) WHERE rn = 1 ORDER BY event_type
"""


def q_order_ranks(sf_dir: str) -> pd.DataFrame:
    """PERCENT_RANK + CUME_DIST of order totals within each priority:
    one priority-hash shuffle co-locates each group, then both window
    functions come from two vectorized searchsorted calls per group
    (min-rank for ties, count-at-most for cume_dist) — no per-row
    window loop. Integer cents keep tie groups engine-exact."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"].astype("int64"),
            "o_orderpriority": b["o_orderpriority"].to_numpy(object),
            "cents": np.floor(b["o_totalprice"].to_numpy(np.float64)
                              * 100).astype("int64")})

    def ranks(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for pr, gg in g.groupby("o_orderpriority", sort=False):
            c = gg["cents"].to_numpy(np.int64)
            order = np.sort(c)
            n = c.shape[0]
            rank = np.searchsorted(order, c, side="left") + 1
            at_most = np.searchsorted(order, c, side="right")
            pct = ((rank - 1) / (n - 1)) if n > 1 else np.zeros(n)
            outs.append(pd.DataFrame({
                "o_orderkey": gg["o_orderkey"].to_numpy(np.int64),
                "o_orderpriority": pr,
                "pct_rank": np.round(pct, 6),
                "cume_dist": np.round(at_most / n, 6)}))
        return pd.concat(outs, ignore_index=True)

    out = partition_map(orders.map_batches(prep, batch_format="pandas"),
                        "o_orderpriority", ranks).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_ORDER_RANKS = """
SELECT o_orderkey, o_orderpriority,
       round(percent_rank() OVER w, 6) AS pct_rank,
       round(cume_dist() OVER w, 6) AS cume_dist
FROM (SELECT o_orderkey, o_orderpriority,
             floor(o_totalprice * 100)::BIGINT AS cents FROM orders)
WINDOW w AS (PARTITION BY o_orderpriority ORDER BY cents)
ORDER BY o_orderkey
"""


def q_order_ntile(sf_dir: str) -> pd.DataFrame:
    """NTILE(8) over order totals — the global-rank window function:
    per-order totals aggregate distributed (key-hash groupby), the
    global rank comes from the ordered_scan prefix-scan primitive over
    ONE composed (total, orderkey) int64 key (no driver-side sort), and
    the SQL NTILE fill rule (first n%N tiles get the extra row) is
    applied vectorized.  Ties are broken by orderkey exactly as the
    oracle's ORDER BY does."""
    from .windows import ordered_scan

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # per-batch partial sums, then ONE coarse hash shuffle — the
        # repo's standard keyed-aggregate shape (the native Ray groupby
        # aggregator pool measured 16s on this 60k-row input alone)
        return pd.DataFrame({
            "l_orderkey": b.l_orderkey.astype("int64"),
            "cents": np.floor(
                b.l_extendedprice.to_numpy(np.float64) * 100
            ).astype("int64"),
        }).groupby("l_orderkey", as_index=False)["cents"].sum()

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("l_orderkey", as_index=False)["cents"].sum()
        return out.rename(columns={"cents": "total_cents"})

    totals = (partition_map(li.map_batches(partial, batch_format="pandas"),
                            "l_orderkey", combine)
              # group-scale (one row per order): pin it, or each scalar
              # probe below re-executes the whole groupby lineage
              .materialize())
    umax = int(totals.max("l_orderkey")) + 1
    tmax = int(totals.max("total_cents"))
    if tmax * umax >= 2**62:
        raise OverflowError("ntile sort-key composition overflows int64")

    def key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["key"] = b["total_cents"].to_numpy(np.int64) * umax + \
            b["l_orderkey"].to_numpy(np.int64)
        b["one"] = np.int64(1)
        return b

    scanned = ordered_scan(totals.map_batches(key, batch_format="pandas"),
                           "key", sum_cols=("one",))
    n = totals.count()
    ntiles = 8
    k, m = n // ntiles, n % ntiles

    def tile(b: pd.DataFrame) -> pd.DataFrame:
        r = b["run_one"].to_numpy(np.int64)  # inclusive rank, 1-based
        cut = m * (k + 1)
        t = np.where(r <= cut, (r - 1) // (k + 1),
                     m + (r - 1 - cut) // max(k, 1)) + 1
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].astype("int64"),
            "total_cents": b["total_cents"].astype("int64"),
            "tile": t.astype("int64"),
        })

    out = scanned.map_batches(tile, batch_format="pandas").to_pandas()
    return out.sort_values("l_orderkey").reset_index(drop=True)


SQL_ORDER_NTILE = """
SELECT l_orderkey, total_cents,
       NTILE(8) OVER (ORDER BY total_cents, l_orderkey)::BIGINT AS tile
FROM (SELECT l_orderkey,
             sum(floor(l_extendedprice * 100)::BIGINT)::BIGINT AS total_cents
      FROM lineitem GROUP BY l_orderkey)
ORDER BY l_orderkey
"""


def q_asof_forward(sf_dir: str) -> pd.DataFrame:
    """Forward as-of join (events -> EARLIEST order with o_orderdate >=
    ts, tie-break min o_orderkey) — the look-ahead variant; same
    one-shuffle searchsorted engine, opposite insertion side."""
    from .windows import asof_join_aggregate

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])
    return asof_join_aggregate(events, orders, direction="forward")


SQL_ASOF_FORWARD = """
SELECT e.event_type,
       count(*) AS n_events,
       count(j.o_orderkey) AS n_matched,
       coalesce(sum(floor(j.o_totalprice * 100)::BIGINT), 0)::BIGINT AS sum_price_cents
FROM events e
LEFT JOIN LATERAL (
  SELECT o.o_orderkey, o.o_totalprice
  FROM orders o
  WHERE o.o_custkey = e.user_id + 1 AND o.o_orderdate >= e.ts
  ORDER BY o.o_orderdate ASC, o.o_orderkey ASC
  LIMIT 1
) j ON true
GROUP BY e.event_type
"""


SQL_ASOF_JOIN = """
SELECT e.event_type,
       count(*) AS n_events,
       count(j.o_orderkey) AS n_matched,
       coalesce(sum(floor(j.o_totalprice * 100)::BIGINT), 0)::BIGINT AS sum_price_cents
FROM events e
LEFT JOIN LATERAL (
  SELECT o.o_orderkey, o.o_totalprice
  FROM orders o
  WHERE o.o_custkey = e.user_id + 1 AND o.o_orderdate <= e.ts
  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
  LIMIT 1
) j ON true
GROUP BY e.event_type
"""


def q_testset_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic hash train/test split (A11 analogue, reference
    ocrolib/common.py:851-854 pseudo-random index hash)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        h = (b.doc_id.to_numpy(np.int64) * 2654435761) % 4294967296
        return pd.DataFrame(
            {"split": np.where(h % 10 < 8, "train", "test"),
             "n_chars": b.n_chars}
        )

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["split"], sums=["n_chars"])
    return pd.DataFrame(
        {"split": g.split, "n_docs": g.n.astype("int64"),
         "sum_chars": g.sum_n_chars.astype("int64")}
    )


SQL_TESTSET_SPLIT = """
SELECT CASE WHEN (doc_id * 2654435761) % 4294967296 % 10 < 8
            THEN 'train' ELSE 'test' END AS split,
       count(*) AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY 1
"""


def q_project_text(sf_dir: str) -> pd.DataFrame:
    """project_text comparison projections (A3, reference
    ocrolib/common.py:60-81) aggregated per lang: projected lengths under
    nospace / letters / digits."""
    from ..functions.text import project_text

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        txt = b.text.fillna("")
        return pd.DataFrame(
            {
                "lang": b.lang,
                "len_nospace": txt.map(
                    lambda s: len(project_text(s, "nospace"))).astype("int64"),
                "len_letters": txt.map(
                    lambda s: len(project_text(s, "letters"))).astype("int64"),
                "len_digits": txt.map(
                    lambda s: len(project_text(s, "digits"))).astype("int64"),
            }
        )

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["lang"], sums=["len_nospace", "len_letters", "len_digits"])
    return pd.DataFrame(
        {
            "lang": g.lang,
            "n_docs": g.n.astype("int64"),
            "sum_nospace": g.sum_len_nospace.astype("int64"),
            "sum_letters": g.sum_len_letters.astype("int64"),
            "sum_digits": g.sum_len_digits.astype("int64"),
        }
    )


# mirrors project_text's normalize (whitespace collapse; homographs are
# no-ops on this corpus's charset) + dot-row collapse + [~_] strip
_SQL_EXACT = (
    "regexp_replace(regexp_replace(trim(regexp_replace(text, '\\s+', ' ', 'g')),"
    " '( *[.] *){4,}', '....', 'g'), '[~_]', '', 'g')"
)

SQL_PROJECT_TEXT = f"""
WITH t AS (SELECT lang, {_SQL_EXACT} AS e FROM documents)
SELECT lang, count(*) AS n_docs,
       sum(length(regexp_replace(e, '\\s', '', 'g')))::BIGINT AS sum_nospace,
       sum(length(regexp_replace(e, '[^A-Za-z]', '', 'g')))::BIGINT AS sum_letters,
       sum(length(regexp_replace(e, '[^0-9]', '', 'g')))::BIGINT AS sum_digits
FROM t GROUP BY lang
"""


def q_distinct_users(sf_dir: str) -> pd.DataFrame:
    """count-distinct per group: two-level exact (dedup shuffle on
    (type,user) partials then count)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates()

    dd = ds.map_batches(partial, batch_format="pandas", batch_size=65536)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": [g.event_type.iloc[0]],
             "n_users": [int(g.user_id.nunique())]}
        )

    out = dd.groupby("event_type").map_groups(per_group, batch_format="pandas")
    df = out.to_pandas()
    df["n_users"] = df["n_users"].astype("int64")
    return df


SQL_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id) AS n_users FROM events GROUP BY 1
"""


def q_events_props(sf_dir: str) -> pd.DataFrame:
    """Regex field extraction from a JSON-ish props column + aggregate."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        k = b.props.str.extract(r'"k": (\d+)')[0].fillna("0").astype("int64")
        return pd.DataFrame({"event_type": b.event_type, "k": k})

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["event_type"], sums=["k"])
    return pd.DataFrame(
        {"event_type": g.event_type, "sum_k": g.sum_k.astype("int64"),
         "n": g.n.astype("int64")}
    )


SQL_EVENTS_PROPS = """
SELECT event_type,
       sum(coalesce(regexp_extract(props, '"k": (\\d+)', 1)::BIGINT, 0))::BIGINT AS sum_k,
       count(*) AS n
FROM events GROUP BY 1
"""


def q_part_stats(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"])
    g = grouped_agg(ds, ["p_brand"], sums=["p_retailprice"], maxs=["p_size"])
    return pd.DataFrame(
        {
            "p_brand": g.p_brand,
            "n": g.n.astype("int64"),
            "sum_price": np.round(g.sum_p_retailprice, 3),
            "max_size": g.max_p_size.astype("int64"),
        }
    )


SQL_PART_STATS = """
SELECT p_brand, count(*) AS n, round(sum(p_retailprice), 3) AS sum_price,
       max(p_size)::BIGINT AS max_size
FROM part GROUP BY 1
"""


def q_sort_topk_events(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "events", ["event_id", "value"])
    best = topk(ds, ["value", "event_id"], 20, ascending=[False, True])
    return pd.DataFrame(
        {"event_id": best.event_id.astype("int64"),
         "value": np.round(best.value, 6)}
    )


SQL_SORT_TOPK_EVENTS = """
SELECT event_id, round(value, 6) AS value
FROM events ORDER BY value DESC, event_id LIMIT 20
"""


# -------------------------------------------------------------------- dedup


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: min doc_id per distinct text (A12 analogue:
    reference ocropus-linegen:124 line dedup)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.exact_dedup(ds).to_pandas()
    return pd.DataFrame({"doc_id": out.doc_id.astype("int64")})


SQL_DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
"""


def q_dedup_ngram(sf_dir: str) -> pd.DataFrame:
    """Exact token-set Jaccard pairs within (lang, source) partitions."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])

    def tokens(b: pd.DataFrame) -> pd.DataFrame:
        return b

    out = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5).to_pandas()
    return pd.DataFrame(
        {
            "doc_a": out.doc_a.astype("int64"),
            "doc_b": out.doc_b.astype("int64"),
            "jaccard": out.jaccard,
        }
    )


SQL_DEDUP_NGRAM = """
WITH t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       round(len(list_intersect(a.toks, b.toks))::DOUBLE /
             (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))),
             6) AS jaccard
FROM t a JOIN t b
  ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
      (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))) >= 0.5
"""


def q_ppjoin(sf_dir: str) -> pd.DataFrame:
    """EXACT corpus-GLOBAL Jaccard similarity join by prefix filtering
    (dedup.ppjoin_pairs — AllPairs/PPJoin, distributed per Vernica et
    al. SIGMOD 2010). Contrast dedup_ngram: no partition columns, no
    LSH approximation — completeness is a theorem of the prefix cut.
    The SQL twin implements the same prefix-filter candidate join
    (ordered by true df, token tie-break) with a list_intersect
    verify, so both sides are exact and value-comparable.

    Corpus note: the synthetic documents share a small vocabulary, so
    the TRUE answer at t=0.5 is pair-dense (~70% of all pairs at
    sf0.01) — output size here is a property of the data, not a
    failure of the prefix filter, whose pruning power grows with both
    threshold and vocabulary size on real web text."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.ppjoin_pairs(ds, threshold=0.5).to_pandas()
    return (out.astype({"doc_a": "int64", "doc_b": "int64"})
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


SQL_PPJOIN = r"""
WITH t AS (
  SELECT doc_id,
         list_filter(list_distinct(regexp_split_to_array(
             trim(coalesce(text, '')), '\s+')), w -> w <> '') AS toks
  FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS tok, len(toks) AS n FROM t
), df AS (
  SELECT tok, count(*) AS df FROM tok GROUP BY tok
), ranked AS (
  SELECT k.doc_id, k.tok, k.n,
         row_number() OVER (PARTITION BY k.doc_id
                            ORDER BY d.df, k.tok) AS r
  FROM tok k JOIN df d USING (tok)
), prefix AS (
  SELECT doc_id, tok, n FROM ranked
  WHERE r <= n - ceil(0.5 * n) + 1
), cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM prefix a JOIN prefix b
    ON a.tok = b.tok AND a.doc_id < b.doc_id
  WHERE least(a.n, b.n) >= 0.5 * greatest(a.n, b.n)
), verify AS (
  SELECT c.doc_a, c.doc_b,
         len(list_intersect(ta.toks, tb.toks))::DOUBLE /
         (len(ta.toks) + len(tb.toks)
          - len(list_intersect(ta.toks, tb.toks))) AS j
  FROM cand c
  JOIN t ta ON ta.doc_id = c.doc_a
  JOIN t tb ON tb.doc_id = c.doc_b
  WHERE len(ta.toks) + len(tb.toks) > 0
)
SELECT doc_a, doc_b, round(j, 6) AS jaccard
FROM verify WHERE j >= 0.5
ORDER BY doc_a, doc_b
"""


def q_snm_pairs(sf_dir: str) -> pd.DataFrame:
    """Sorted-Neighborhood dedup (dedup.sorted_neighborhood_pairs —
    Hernandez & Stolfo 1995): global blocking-key sort, windowed
    candidate pairs (w=5), exact Jaccard verify at 0.3. Skew-immune
    O(n*w) candidates; the SQL twin re-derives the global rank with a
    window function and the same windowed self-join."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.sorted_neighborhood_pairs(
        ds, window=5, threshold=0.3).to_pandas()
    return (out.astype({"doc_a": "int64", "doc_b": "int64"})
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


SQL_SNM_PAIRS = r"""
WITH t AS (
  SELECT doc_id,
         substr(lower(trim(coalesce(text, ''))), 1, 8) AS key,
         list_filter(list_distinct(regexp_split_to_array(
             trim(coalesce(text, '')), '\s+')), w -> w <> '') AS toks
  FROM documents
), r AS (
  SELECT doc_id, toks,
         row_number() OVER (ORDER BY key, doc_id) AS rk
  FROM t
), v AS (
  SELECT least(a.doc_id, b.doc_id) AS doc_a,
         greatest(a.doc_id, b.doc_id) AS doc_b,
         CASE WHEN len(a.toks) + len(b.toks) = 0 THEN 1.0
              ELSE len(list_intersect(a.toks, b.toks))::DOUBLE /
                   (len(a.toks) + len(b.toks)
                    - len(list_intersect(a.toks, b.toks))) END AS j
  FROM r a JOIN r b ON b.rk > a.rk AND b.rk < a.rk + 5
)
SELECT doc_a, doc_b, round(j, 6) AS jaccard
FROM v WHERE j >= 0.3 ORDER BY doc_a, doc_b
"""


def q_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup pairs collapsed to canonical clusters: connected
    components over the (lang, source)-partitioned token-Jaccard dup
    graph, cluster_id = min reachable doc_id (transitive — the keep/drop
    grouping step after pair detection)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5)
    out = dedup.connected_components(pairs).to_pandas()
    return (
        pd.DataFrame({
            "doc_id": out.doc_id.astype("int64"),
            "cluster_id": out.cluster_id.astype("int64"),
        })
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


SQL_DEDUP_CLUSTERS = """
WITH RECURSIVE t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM t a JOIN t b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
        >= 0.5
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
), reach(v, l) AS (
  SELECT a AS v, a AS l FROM e
  UNION
  SELECT e.b AS v, reach.l FROM reach JOIN e ON e.a = reach.v
)
SELECT v AS doc_id, min(l) AS cluster_id
FROM reach GROUP BY v ORDER BY doc_id
"""


def q_cluster_size_hist(sf_dir: str) -> pd.DataFrame:
    """Dup-cluster size distribution (the dedup health diagnostic: a
    fat tail means a boilerplate template is eating the corpus):
    connected components -> per-cluster size -> count of clusters per
    size. Sizes come off the labels Dataset with one metadata-scale
    grouped_agg; the histogram rows on the driver are
    distinct-sizes-sized."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5)
    labels = dedup.connected_components(pairs)
    sizes = grouped_agg(labels, ["cluster_id"])
    hist = (sizes.groupby("n", as_index=False).size()
            .rename(columns={"n": "cluster_size", "size": "n_clusters"}))
    return (pd.DataFrame({
        "cluster_size": hist["cluster_size"].astype("int64"),
        "n_clusters": hist["n_clusters"].astype("int64"),
    }).sort_values("cluster_size").reset_index(drop=True))


SQL_CLUSTER_SIZE_HIST = SQL_DEDUP_CLUSTERS.replace(
    """SELECT v AS doc_id, min(l) AS cluster_id
FROM reach GROUP BY v ORDER BY doc_id""",
    """, labels AS (
  SELECT v AS doc_id, min(l) AS cluster_id FROM reach GROUP BY v
), sizes AS (
  SELECT cluster_id, count(*) AS cluster_size FROM labels GROUP BY cluster_id
)
SELECT cluster_size::BIGINT AS cluster_size, count(*) AS n_clusters
FROM sizes GROUP BY cluster_size ORDER BY cluster_size""")


def q_dedup_keep(sf_dir: str) -> pd.DataFrame:
    """The keep/drop decision a dedup pipeline ends with: per near-dup
    cluster keep the longest document (ties -> min doc_id); docs in no
    cluster keep themselves. Scores are computed in a pruned metadata
    pass, so only (id, score) rows move through keep_best's shuffles."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5)
    labels = dedup.connected_components(pairs)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "score": b["text"].str.len().astype("float64"),
        })

    scored = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")
    out = dedup.keep_best(scored, labels).to_pandas()
    return (
        pd.DataFrame({
            "doc_id": out.doc_id.astype("int64"),
            "cluster_id": out.cluster_id.astype("int64"),
        })
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


SQL_DEDUP_KEEP = """
WITH RECURSIVE t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM t a JOIN t b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
        >= 0.5
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
), reach(v, l) AS (
  SELECT a AS v, a AS l FROM e
  UNION
  SELECT e.b AS v, reach.l FROM reach JOIN e ON e.a = reach.v
), lab AS (
  SELECT v AS doc_id, min(l) AS cluster_id FROM reach GROUP BY v
)
SELECT d.doc_id, coalesce(lab.cluster_id, d.doc_id) AS cluster_id
FROM documents d LEFT JOIN lab ON d.doc_id = lab.doc_id
QUALIFY row_number() OVER (
  PARTITION BY coalesce(lab.cluster_id, d.doc_id)
  ORDER BY length(d.text) DESC, d.doc_id
) = 1
ORDER BY d.doc_id
"""


def q_neardedup_corpus(sf_dir: str) -> pd.DataFrame:
    """Composed near-dedup corpus flagship (the SlimPajama/RefinedWeb
    chain shape), oracle-checked END-TO-END: exact token-Jaccard pairs
    within (lang, source) partitions -> connected components -> keep the
    longest doc per cluster (ties -> min doc_id) -> per-source surviving
    doc/word counts. Every stage is one of this repo's streaming
    operators (the scale path swaps the pair generator for MinHash-LSH
    with identical downstream plumbing); the winner set stays
    metadata-width through keep_best's two shuffles and one bucket_join
    attaches source/word counts."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5)
    labels = dedup.connected_components(pairs)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "score": b["text"].str.len().astype("float64"),
        })

    scored = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")
    winners = dedup.keep_best(scored, labels)

    def meta(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"],
            "n_words": b["text"].fillna("").str.split().str.len()
                        .astype("int64"),
        })

    docs_meta = _read(sf_dir, "documents",
                      ["doc_id", "text", "source"]).map_batches(
        meta, batch_format="pandas")
    joined = relational.bucket_join(
        winners, docs_meta, "doc_id", "doc_id", suffix="_m",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("cluster_id", pa.int64())]))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), n_words=("n_words", "sum"))

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby("source", as_index=False)
           .agg(n_docs=("n_docs", "sum"), n_words=("n_words", "sum")))
    out["n_docs"] = out.n_docs.astype("int64")
    out["n_words"] = out.n_words.astype("int64")
    return out.sort_values("source").reset_index(drop=True)


SQL_NEARDEDUP_CORPUS = """
WITH RECURSIVE t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM t a JOIN t b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
        >= 0.5
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
), reach(v, l) AS (
  SELECT a AS v, a AS l FROM e
  UNION
  SELECT e.b AS v, reach.l FROM reach JOIN e ON e.a = reach.v
), lab AS (
  SELECT v AS doc_id, min(l) AS cluster_id FROM reach GROUP BY v
), keepers AS (
  SELECT d.doc_id, d.source, d.text
  FROM documents d LEFT JOIN lab ON d.doc_id = lab.doc_id
  QUALIFY row_number() OVER (
    PARTITION BY coalesce(lab.cluster_id, d.doc_id)
    ORDER BY length(d.text) DESC, d.doc_id
  ) = 1
)
SELECT source,
       count(*)::BIGINT AS n_docs,
       sum(len(list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                                 '\\s+'),
                           x -> x <> '')))::BIGINT AS n_words
FROM keepers GROUP BY source ORDER BY source
"""


def q_dup_pair_editdist(sf_dir: str) -> pd.DataFrame:
    """Near-dup pair VERIFICATION by character edit distance — the
    post-LSH confirm stage shape: the pair stream (metadata-width)
    fetches both member texts through two large x large bucket_joins
    (never a driver-side text lookup), then a vectorized Levenshtein
    per pair. Texts capped at 80 chars on both sides (edit distance is
    O(nm); the cap is applied identically in the DuckDB twin)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.4)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pair_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                             ("jaccard", pa.float64())])
    with_a = relational.bucket_join(
        pairs, docs, "doc_a", "doc_id", suffix="_a",
        left_schema=pair_schema)
    with_ab = relational.bucket_join(
        with_a, docs.map_batches(
            lambda b: b.rename(columns={"text": "text_b"}),
            batch_format="pandas"),
        "doc_b", "doc_id", suffix="_b",
        left_schema=pair_schema.append(pa.field("text", pa.string())))

    def dist(b: pd.DataFrame) -> pd.DataFrame:
        # one batched DP across all pairs (levenshtein_many) — the
        # per-pair python loop measured ~26s of the query's 30s wall
        # at sf0.1 (132k pairs)
        d = levenshtein_many([(x or "")[:80] for x in b["text"]],
                             [(y or "")[:80] for y in b["text_b"]])
        return pd.DataFrame({
            "doc_a": b["doc_a"].astype("int64"),
            "doc_b": b["doc_b"].astype("int64"),
            "editdist": pd.array(d, dtype="int64"),
        })

    out = with_ab.map_batches(dist, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


SQL_DUP_PAIR_EDITDIST = """
WITH t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM t a JOIN t b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
        >= 0.4
)
SELECT p.doc_a, p.doc_b,
       levenshtein(substr(coalesce(da.text, ''), 1, 80),
                   substr(coalesce(db.text, ''), 1, 80))::BIGINT AS editdist
FROM pairs p
JOIN documents da ON da.doc_id = p.doc_a
JOIN documents db ON db.doc_id = p.doc_b
ORDER BY p.doc_a, p.doc_b
"""


def q_dedup_minhash(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup pairs, Jaccard-verified (rows-only oracle —
    LSH candidate generation is not SQL-expressible)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.minhash_dedup_pairs(ds, threshold=0.6)


def q_dedup_simhash(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs (rows-only oracle)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.simhash_dup_pairs(ds, max_hamming=6)


def q_dedup_embedding(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-dup within label partitions."""
    ds = _read(sf_dir, "embeddings")
    out = dedup.embedding_dup_pairs(ds, threshold=0.35).to_pandas()
    return pd.DataFrame(
        {
            "id_a": out.id_a.astype("int64"),
            "id_b": out.id_b.astype("int64"),
            "cosine": out.cosine,
        }
    )


SQL_DEDUP_EMBEDDING = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6)
         AS cosine
FROM embeddings a JOIN embeddings b
  ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
"""


# --------------------------------------------------------------- similarity


def q_rp_recall(sf_dir: str) -> pd.DataFrame:
    """JL random-projection dimensionality-reduction audit
    (similarity.rp_knn_recall — Achlioptas sparse projection,
    deterministic hash-derived matrix): knn recall@10 at 8/16/32 dims
    vs full-dim brute force over three corpus queries. Rows-only.
    Corpus note: the synthetic embeddings are near-uniform (neighbors
    sit barely above the background cosine), so recall here is
    intrinsically low at any compression — the planted-cluster test
    in tests/test_snm.py shows the >=0.9 recall JL delivers when
    neighborhoods actually exist."""
    emb = _read_pd(sf_dir, "embeddings").set_index("vec_id")
    Q = np.stack([np.asarray(emb.loc[i, "embedding"])
                  for i in (0, 1, 2)])
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return similarity.rp_knn_recall(ds, Q)


def q_mmr_select(sf_dir: str) -> pd.DataFrame:
    """Diversity-aware retrieval by Maximal Marginal Relevance
    (similarity.mmr_select, Carbonell-Goldstein '98): relevance
    top-100 pool fetched distributed, greedy lam=0.7 rerank on the
    pool. Rows-only (greedy sequential selection has no SQL twin);
    pinned by the serial-parity + diversity tests in
    tests/test_snm.py."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.mmr_select(ds, np.asarray(q), k=10)


def q_knn(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 to the vec_id=0 embedding."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.knn_brute(ds, np.asarray(q), k=10)


SQL_KNN = """
WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0)
SELECT vec_id,
       round(list_cosine_similarity(embedding::DOUBLE[], (SELECT qe FROM q)), 6)
         AS cos_sim
FROM embeddings
ORDER BY list_cosine_similarity(embedding::DOUBLE[], (SELECT qe FROM q)) DESC,
         vec_id
LIMIT 10
"""


def q_knn_multi(sf_dir: str) -> pd.DataFrame:
    """Multi-query brute-force kNN: one matmul per block against the
    broadcast query matrix (vec_ids 0,1,2), top-5 each."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _read_pd(sf_dir, "embeddings").set_index("vec_id")
    qids = [0, 1, 2]
    Q = np.stack([np.asarray(qdf.loc[i, "embedding"]) for i in qids])
    out = similarity.knn_batch(ds, Q, qids, k=5)
    out["qid"] = out["qid"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


SQL_KNN_MULTI = """
WITH q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
  FROM embeddings WHERE vec_id IN (0, 1, 2)
)
SELECT q.qid, e.vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qe), 6) AS cos_sim
FROM q CROSS JOIN embeddings e
QUALIFY row_number() OVER (
  PARTITION BY q.qid
  ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.qe) DESC, e.vec_id
) <= 5
"""


def q_knn_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF-bucketed ANN variant (rows-only oracle: approximate by
    construction; nprobe=num_centroids degenerates to brute force)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.knn_ivf(ds, np.asarray(q), k=10, num_centroids=8, nprobe=4)


def q_knn_ivf_exact(sf_dir: str) -> pd.DataFrame:
    """The IVF code path validated VALUE-FOR-VALUE: nprobe ==
    num_centroids probes every cell, so centroid assignment, pruning and
    scoring must reproduce brute force exactly — oracle is the same SQL
    as `knn`."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.knn_ivf(ds, np.asarray(q), k=10, num_centroids=8, nprobe=8)


def q_quantiles_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact per-event-type p50/p90/p99 of value (telemetry quantiles):
    one key-hash shuffle + in-partition sort/select, DuckDB
    quantile_disc selection rule (relational.grouped_quantiles)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = relational.grouped_quantiles(ds, "event_type", "value")
    out["value"] = np.round(out["value"], 6)
    return out


SQL_QUANTILES_BY_TYPE = """
WITH q AS (
  SELECT event_type,
         quantile_disc(value, 0.5)  AS q50,
         quantile_disc(value, 0.9)  AS q90,
         quantile_disc(value, 0.99) AS q99
  FROM events GROUP BY event_type
)
SELECT event_type, u.q, round(u.value, 6) AS value
FROM q, LATERAL (VALUES (0.5, q50), (0.9, q90), (0.99, q99)) u(q, value)
ORDER BY event_type, q
"""


def q_knn_ivf_disk(sf_dir: str) -> pd.DataFrame:
    """IVF with pruning AT THE READ: the corpus is written
    hive-partitioned by coarse cell once (cached per sf under /tmp),
    and the query reads ONLY its nprobe cell directories — the other
    cells never leave storage. nprobe == num_centroids probes every
    cell, so the result reproduces knn brute force exactly (rows-only
    here; the value-for-value gate is tests/test_curate.py)."""
    import hashlib
    import os

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    idx = f"/tmp/ivf_index_{key}"
    if not os.path.exists(os.path.join(idx, "_centroids.npy")):
        similarity.build_ivf_index(ds, idx, num_centroids=8)
    return similarity.knn_ivf_indexed(idx, np.asarray(q), k=10, nprobe=4)


def q_knn_pq(sf_dir: str) -> pd.DataFrame:
    """Product-quantized ADC top-k (rows-only: PQ is approximate by
    construction) — the memory-compressed ANN scale path: vectors
    shrink to m uint8 codes, the query scores blocks by table lookup.
    Lossless-roundtrip and recall gates live in tests/test_curate.py."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.knn_pq(ds, np.asarray(q), k=10, m=8, n_codes=32)


def q_knn_lsh(sf_dir: str) -> pd.DataFrame:
    """Random-hyperplane LSH ANN (rows-only: bucket collisions are
    approximate by construction): candidates share a sign-pattern
    bucket with the query in any of 32 four-bit banks, exact cosine on
    the candidates only. Recall and brute-force-equivalence gates live
    in tests/test_curate.py."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    return similarity.knn_lsh(ds, np.asarray(q), k=10, nbits=4, ntables=32)


# ---------------------------------------------------------------- textstats


def q_token_stats(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"lang": b.lang, "nt": b.text.fillna("").str.split().map(len)}
        )

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["lang"], sums=["nt"])
    return pd.DataFrame(
        {
            "lang": g.lang,
            "sum_tokens": g.sum_nt.astype("int64"),
            "n_docs": g.n.astype("int64"),
            "avg_tokens": np.round(g.sum_nt.astype(float) / g.n, 6),
        }
    )


SQL_TOKEN_STATS = """
WITH t AS (
  SELECT lang, len(regexp_split_to_array(trim(text), '\\s+')) AS nt FROM documents
)
SELECT lang, sum(nt)::BIGINT AS sum_tokens, count(*) AS n_docs,
       round(sum(nt)::DOUBLE / count(*), 6) AS avg_tokens
FROM t GROUP BY lang
"""


# BPE-ish pre-tokenizer pattern (word / number / punct classes) — kept
# RE2-compatible so DuckDB's regexp_extract_all is an exact oracle
BPE_PATTERN = "[a-z]+|[0-9]+|[^a-z0-9\\s]"


def q_bpe_tokens(sf_dir: str) -> pd.DataFrame:
    """Regex (BPE-style pre-tokenizer) token counting per lang."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"lang": b.lang,
             "nt": b.text.fillna("").str.count(BPE_PATTERN).astype("int64")}
        )

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["lang"], sums=["nt"])
    return pd.DataFrame(
        {"lang": g.lang, "sum_bpe_tokens": g.sum_nt.astype("int64"),
         "n_docs": g.n.astype("int64")}
    )


SQL_BPE_TOKENS = f"""
SELECT lang,
       sum(len(regexp_extract_all(text, '{BPE_PATTERN}')))::BIGINT
         AS sum_bpe_tokens,
       count(*) AS n_docs
FROM documents GROUP BY lang
"""


def q_char_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-doc character-distribution Shannon entropy (a repetition /
    gibberish quality signal complementary to compression_ratio):
    H = log2(n) - sum(c*log2(c))/n over exact character counts. The
    kernel is one UTF-32 frombuffer + np.unique per doc (char-exact
    for any input, no Python char loop); counts are integers, so both
    twins evaluate log2 on the same integer arguments — bit-identical
    on a shared libm — and compare after round(,6)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        ns, hs = [], []
        for t in b["text"]:
            s = t if isinstance(t, str) else ""
            if not s:
                ns.append(0)
                hs.append(0.0)
                continue
            cp = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
            _, counts = np.unique(cp, return_counts=True)
            n = cp.shape[0]
            k = counts.astype(np.float64)
            hs.append(float(np.log2(n) - np.sum(k * np.log2(k)) / n))
            ns.append(n)
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_chars": pd.Series(ns, dtype="int64"),
            "entropy": np.round(np.asarray(hs, dtype=np.float64), 6)})

    out = ds.map_batches(stats, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CHAR_ENTROPY = r"""
WITH ch AS (
  SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''),
                                           '[\s\S]')) AS c
  FROM documents
), cnt AS (
  SELECT doc_id, c, count(*) AS k FROM ch GROUP BY doc_id, c
), agg AS (
  SELECT doc_id, sum(k) AS n, sum(k * log2(k)) AS s
  FROM cnt GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(a.n, 0)::BIGINT AS n_chars,
       CASE WHEN a.n IS NULL THEN 0.0
            ELSE round(log2(a.n) - a.s / a.n, 6) END AS entropy
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def q_readability(sf_dir: str) -> pd.DataFrame:
    """Flesch reading ease + Flesch-Kincaid grade per document, from a
    deterministic document-level syllable heuristic (count of maximal
    [aeiouy]+ runs in the lowercased text — the standard vowel-group
    estimator, defined at text level so both engines count the same
    thing). Sentences = maximal [.!?]+ runs, floored at 1; words =
    whitespace tokens. Pure per-batch vectorized string kernels — one
    scan, no shuffle; scores are IEEE-double formulas over exact
    integer counts so the twins agree bit-for-bit after round(,4)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        n_words = t.str.count(r"\S+").to_numpy(np.int64)
        n_syll = t.str.lower().str.count(r"[aeiouy]+").to_numpy(np.int64)
        n_sent = np.maximum(
            t.str.count(r"[.!?]+").to_numpy(np.int64), 1)
        w = np.maximum(n_words, 1).astype(np.float64)
        flesch = np.where(
            n_words > 0,
            206.835 - 1.015 * (n_words / n_sent) - 84.6 * (n_syll / w),
            0.0)
        fk = np.where(
            n_words > 0,
            0.39 * (n_words / n_sent) + 11.8 * (n_syll / w) - 15.59,
            0.0)
        # floor-scaled integers, NOT round(): the formula lands exactly
        # on half-boundaries (43/32 is a dyadic rational), where numpy's
        # half-even and DuckDB's half-away disagree — floor is rule-free
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_sentences": pd.Series(n_sent, dtype="int64"),
            "n_words": pd.Series(n_words, dtype="int64"),
            "n_syllables": pd.Series(n_syll, dtype="int64"),
            "flesch_e4": np.floor(flesch * 10000.0).astype("int64"),
            "fk_grade_e4": np.floor(fk * 10000.0).astype("int64")})

    out = ds.map_batches(stats, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_READABILITY = r"""
WITH c AS (
  SELECT doc_id,
         greatest(1, len(regexp_extract_all(coalesce(text, ''),
                                            '[.!?]+'))) AS n_sentences,
         len(regexp_extract_all(coalesce(text, ''), '\S+')) AS n_words,
         len(regexp_extract_all(lower(coalesce(text, '')),
                                '[aeiouy]+')) AS n_syllables
  FROM documents
)
SELECT doc_id, n_sentences, n_words, n_syllables,
       CASE WHEN n_words > 0 THEN
         floor((206.835 - 1.015 * (n_words::DOUBLE / n_sentences)
                - 84.6 * (n_syllables::DOUBLE / n_words)) * 10000.0)::BIGINT
       ELSE 0 END AS flesch_e4,
       CASE WHEN n_words > 0 THEN
         floor((0.39 * (n_words::DOUBLE / n_sentences)
                + 11.8 * (n_syllables::DOUBLE / n_words) - 15.59)
               * 10000.0)::BIGINT
       ELSE 0 END AS fk_grade_e4
FROM c ORDER BY doc_id
"""


def q_bloom_join(sf_dir: str) -> pd.DataFrame:
    """Bloom-filter semi-join reduction (relational.bloom_semi_filter):
    revenue by priority for orders of BUILDING-segment customers. The
    segment keys build a broadcast Bloom (bits, not rows); orders are
    pre-filtered BEFORE the exact bucket_join, cutting the shuffle to
    ~selectivity of the left side. False positives are removed by the
    exact join, so the result is identical to the plain join — which
    is exactly what the oracle runs."""
    from ..functions import hashing
    from .relational import bloom_semi_filter

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    seg = cust.filter(lambda r: r["c_mktsegment"] == "BUILDING")
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderpriority"])
    reduced = bloom_semi_filter(orders, seg, "o_custkey", "c_custkey")

    seg_schema = pa.schema([("c_custkey", pa.int64()),
                            ("c_mktsegment", pa.string())])
    ord_schema = pa.schema([
        ("o_custkey", pa.int64()), ("o_totalprice", pa.float64()),
        ("o_orderpriority", pa.string())])
    j = bucket_join(reduced, seg, "o_custkey", "c_custkey",
                    num_partitions=16, left_schema=ord_schema,
                    right_schema=seg_schema)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        pr = b["o_orderpriority"].to_numpy(object)
        return pd.DataFrame({
            "pk": pd.Series(hashing.hash_strings(pr).view(np.int64),
                            dtype="int64"),
            "o_orderpriority": pr,
            "n_orders": np.ones(len(b), dtype=np.int64),
            "revenue_cents": np.floor(
                b["o_totalprice"].to_numpy(np.float64) * 100
            ).astype("int64")})

    out = keyed_combine(j.map_batches(prep, batch_format="pandas"),
                        ["pk", "o_orderpriority"],
                        ["n_orders", "revenue_cents"], "sum").to_pandas()
    out = out[["o_orderpriority", "n_orders", "revenue_cents"]]
    return (out.astype({"n_orders": "int64", "revenue_cents": "int64"})
            .sort_values("o_orderpriority").reset_index(drop=True))


SQL_BLOOM_JOIN = """
SELECT o.o_orderpriority, count(*) AS n_orders,
       sum(floor(o.o_totalprice * 100)::BIGINT)::BIGINT AS revenue_cents
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
WHERE c.c_mktsegment = 'BUILDING'
GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
"""


def q_big_order_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 shape (large-volume customers): orders whose lineitem
    quantity sum exceeds 300, joined back to orders and customer. The
    HAVING runs as a pre-aggregation (keyed_combine on l_orderkey)
    BEFORE any join — the classic push-down that turns a lineitem-scale
    join into a filtered-orders-scale one; both joins are the repo's
    fixed-bucket exchange."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].astype("int64"),
            "sum_qty": b["l_quantity"].to_numpy(np.float64).astype(
                "int64")})

    big = keyed_combine(li.map_batches(prep, batch_format="pandas"),
                        "l_orderkey", ["sum_qty"], "sum")
    big = big.filter(lambda r: r["sum_qty"] > 300)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])
    big_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("sum_qty", pa.int64())])
    j = bucket_join(big, orders, "l_orderkey", "o_orderkey",
                    num_partitions=16, left_schema=big_schema)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    j_schema = pa.schema([
        ("l_orderkey", pa.int64()), ("sum_qty", pa.int64()),
        ("o_custkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),
        ("o_totalprice", pa.float64())])
    out = bucket_join(j, cust, "o_custkey", "c_custkey",
                      num_partitions=16,
                      left_schema=j_schema).to_pandas()
    out = pd.DataFrame({
        "c_custkey": out["o_custkey"].astype("int64"),
        "c_name": out["c_name"],
        "o_orderkey": out["l_orderkey"].astype("int64"),
        "o_orderdate": pd.to_datetime(out["o_orderdate"]),
        "o_totalprice": np.round(out["o_totalprice"].to_numpy(
            np.float64), 2),
        "sum_qty": out["sum_qty"].astype("int64")})
    return (out.sort_values(["sum_qty", "o_orderkey"],
                            ascending=[False, True])
            .reset_index(drop=True))


SQL_BIG_ORDER_CUSTOMERS = """
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
       round(o.o_totalprice, 2) AS o_totalprice,
       sum(l.l_quantity)::BIGINT AS sum_qty
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
         o.o_totalprice
HAVING sum(l.l_quantity) > 300
ORDER BY sum_qty DESC, o_orderkey
"""


def q_quality_by_source(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    qt = textstats.quality_score_table(ds)
    src = _read_pd(sf_dir, "documents", ["doc_id", "source"])
    merged = qt.to_pandas().merge(src, on="doc_id")
    g = merged.groupby("source", as_index=False).agg(
        n_docs=("doc_id", "size"),
        sum_tokens=("n_tokens", "sum"),
        n_short=("is_short", "sum"),
    )
    return pd.DataFrame(
        {
            "source": g.source,
            "n_docs": g.n_docs.astype("int64"),
            "sum_tokens": g.sum_tokens.astype("int64"),
            "n_short": g.n_short.astype("int64"),
        }
    )


SQL_QUALITY_BY_SOURCE = """
SELECT source, count(*) AS n_docs,
       sum(len(regexp_split_to_array(trim(text), '\\s+')))::BIGINT AS sum_tokens,
       sum(CASE WHEN length(text) < 100 THEN 1 ELSE 0 END)::BIGINT AS n_short
FROM documents GROUP BY 1
"""


def q_top_docs_by_source(sf_dir: str) -> pd.DataFrame:
    """Top-3 longest documents (token count) per source — group-wise
    top-k via per-batch pruning before one group-keyed shuffle (no
    global sort; curation pipelines use this shape to pick best-of-group
    exemplars)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def feat(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "source": b["source"],
            "n_tokens": b["text"].fillna("").str.split().map(len).astype("int64"),
        })

    feats = ds.map_batches(feat, batch_format="pandas", batch_size=65536)
    out = relational.grouped_topk(
        feats, "source", ["n_tokens", "doc_id"], k=3,
        ascending=[False, True],
    ).to_pandas()
    return (
        out.astype({"doc_id": "int64", "n_tokens": "int64"})
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)[["doc_id", "source", "n_tokens"]]
    )


def q_top_terms_by_source(sf_dir: str) -> pd.DataFrame:
    """Top-5 distinctive terms per source (integer tf/df score):
    inverted-index two-level aggregation (term-keyed exchange
    computes global doc frequency) + grouped_topk."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    scored = textstats.distinctive_terms(ds)
    out = relational.grouped_topk(
        scored, "source", ["score", "term"], k=5, ascending=[False, True],
    ).to_pandas()
    return (
        out.astype({"tf": "int64", "df": "int64", "score": "int64"})
        [["source", "term", "tf", "df", "score"]]
        .sort_values(["source", "term"])
        .reset_index(drop=True)
    )


SQL_TOP_TERMS_BY_SOURCE = """
WITH tok AS (
  SELECT doc_id, source,
         unnest(regexp_split_to_array(trim(text), '\\s+')) AS term
  FROM documents
), st AS (
  SELECT source, term, count(*)::BIGINT AS tf,
         count(DISTINCT doc_id)::BIGINT AS dfs
  FROM tok GROUP BY 1, 2
), t AS (
  SELECT term, sum(dfs)::BIGINT AS df FROM st GROUP BY 1
)
SELECT source, term, tf, df, ((tf * 1000000) // df)::BIGINT AS score
FROM st JOIN t USING (term)
QUALIFY row_number() OVER (
  PARTITION BY source ORDER BY score DESC, term) <= 5
ORDER BY source, term
"""


SQL_TOP_DOCS_BY_SOURCE = """
SELECT doc_id, source, n_tokens FROM (
  SELECT doc_id, source,
         len(regexp_split_to_array(trim(text), '\\s+'))::BIGINT AS n_tokens,
         row_number() OVER (
           PARTITION BY source
           ORDER BY len(regexp_split_to_array(trim(text), '\\s+')) DESC, doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 3
ORDER BY source, doc_id
"""


def q_langid(sf_dir: str) -> pd.DataFrame:
    """Stopword-hit language ID accuracy per true lang."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    pred = textstats.langid_table(ds).to_pandas()
    truth = _read_pd(sf_dir, "documents", ["doc_id", "lang"])
    m = pred.merge(truth, on="doc_id")
    g = m.groupby("lang", as_index=False).agg(
        n_docs=("doc_id", "size"),
        n_correct=("pred_lang", lambda s: int((s == m.loc[s.index, "lang"]).sum())),
    )
    g["n_docs"] = g.n_docs.astype("int64")
    g["n_correct"] = g.n_correct.astype("int64")
    return g


def _langid_sql() -> str:
    hit = {
        lg: ", ".join(f"'{w}'" for w in ws)
        for lg, ws in textstats.LANG_STOPWORDS.items()
    }
    h = {
        lg: (
            "len(list_filter(regexp_split_to_array(trim(text), '\\s+'), "
            f"x -> x IN ({hit[lg]})))"
        )
        for lg in hit
    }
    return f"""
WITH t AS (
  SELECT lang,
         {h['de']} AS h_de, {h['en']} AS h_en, {h['es']} AS h_es,
         {h['fr']} AS h_fr, {h['zh']} AS h_zh
  FROM documents
), p AS (
  SELECT lang,
         CASE
           WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr AND h_de >= h_zh
             THEN 'de'
           WHEN h_en >= h_es AND h_en >= h_fr AND h_en >= h_zh THEN 'en'
           WHEN h_es >= h_fr AND h_es >= h_zh THEN 'es'
           WHEN h_fr >= h_zh THEN 'fr'
           ELSE 'zh'
         END AS pred
  FROM t
)
SELECT lang, count(*) AS n_docs,
       sum(CASE WHEN pred = lang THEN 1 ELSE 0 END)::BIGINT AS n_correct
FROM p GROUP BY lang
"""


def q_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprint stats per doc (rows-only oracle)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return textstats.fingerprint_table(ds).to_pandas()


def q_shuffle_shards(sf_dir: str) -> pd.DataFrame:
    """Deterministic global shuffle -> training shards: per-shard
    manifest with an order-sensitive checksum over the shuffled rank
    sequence (pipelines/curate.py shard_manifest). The checksum pins
    the exact permutation, so the oracle verifies the distributed sort
    + cross-block rank prefix, not just shard membership."""
    from . import curate

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return curate.shard_manifest(ds, n_shards=16, seed=1)


def q_leakage_safe_split(sf_dir: str) -> pd.DataFrame:
    """Cluster-atomic train/test split (eval-leakage guard): near-dup
    clusters are assigned to a split as a UNIT by hashing the cluster
    id, so near-duplicates can never straddle train and test. Composes
    the existing scale paths — ngram_jaccard_pairs -> connected
    components -> keep_best(emit_all=True) annotation (two
    metadata-scale shuffles, no label-map broadcast) -> one doc-keyed
    bucket_join to re-attach (lang, n_chars) -> grouped partial agg."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source",
                                     "n_chars"])
    pairs = dedup.ngram_jaccard_pairs(ds, ["lang", "source"], threshold=0.5)
    labels = dedup.connected_components(pairs)

    def meta(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "lang": b["lang"].astype(str),
            "n_chars": b["n_chars"].astype("int64"),
            "score": 0.0,
        })

    docs_meta = ds.map_batches(meta, batch_format="pandas",
                               batch_size=65536)
    ann = dedup.keep_best(docs_meta, labels, emit_all=True)
    joined = relational.bucket_join(
        docs_meta.drop_columns(["score"]), ann, "doc_id", "doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("lang", pa.string()),
                               ("n_chars", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("cluster_id", pa.int64()),
                                ("kept", pa.bool_())]),
    )

    def with_split(b: pd.DataFrame) -> pd.DataFrame:
        c = b["cluster_id"].to_numpy(np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (c * np.uint64(2654435761)) % np.uint64(1 << 32)
        return pd.DataFrame({
            "split": np.where(h % np.uint64(10) < 8, "train", "test"),
            "lang": b["lang"].astype(str),
            "n_chars": b["n_chars"].to_numpy(np.int64),
        })

    g = relational.grouped_agg(
        joined.map_batches(with_split, batch_format="pandas",
                           batch_size=65536),
        ["split", "lang"], sums=["n_chars"])
    out = pd.DataFrame({
        "split": g["split"].astype(str),
        "lang": g["lang"].astype(str),
        "n_docs": g["n"].astype("int64"),
        "sum_chars": g["sum_n_chars"].astype("int64"),
    })
    return out.sort_values(["split", "lang"]).reset_index(drop=True)


SQL_LEAKAGE_SAFE_SPLIT = """
WITH RECURSIVE t AS (
  -- coalesce: the engine treats NULL text as an empty token set
  -- (all-empty docs pair at jaccard 1.0); bare NULL would propagate
  -- through the split and silently drop those pairs here
  SELECT doc_id, lang, source,
         list_distinct(regexp_split_to_array(trim(coalesce(text, '')),
                                             '\\s+')) AS toks
  FROM documents
), pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM t a JOIN t b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
        >= 0.5
), e AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
), reach(v, l) AS (
  SELECT a AS v, a AS l FROM e
  UNION
  SELECT e.b AS v, reach.l FROM reach JOIN e ON e.a = reach.v
), cl AS (
  SELECT v AS doc_id, min(l) AS cluster_id FROM reach GROUP BY v
), lab AS (
  SELECT d.doc_id, d.lang, d.n_chars,
         coalesce(cl.cluster_id, d.doc_id) AS cluster_id
  FROM documents d LEFT JOIN cl ON d.doc_id = cl.doc_id
)
SELECT CASE WHEN (cluster_id * 2654435761) % 4294967296 % 10 < 8
            THEN 'train' ELSE 'test' END AS split,
       lang, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM lab GROUP BY 1, 2 ORDER BY 1, 2
"""


# DuckDB twin of curate.shard_manifest (n_shards=16, seed=1): Knuth
# multiplicative key mod 2^32, shard = key % 16, rank by (key, doc_id)
# within shard; checksum = bit_xor of (rank * ((doc_id*FNV mod 2^64)|1))
# mod 2^63 — mod-2^63 commutes with the engine's uint64 wraparound
# because 2^64 is a multiple of 2^63.
SQL_SHUFFLE_SHARDS = """
WITH k AS (
  SELECT doc_id, n_chars,
         (doc_id * 2654435761 + 1) % 4294967296 AS skey
  FROM documents
),
r AS (
  SELECT doc_id, n_chars, skey, skey % 16 AS shard,
         row_number() OVER (PARTITION BY skey % 16
                            ORDER BY skey, doc_id) AS rnk
  FROM k
)
SELECT shard::BIGINT AS shard,
       count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS sum_chars,
       bit_xor(((rnk::HUGEINT *
                 (((doc_id::HUGEINT * 1099511628211) % 18446744073709551616::HUGEINT)
                  | 1::HUGEINT))
                % 9223372036854775808::HUGEINT)::BIGINT) AS checksum
FROM r GROUP BY shard ORDER BY shard
"""


# --------------------------------------------------------------------- eval


def _paired_docs(sf_dir: str) -> rd.Dataset:
    """Pair doc i with doc i+20 (same source by construction) — the
    large✕large join path, on the fixed-bucket shuffle join
    (``relational.bucket_join``: plain tasks, wall time flat in long
    sessions). Output columns are (doc_id_a, text_a, text_b)."""
    left = _read(sf_dir, "documents", ["doc_id", "text"])

    def addkey(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.append_column("pair_key", pc.add(b.column("doc_id"), 20))

    left = left.map_batches(addkey, batch_format="pyarrow")
    right = _read(sf_dir, "documents", ["doc_id", "text"])
    joined = relational.bucket_join(left, right, "pair_key", "doc_id")

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id_a": b["doc_id"],
            "text_a": b["text"],
            "text_b": b["text_r"],
        })

    return joined.map_batches(norm, batch_format="pandas")


def q_cer_pairs(sf_dir: str) -> pd.DataFrame:
    """Edit distance between paired docs (A1 levenshtein + A4 join)."""
    joined = _paired_docs(sf_dir)

    def dist(b: pd.DataFrame) -> pd.DataFrame:
        d = levenshtein_many([(x or "")[:40] for x in b["text_a"]],
                             [(y or "")[:40] for y in b["text_b"]])
        return pd.DataFrame({"doc_id": b["doc_id_a"].astype("int64"),
                             "dist": pd.array(d, dtype="int64")})

    out = joined.map_batches(dist, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CER_PAIRS = """
SELECT a.doc_id AS doc_id,
       levenshtein(substr(a.text, 1, 40), substr(b.text, 1, 40))::BIGINT AS dist
FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 20
"""


def q_confusions(sf_dir: str) -> pd.DataFrame:
    """Global confusion top-k over paired docs (A2 xlevenshtein + A6
    confusion aggregation: flat_map pairs -> groupby count -> top-k).
    Rows-only oracle (alignment is not SQL-expressible)."""
    joined = _paired_docs(sf_dir)

    def confs(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for x, y in zip(b["text_a"], b["text_b"]):
            x = (x or "")[:30]
            y = (y or "")[:30]
            if not y:
                continue
            _, cs = xlevenshtein(x, y, context=1)
            rows.extend(cs)
        return pd.DataFrame(rows, columns=["pred", "gt"]) if rows else pd.DataFrame(
            {"pred": pd.array([], dtype="string"),
             "gt": pd.array([], dtype="string")}
        )

    pairs = joined.map_batches(confs, batch_format="pandas")

    def part_counts(b: pd.DataFrame) -> pd.DataFrame:
        # FULL per-batch partial counts — no local top-m truncation: a
        # head(512) here would drop a heavy pair's mass in every batch
        # where it misses the local cut, so summed partials undercount.
        # Per-batch distinct (pred,gt) context pairs are bounded by the
        # batch's confusion occurrences, so the partial output is small.
        g = (b.groupby(["pred", "gt"], as_index=False)
              .size().rename(columns={"size": "n"}))
        return g

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        # combiner-tree level: sum partials across many source batches so
        # the driver merge sees <= distinct_pairs x (blocks / fan-in)
        # rows, not distinct x blocks — exact (count sums are associative)
        # and no keyed shuffle (Ray's keyed-aggregate pool measured 16s
        # for 7k rows in a warm session).
        return b.groupby(["pred", "gt"], as_index=False)["n"].sum()

    parts = (pairs.map_batches(part_counts, batch_format="pandas")
             .map_batches(combine, batch_format="pandas", batch_size=1 << 20)
             .to_pandas())
    top = (parts.groupby(["pred", "gt"], as_index=False)["n"].sum()
           .sort_values(["n", "pred", "gt"], ascending=[False, True, True])
           .head(20).reset_index(drop=True))
    top["n"] = top.n.astype("int64")
    return top


def q_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed spherical k-means over the embeddings table (Lloyd
    iterations = streaming passes with per-batch partial sums; centroids
    broadcast per iteration). Deterministic init (k smallest vec_ids).
    Iterative -> rows-only oracle. Output: per-cluster size + mean
    similarity-to-centroid, ordered by cluster id."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = similarity.kmeans_fit(ds, k=8, iters=5)
    assigned = similarity.kmeans_assign(ds, C)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("cluster").agg(
            size=("vec_id", "size"), sim_sum=("centroid_sim", "sum")
        )
        return g.reset_index()

    # per-batch partials (<= k rows each) -> tiny driver reduce
    parts = assigned.map_batches(part, batch_format="pandas").to_pandas()
    g = parts.groupby("cluster").agg(size=("size", "sum"), sim_sum=("sim_sum", "sum"))
    g["avg_sim"] = (g["sim_sum"] / g["size"]).round(6)
    return (
        g.reset_index()[["cluster", "size", "avg_sim"]]
        .astype({"cluster": "int64", "size": "int64"})
        .sort_values("cluster")
        .reset_index(drop=True)
    )


def q_range_join(sf_dir: str) -> pd.DataFrame:
    """Range (interval) self-join: follow-up orders by the same customer
    within 90 days of each anchor order, aggregated per anchor priority.
    Custom wide operator: one hash shuffle + per-key searchsorted
    intervals + prefix sums (windows.py:range_join_aggregate)."""
    from .windows import range_join_aggregate

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderpriority",
                    "o_totalprice"])
    return range_join_aggregate(orders, window_days=90)


SQL_RANGE_JOIN = """
SELECT a.o_orderpriority,
       count(*) AS n_pairs,
       sum(floor(b.o_totalprice * 100)::BIGINT)::BIGINT AS sum_price_cents
FROM orders a JOIN orders b
  ON b.o_custkey = a.o_custkey
 AND b.o_orderkey <> a.o_orderkey
 AND b.o_orderdate >= a.o_orderdate
 AND b.o_orderdate < a.o_orderdate + INTERVAL 90 DAY
GROUP BY a.o_orderpriority
ORDER BY a.o_orderpriority
"""


def q_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT distributed quantiles by group via sparse counting
    histograms: each batch emits (event_type, cents, count) partials —
    bounded by the value domain, not the row count — and the driver
    merges the tiny histograms and reads quantiles off the cumulative
    counts (ceil-rank, matching quantile_disc). The scale pattern for
    bounded/discretized domains: no sort, no sampling, one pass."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def part(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(cents=np.floor(b.value * 100).astype("int64"))
        return (
            b.groupby(["event_type", "cents"]).size().reset_index(name="cnt")
        )

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    hist = parts.groupby(["event_type", "cents"], as_index=False)["cnt"].sum()
    rows = []
    for et, h in hist.groupby("event_type"):
        h = h.sort_values("cents")
        cnt = h["cnt"].to_numpy()
        val = h["cents"].to_numpy()
        n = int(cnt.sum())
        cum = np.cumsum(cnt)

        def pick(q):
            return int(val[np.searchsorted(cum, int(np.ceil(q * n)), "left")])

        rows.append((et, pick(0.5), pick(0.9), pick(0.99)))
    return pd.DataFrame(
        rows, columns=["event_type", "p50_cents", "p90_cents", "p99_cents"]
    ).sort_values("event_type").reset_index(drop=True)


SQL_VALUE_QUANTILES = """
SELECT event_type,
       quantile_disc(floor(value * 100)::BIGINT, 0.5)  AS p50_cents,
       quantile_disc(floor(value * 100)::BIGINT, 0.9)  AS p90_cents,
       quantile_disc(floor(value * 100)::BIGINT, 0.99) AS p99_cents
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def q_join_revenue_priority(sf_dir: str, hot_keys=None,
                            salt: int = 8) -> pd.DataFrame:
    """Large x large hash join (lineitem ⋈ orders on the order key) on
    the fixed-bucket shuffle — both sides shuffle on the key (no
    broadcast; contrast q_top_orders' broadcast join). Revenue cents
    are computed AND partially combined per order key inside each batch
    BEFORE the join (lineitem is clustered by orderkey, ~4 rows/order),
    so the shuffle moves one partial row per (batch, orderkey) instead
    of one per lineitem — ~4x less exchange traffic, same exact sums."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        # arrow in/out: a pandas UDF output would re-enter the join as a
        # Table.from_pandas block whose pandas-metadata dict makes the
        # schema unhashable — Ray's hash-shuffle schema dedup then logs
        # "Failed to hash the schemas" per aggregator block
        import pyarrow.compute as pc

        rev = pc.cast(pc.floor(pc.multiply(pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount"))),
            pa.scalar(100.0))), pa.int64())
        part = (pa.table({"l_orderkey": t.column("l_orderkey"),
                          "rev_cents": rev})
                .group_by("l_orderkey")
                .aggregate([("rev_cents", "sum"), ("rev_cents", "count")]))
        return part.rename_columns(["l_orderkey", "rev_cents", "li_rows"])

    li = li.map_batches(prep, batch_format="pyarrow", batch_size=65536)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # fixed-bucket shuffle join (see relational.bucket_join): same
    # exchange as the native hash join without its aggregator actor
    # pool, whose startup is bimodal (3s/30s+) late in long sessions
    joined = relational.bucket_join(li, orders, "l_orderkey", "o_orderkey",
                                    hot_keys=hot_keys, salt=salt)
    g = grouped_agg(joined, ["o_orderpriority"], sums=["rev_cents", "li_rows"])
    return pd.DataFrame(
        {
            "o_orderpriority": g.o_orderpriority,
            "revenue_cents": g.sum_rev_cents.astype("int64"),
            "n_items": g.sum_li_rows.astype("int64"),
        }
    ).sort_values("o_orderpriority").reset_index(drop=True)


SQL_JOIN_REVENUE_PRIORITY = """
SELECT o_orderpriority,
       sum(floor((l_extendedprice * (1 - l_discount)) * 100)::BIGINT)::BIGINT
         AS revenue_cents,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_salted_join_revenue(sf_dir: str) -> pd.DataFrame:
    """The join_revenue_priority exchange with HOT-KEY SALTING forced
    on (first 100 orderkeys declared hot, salt=4): left partials split
    across salts, right rows replicated — the skew lever for a key
    holding a corpus-scale share. Same oracle as the unsalted join, so
    the salted path is verified value-for-value end-to-end. (TPC-H
    orderkeys aren't actually skewed; production callers pass
    relational.detect_hot_keys output instead of a forced list —
    planted-skew behavior is pinned in tests/test_pipeline.py.)"""
    return q_join_revenue_priority(sf_dir, hot_keys=list(range(100)),
                                   salt=4)


SQL_SALTED_JOIN_REVENUE = SQL_JOIN_REVENUE_PRIORITY


def q_customer_order_counts(sf_dir: str) -> pd.DataFrame:
    """LEFT join on the fixed-bucket shuffle (bucket_join how='left'):
    every customer survives, order-less customers carry nulls in the
    order columns. Per-customer counts come from summing a 0/1 match
    flag computed batch-wise AFTER the join, so a customer with zero
    orders correctly reports n_orders=0 (an inner join would drop it;
    counting rows would report 1)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = relational.bucket_join(cust, orders, "c_custkey", "o_custkey",
                                    how="left")

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        matched = b["o_custkey"].notna()
        cents = np.floor(b["o_totalprice"].to_numpy(dtype="float64") * 100.0)
        return pd.DataFrame({
            "c_custkey": b["c_custkey"].astype("int64"),
            "matched": matched.astype("int64"),
            "cents": np.where(matched, cents, 0.0).astype("int64"),
        })

    flat = joined.map_batches(flag, batch_format="pandas", batch_size=65536)
    g = grouped_agg(flat, ["c_custkey"], sums=["matched", "cents"])
    return pd.DataFrame({
        "c_custkey": g.c_custkey.astype("int64"),
        "n_orders": g.sum_matched.astype("int64"),
        "total_cents": g.sum_cents.astype("int64"),
    }).sort_values("c_custkey").reset_index(drop=True)


SQL_CUSTOMER_ORDER_COUNTS = """
SELECT c_custkey,
       count(o_orderkey) AS n_orders,
       coalesce(sum(floor(o_totalprice * 100)::BIGINT), 0)::BIGINT
         AS total_cents
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY c_custkey ORDER BY c_custkey
"""


def q_discounted_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """SEMI join on the fixed-bucket shuffle (bucket_join how='semi'):
    orders having at least one line item discounted >= 5%, counted per
    priority. The right side keeps its natural duplicates (several
    qualifying lines per order) — semi semantics guarantee each order
    still counts once, unlike an inner join + count."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_discount"])

    def disc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.greater_equal(t.column("l_discount"), 0.05)
        ).select(["l_orderkey"])

    keys = li.map_batches(disc, batch_format="pyarrow", batch_size=262144)
    hit = relational.bucket_join(orders, keys, "o_orderkey", "l_orderkey",
                                 how="semi")
    g = grouped_agg(hit, ["o_orderpriority"])
    return pd.DataFrame({
        "o_orderpriority": g.o_orderpriority,
        "n_orders": g.n.astype("int64"),
    }).sort_values("o_orderpriority").reset_index(drop=True)


SQL_DISCOUNTED_ORDERS_BY_PRIORITY = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_discount >= 0.05)
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_no_bigorder_custs(sf_dir: str) -> pd.DataFrame:
    """ANTI join on the fixed-bucket shuffle (bucket_join how='anti'):
    customers with NO order totalling >= $350k, counted per market
    segment. Unlike q_customers_no_orders, whose key side is pre-deduped
    per batch, the key side here keeps duplicate right keys, which anti
    mode tolerates directly."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.greater_equal(t.column("o_totalprice"), 350000.0)
        ).select(["o_custkey"])

    keys = orders.map_batches(big, batch_format="pyarrow", batch_size=262144)
    miss = relational.bucket_join(cust, keys, "c_custkey", "o_custkey",
                                  how="anti")
    g = grouped_agg(miss, ["c_mktsegment"])
    return pd.DataFrame({
        "c_mktsegment": g.c_mktsegment,
        "n_custs": g.n.astype("int64"),
    }).sort_values("c_mktsegment").reset_index(drop=True)


SQL_NO_BIGORDER_CUSTS = """
SELECT c_mktsegment, count(*) AS n_custs
FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_totalprice >= 350000)
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


# ------------------------------------------------------ content extraction


def q_html_extract(sf_dir: str) -> pd.DataFrame:
    """Main-content extraction round-trip (north-rule HTML leg): each
    document is rendered into a deterministic boilerplate-laden page
    (webgen templates: nav/ads/sidebar/comments/footer) and the
    density-heuristic extractor (functions/htmlx.py) must recover
    exactly the title + original text. The oracle reconstructs the
    expected main text directly from the source column, so the hash
    compare proves the extractor strips ALL chrome and loses nothing."""
    from .extract import extract_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = extract_docs(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_HTML_EXTRACT = r"""
SELECT doc_id,
       trim('Story ' || doc_id::VARCHAR || ' '
            || trim(regexp_replace(text, '\s+', ' ', 'g'))) AS main_text
FROM documents ORDER BY doc_id
"""


def q_html_markdown(sf_dir: str) -> pd.DataFrame:
    """Main content rendered as Markdown (headings / paragraphs / image
    blocks) instead of a flat string — the standard web-corpus
    representation for LLM pretraining.  The oracle reconstructs the
    expected Markdown purely in SQL from the source text and the wrap
    layout rule (chunk size k = 10+3*(doc_id%4) words, one H1 title, an
    image block after paragraph n//2 iff doc_id%3==0), so the hash
    compare pins heading syntax, block order, and blank-line joins."""
    from .extract import markdown_stage, wrap_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = (wrap_docs(ds)
           .map_batches(markdown_stage, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_HTML_MARKDOWN = r"""
WITH w AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t,
         10 + 3 * (doc_id % 4) AS k
  FROM documents
), words AS (
  SELECT doc_id, k,
         unnest(string_split(t, ' ')) AS word,
         unnest(range(1, len(string_split(t, ' ')) + 1)) AS i
  FROM w WHERE t <> ''
), paras AS (
  SELECT doc_id, k, (i - 1) // k AS p,
         string_agg(word, ' ' ORDER BY i) AS para
  FROM words GROUP BY doc_id, k, (i - 1) // k
), np AS (
  SELECT doc_id, count(*) AS n FROM paras GROUP BY doc_id
), blocks AS (
  SELECT p.doc_id, p.p,
         p.para || CASE WHEN p.doc_id % 3 = 0 AND p.p = np.n // 2
                        THEN chr(10) || chr(10) || '![](img://'
                             || p.doc_id::VARCHAR || '/' || p.p::VARCHAR || ')'
                        ELSE '' END AS md
  FROM paras p JOIN np USING (doc_id)
), body AS (
  SELECT doc_id, string_agg(md, chr(10) || chr(10) ORDER BY p) AS b
  FROM blocks GROUP BY doc_id
)
SELECT w.doc_id,
       '# Story ' || w.doc_id::VARCHAR
       || coalesce(chr(10) || chr(10) || body.b, '') AS markdown
FROM w LEFT JOIN body USING (doc_id)
ORDER BY w.doc_id
"""


def q_warc_extract(sf_dir: str) -> pd.DataFrame:
    """Main-content extraction over WARC shards — the real web-scale
    input shape: the documents table is rendered once into deterministic
    member-per-record .warc.gz shards (sources/warcgen.py, Common Crawl
    layout), then a Ray pipeline reads the shards file-parallel, parses
    records, and density-extracts the main text.  Shares
    SQL_HTML_EXTRACT's identity oracle, so the hash compare proves the
    WHOLE chain — WARC write, member parse, HTML strip — loses nothing."""
    from ..functions.htmlx import extract_main_text
    from ..sources.warcgen import build_warc_corpus, read_warc, uri_doc_id

    man = build_warc_corpus(sf_dir)
    ds = read_warc(man["shards"])

    def extract(b: pa.Table) -> pa.Table:
        ids = [uri_doc_id(u) for u in b.column("uri").to_pylist()]
        texts = [extract_main_text(p.decode())
                 for p in b.column("payload").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "main_text": pa.array(texts, pa.string())})

    out = ds.map_batches(extract, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_warc_fetch(sf_dir: str) -> pd.DataFrame:
    """CDX-pruned ranged fetch: select a sparse doc subset (doc_id %
    97 == 0) from the per-shard CDX indexes (small parquet sidecars),
    then read ONLY those records' gzip members from the shards by
    (offset, length) — the corpus bytes outside the probed members are
    never touched, the random-access path a 100 TB archive depends on.
    Identity oracle on the fetched subset proves the ranged decode
    returns exactly the records the index promised."""
    from ..functions import warcx
    from ..functions.htmlx import extract_main_text
    from ..sources.warcgen import build_warc_corpus, uri_doc_id

    man = build_warc_corpus(sf_dir)
    cdx = rd.read_parquet([s + ".cdx.parquet" for s in man["shards"]],
                          include_paths=True)

    def probe(b: pa.Table) -> pa.Table:
        ids = np.array([uri_doc_id(u) for u in b.column("uri").to_pylist()],
                       dtype=np.int64)
        return b.filter(pa.array(ids % 97 == 0))

    def fetch(b: pa.Table) -> pa.Table:
        ids, texts = [], []
        # group probes per shard: one open per (task, shard), then pure
        # seek+read per record
        df = b.select(["path", "uri", "offset", "length"]).to_pandas()
        for path, g in df.groupby("path", sort=False):
            shard = path[: -len(".cdx.parquet")]
            with open(shard, "rb") as f:
                for uri, off, length in zip(g["uri"], g["offset"],
                                            g["length"]):
                    f.seek(int(off))
                    member = f.read(int(length))
                    rec = warcx.read_record_at(member, 0, len(member))
                    assert rec["headers"]["warc-target-uri"] == uri
                    ids.append(uri_doc_id(uri))
                    texts.append(extract_main_text(rec["payload"].decode()))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "main_text": pa.array(texts, pa.string())})

    out = (cdx.map_batches(probe, batch_format="pyarrow")
           .map_batches(fetch, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_WARC_FETCH = r"""
SELECT doc_id,
       trim('Story ' || doc_id::VARCHAR || ' '
            || trim(regexp_replace(text, '\s+', ' ', 'g'))) AS main_text
FROM documents WHERE doc_id % 97 = 0 ORDER BY doc_id
"""


def q_warc_charsets(sf_dir: str) -> pd.DataFrame:
    """Mixed-encoding decode audit: a charset_mix WARC corpus encodes
    each doc per a doc_id rule (UTF-8 plain / UTF-16LE+BOM /
    UTF-16BE+BOM / UTF-8 via Content-Type header), and the WHATWG-order
    sniffing decoder (functions/charsetx.py) must both NAME the
    encoding and recover the exact text.  Oracle: encoding from the
    rule, main_text identity from the source column — a wrong decode or
    a leaked BOM hash-mismatches."""
    from ..functions.charsetx import decode_html
    from ..functions.htmlx import extract_main_text
    from ..sources.warcgen import build_warc_corpus, read_warc, uri_doc_id

    man = build_warc_corpus(sf_dir, charset_mix=True)
    ds = read_warc(man["shards"])

    def decode(b: pa.Table) -> pa.Table:
        ids, encs, texts = [], [], []
        for u, ct, p in zip(b.column("uri").to_pylist(),
                            b.column("content_type").to_pylist(),
                            b.column("payload").to_pylist()):
            text, enc = decode_html(p, ct)
            ids.append(uri_doc_id(u))
            encs.append(enc)
            texts.append(extract_main_text(text))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "encoding": pa.array(encs, pa.string()),
                         "main_text": pa.array(texts, pa.string())})

    out = ds.map_batches(decode, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_WARC_CHARSETS = r"""
SELECT doc_id,
       CASE doc_id % 4 WHEN 1 THEN 'utf-16-le' WHEN 2 THEN 'utf-16-be'
            ELSE 'utf-8' END AS encoding,
       trim('Story ' || doc_id::VARCHAR || ' '
            || trim(regexp_replace(text, '\s+', ' ', 'g'))) AS main_text
FROM documents ORDER BY doc_id
"""


def q_warc_stats(sf_dir: str) -> pd.DataFrame:
    """Shard-routing audit over the WARC corpus: per shard, records
    seen by the reader and the doc_id range parsed back from the record
    URIs.  Oracle recomputes all three from the documents table and the
    doc_id % num_shards routing rule — a full round-trip check that no
    record was dropped, duplicated, or mis-routed by the shard writer."""
    from ..sources.warcgen import build_warc_corpus, read_warc, uri_doc_id

    man = build_warc_corpus(sf_dir)
    ds = read_warc(man["shards"])
    n = man["num_shards"]

    def per_rec(b: pa.Table) -> pa.Table:
        ids = np.array([uri_doc_id(u) for u in b.column("uri").to_pylist()],
                       dtype=np.int64)
        return pa.table({"shard": pa.array(ids % n, pa.int64()),
                         "doc_id": pa.array(ids, pa.int64())})

    recs = ds.map_batches(per_rec, batch_format="pyarrow")
    out = grouped_agg(recs, ["shard"], mins=["doc_id"], maxs=["doc_id"])
    out = out.rename(columns={"n": "n_records", "min_doc_id": "min_doc",
                              "max_doc_id": "max_doc"})
    return (out[["shard", "n_records", "min_doc", "max_doc"]]
            .sort_values("shard").reset_index(drop=True))


SQL_WARC_STATS = r"""
SELECT doc_id % 8 AS shard, count(*) AS n_records,
       min(doc_id) AS min_doc, max(doc_id) AS max_doc
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_web_spans(sf_dir: str) -> pd.DataFrame:
    """Full interleaved span sequence (kind, text, media_ref, order) per
    document after extraction — the north rule's per-row invariant
    surface. Rows-only at the driver; span-sequence equality is pinned
    by tests/test_extract.py."""
    from .extract import extract_spans_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = extract_spans_table(ds).to_pandas()
    return out.sort_values(["doc_id", "offset"]).reset_index(drop=True)


def q_web_span_counts(sf_dir: str) -> pd.DataFrame:
    """Structural span-layout check, oracle-expressible: the wrap layout
    is a pure function of (doc_id, word count) — chunk size
    k = 10 + 3*(doc_id%4) words, one title span, one media span iff
    doc_id%3==0 and the text is non-empty."""
    from .extract import span_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return span_counts(ds)


SQL_WEB_SPAN_COUNTS = r"""
WITH w AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS t,
         10 + 3 * (doc_id % 4) AS k
  FROM documents
), c AS (
  SELECT doc_id, k, t,
         CASE WHEN t = '' THEN 0
              ELSE length(t) - length(replace(t, ' ', '')) + 1 END AS n_words
  FROM w
)
SELECT doc_id,
       (1 + (n_words + k - 1) // k)::BIGINT AS n_text,
       (CASE WHEN doc_id % 3 = 0 AND n_words > 0 THEN 1 ELSE 0 END)::BIGINT
         AS n_media,
       (length('Story ' || doc_id::VARCHAR)
        + CASE WHEN n_words = 0 THEN 0
               ELSE length(t) - ((n_words + k - 1) // k - 1) END)::BIGINT
         AS main_chars
FROM c ORDER BY doc_id
"""


def q_justext_stats(sf_dir: str) -> pd.DataFrame:
    """jusText boilerplate classification (Pomikálek 2011,
    language-independent mode) over the deterministic wrapped pages:
    per-doc block counts by context-free class plus the final
    (context-sensitive) good-block count and char mass.

    Oracle-expressible because every chrome block resolves
    deterministically: nav/footer fall in the extractor's kill list,
    ad/sidebar link blocks are bad at any LCG text length (link density
    1.0 / >=0.76), and every other chrome block (title, h1, table
    cells, comments) is <40 chars, i.e. short. Only the main paragraph
    chunks — pure functions of (doc_id, text) — vary, and the SQL twin
    re-derives their char lengths by word-array chunking."""
    from .extract import justext_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = justext_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_JUSTEXT_STATS = r"""
WITH base AS (
  SELECT doc_id,
         doc_id % 4 AS tpl,
         10 + 3 * (doc_id % 4) AS k,
         list_filter(regexp_split_to_array(trim(text), '\s+'),
                     w -> w <> '') AS words
  FROM documents
), tok AS (
  SELECT doc_id, k,
         unnest(words) AS w,
         unnest(range(1, len(words) + 1)) AS ord
  FROM base
), chunks AS (
  -- main paragraph chunks: k words joined by single spaces
  SELECT doc_id, (ord - 1) // k AS g,
         sum(length(w)) + count(*) - 1 AS clen
  FROM tok GROUP BY doc_id, k, (ord - 1) // k
), cls AS (
  SELECT doc_id, g, clen,
         CASE WHEN clen >= 150 THEN 'good'
              WHEN clen >= 40 THEN 'neargood'
              ELSE 'short' END AS cf
  FROM chunks
), ctx AS (
  -- the chunk run is flanked by effective-bad anchors in every
  -- template, so a chunk's nearest non-doubtful neighbour is the
  -- nearest GOOD chunk on that side, else bad
  SELECT doc_id, clen, cf,
         coalesce(max(CASE WHEN cf = 'good' THEN 1 ELSE 0 END) OVER
           (PARTITION BY doc_id ORDER BY g
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS good_before,
         coalesce(max(CASE WHEN cf = 'good' THEN 1 ELSE 0 END) OVER
           (PARTITION BY doc_id ORDER BY g
            ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING), 0)
           AS good_after
  FROM cls
), fin AS (
  SELECT doc_id, clen, cf,
         CASE WHEN cf = 'good' THEN 1
              WHEN cf = 'neargood'
                   AND (good_before = 1 OR good_after = 1) THEN 1
              WHEN cf = 'short'
                   AND good_before = 1 AND good_after = 1 THEN 1
              ELSE 0 END AS fgood
  FROM ctx
), agg AS (
  SELECT doc_id,
         count(*) AS n_chunks,
         sum(CASE WHEN cf = 'short' THEN 1 ELSE 0 END) AS c_short,
         sum(CASE WHEN cf = 'neargood' THEN 1 ELSE 0 END) AS c_neargood,
         sum(CASE WHEN cf = 'good' THEN 1 ELSE 0 END) AS c_good,
         sum(fgood) AS c_final,
         sum(CASE WHEN fgood = 1 THEN clen ELSE 0 END) AS c_chars
  FROM fin GROUP BY doc_id
)
SELECT b.doc_id,
       -- chrome: bads = ads (+2 extra for tpl 2) + sidebar link block;
       -- shorts = title + sidebar h3 + 8 stats cells + 2*(2+tpl)
       -- comment blocks + h1 = 15 + 2*tpl
       (CASE b.tpl WHEN 0 THEN 2 WHEN 1 THEN 3 WHEN 2 THEN 4 ELSE 3 END
        + 15 + 2 * b.tpl + coalesce(a.n_chunks, 0))::BIGINT AS n_blocks,
       (CASE b.tpl WHEN 0 THEN 2 WHEN 1 THEN 3 WHEN 2 THEN 4 ELSE 3
        END)::BIGINT AS n_bad,
       (15 + 2 * b.tpl + coalesce(a.c_short, 0))::BIGINT AS n_short,
       coalesce(a.c_neargood, 0)::BIGINT AS n_neargood,
       coalesce(a.c_good, 0)::BIGINT AS n_good,
       coalesce(a.c_final, 0)::BIGINT AS n_good_final,
       coalesce(a.c_chars, 0)::BIGINT AS good_chars
FROM base b LEFT JOIN agg a USING (doc_id)
ORDER BY b.doc_id
"""


def q_extract_ensemble(sf_dir: str) -> pd.DataFrame:
    """Three-extractor ensemble audit (extract.ensemble_table): DOM
    scorer vs jusText vs CETR over the same wrapped pages, pairwise
    word-set agreement in permille — the disagreement signal that
    flags ambiguous content boundaries at scale. Rows-only; agreement
    floors pinned in tests/test_cetr.py."""
    from .extract import ensemble_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ensemble_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_cetr_extract(sf_dir: str) -> pd.DataFrame:
    """CETR tag-ratio main-content extraction (Weninger et al., WWW
    2010; functions/cetr.py) over the deterministic wrapped pages:
    per-doc line counts, content-cluster size, and integer-permille
    recall/precision of the kept text against the known source. Rows
    only (the 2-means cluster isn't SQL-re-derivable); the quality
    gates live in tests/test_cetr.py — recall is 1000‰ on every page
    by construction of the synthetic chrome."""
    from .extract import cetr_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = cetr_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pdf_extract(sf_dir: str) -> pd.DataFrame:
    """PDF layout-parse round-trip (north-rule PDF leg): each document
    is rendered into a real (Flate-compressed, multi-page, odd doc_ids
    two-column) PDF by sources/pdfgen.py, then the from-scratch parser
    (functions/pdfx.py) must recover the text in reading order. Oracle
    reconstructs the expectation from the source column, so the hash
    compare proves object scan + inflate + text-operator execution +
    column ordering are all exact."""
    from .extract import pdf_extract_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = pdf_extract_docs(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_PDF_EXTRACT = r"""
SELECT doc_id,
       trim(regexp_replace(text, '\s+', ' ', 'g')) AS pdf_text
FROM documents ORDER BY doc_id
"""


def q_web_interleaved(sf_dir: str) -> pd.DataFrame:
    """North-rule end-to-end surface: documents re-shaped into the input
    hint's (doc_id:string, spans:list<struct<kind,text,media_ref,
    offset>>) with the body as a kind='html' span, pushed through
    extract_interleaved, exploded back to rows. Rows-only at the driver;
    span-sequence equality is pinned by tests/test_extract.py."""
    from .extract import extract_interleaved
    from ..sources.webgen import wrap_html

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_docs(b: pd.DataFrame) -> pa.Table:
        ids, spans = [], []
        for i, t in zip(b["doc_id"], b["text"]):
            ids.append(f"doc-{int(i)}")
            spans.append([
                {"kind": "text", "text": f"header {int(i)}",
                 "media_ref": None, "offset": 0},
                {"kind": "html", "text": wrap_html(int(i), t or ""),
                 "media_ref": None, "offset": 1},
                {"kind": "media", "text": None,
                 "media_ref": f"pg://{int(i)}", "offset": 2},
            ])
        from .extract import _span_list_type

        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "spans": pa.array(spans, _span_list_type())})

    docs = ds.map_batches(to_docs, batch_format="pandas", batch_size=256)
    out = extract_interleaved(docs)

    def explode(t: pa.Table) -> pd.DataFrame:
        rows = []
        for did, ss in zip(t.column("doc_id").to_pylist(),
                           t.column("spans").to_pylist()):
            for s in ss:
                rows.append((did, s["offset"], s["kind"], s["text"],
                             s["media_ref"]))
        return pd.DataFrame(rows, columns=["doc_id", "offset", "kind",
                                           "text", "media_ref"])

    res = out.map_batches(explode, batch_format="pyarrow").to_pandas()
    return res.sort_values(["doc_id", "offset"]).reset_index(drop=True)


# ------------------------------------------------------- curation ops


def q_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Greedy sequence packing plan (fixed 256-token training windows
    over the doc_id-ordered corpus) — global token prefix sum via the
    distributed ordered_scan primitive, oracle = SQL window function."""
    from .curate import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(ds)


SQL_PACK_SEQUENCES = r"""
WITH c AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), n AS (
  SELECT doc_id,
         CASE WHEN t = '' THEN 0
              ELSE length(t) - length(replace(t, ' ', '')) + 1 END AS nt
  FROM c
), s AS (
  SELECT doc_id, nt,
         coalesce(sum(nt) OVER (ORDER BY doc_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS st
  FROM n
)
SELECT doc_id, nt::BIGINT AS n_tokens, st::BIGINT AS start_tok,
       (st // 256)::BIGINT AS window_id
FROM s ORDER BY doc_id
"""


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: docs containing any eval-set 8-word
    snippet (eval set = every 97th doc's words [3,11), broadcast small
    side, vectorized substring scan — never a shuffle join)."""
    from .curate import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return decontaminate(ds)


SQL_DECONTAMINATE = r"""
WITH c AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), ev AS (
  SELECT array_to_string(list_slice(string_split(t, ' '), 4, 11), ' ')
           AS snippet
  FROM c
  WHERE doc_id % 97 = 0 AND len(string_split(t, ' ')) >= 11
)
SELECT d.doc_id, count(*)::BIGINT AS n_hits
FROM c d JOIN ev ON contains(d.t, ev.snippet)
GROUP BY d.doc_id ORDER BY d.doc_id
"""


def q_decontaminate_fuzzy(sf_dir: str) -> pd.DataFrame:
    """Fuzzy decontamination (PaLM appendix shape): per-doc count of
    5-word windows shared with the eval set (every 29th doc), hash-only
    probe of one broadcast sorted array. Integer permille keeps the
    DuckDB twin value-exact."""
    from .curate import decontaminate_overlap

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return decontaminate_overlap(ds, every=29, window=5)


SQL_DECONTAMINATE_FUZZY = r"""
WITH words AS (
  -- list_filter drops the [''] duckdb yields for empty text, matching
  -- Python str.split() (zero tokens; empty docs drop on both sides)
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, array_to_string(w[i:i+4], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-4)) AS i) t
), ev AS (
  SELECT DISTINCT gram FROM grams WHERE doc_id % 29 = 0
), corpus AS (
  SELECT doc_id, gram FROM grams WHERE doc_id % 29 <> 0
)
SELECT c.doc_id,
       count(*)::BIGINT AS n_windows,
       (count(*) FILTER (WHERE e.gram IS NOT NULL))::BIGINT AS n_hit,
       ((count(*) FILTER (WHERE e.gram IS NOT NULL)) * 1000
          // count(*))::BIGINT AS overlap_permille
FROM corpus c LEFT JOIN ev e USING (gram)
GROUP BY c.doc_id
HAVING count(*) FILTER (WHERE e.gram IS NOT NULL) > 0
ORDER BY c.doc_id
"""


def q_pii_scrub(sf_dir: str) -> pd.DataFrame:
    """PII scrub round-trip: deterministic emails/phones/IPv4s are
    planted between words (1 + doc_id%3 per doc), then the vectorized
    regex scrub must remove exactly those — oracle reconstructs the
    clean text and the planted count from the source column."""
    from .curate import pii_scrub

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pii_scrub(ds)


SQL_PII_SCRUB = r"""
SELECT doc_id,
       trim(regexp_replace(text, '\s+', ' ', 'g')) AS scrubbed,
       (1 + doc_id % 3)::BIGINT AS n_redactions
FROM documents ORDER BY doc_id
"""


def q_sample_by_source(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted corpus-mixing sample: per-source keep rate
    = 20% + 5%*len(source), membership by stable doc_id hash. Oracle
    replicates the hash arithmetic exactly."""
    from .curate import sample_by_source

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return sample_by_source(ds)


SQL_SAMPLE_BY_SOURCE = """
SELECT source, count(*) AS n_kept, sum(n_chars)::BIGINT AS kept_chars
FROM documents
WHERE (doc_id * 2654435761) % 4294967296 % 100 < 20 + 5 * length(source)
GROUP BY source ORDER BY source
"""


def q_quantile_methods(sf_dir: str) -> pd.DataFrame:
    """Quantile-implementation AGREEMENT PANEL: the exact grouped
    selector (quantile_disc rule), the KLL sketch, and the hash-sampled
    sketch answer the same global quantiles of event value; the exact
    value anchors each row and the two sketches report deviation in
    permille of the exact. A cross-implementation audit the engine can
    run on itself — divergence beyond the sketches' error class flags
    a regression in any of the three. Rows-only (two of three are
    estimates); deviation caps pinned in tests."""
    from .relational import grouped_quantiles
    from .sketches import kll_quantiles, sampled_quantiles

    qs = (0.25, 0.5, 0.9, 0.99)
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def one_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": np.zeros(len(b), dtype=np.int64),
            "value": b["value"].to_numpy(np.float64)})

    flat = ev.map_batches(one_key, batch_format="pandas")
    exact = grouped_quantiles(flat, "k", "value", qs=qs)
    exact_map = dict(zip(exact["q"], exact["value"]))
    kll = kll_quantiles(ev, "value", qs=qs)
    kll_map = dict(zip(kll["q"], kll["value"]))
    samp = sampled_quantiles(ev, "value", "event_id", qs=tuple(qs),
                             rate=0.2)
    samp_map = dict(zip(samp["q"], samp["value"]))
    rows = []
    for q in qs:
        ex = float(exact_map[q])
        kl = float(kll_map[q])
        sp = float(samp_map[q])
        rows.append((q, round(ex, 6), round(kl, 6), round(sp, 6),
                     int(abs(kl - ex) / max(abs(ex), 1e-9) * 1000),
                     int(abs(sp - ex) / max(abs(ex), 1e-9) * 1000)))
    return pd.DataFrame(rows, columns=[
        "q", "exact", "kll", "sampled", "kll_dev_permille",
        "sampled_dev_permille"])


def q_hll_overlap(sf_dir: str) -> pd.DataFrame:
    """Audience overlap between event types by HLL set algebra
    (sketches.hll_overlap_by_type): lossless register-max union +
    inclusion-exclusion intersection, exact intersection alongside
    for the error audit. Rows-only (estimates); error bounds pinned
    in tests."""
    from .sketches import hll_overlap_by_type

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_overlap_by_type(ev)


def q_kll_quantiles(sf_dir: str) -> pd.DataFrame:
    """Mergeable KLL quantile sketch (Karnin-Lang-Liberty FOCS'16,
    pipelines/sketches.KLL) over event values: one sketch per block
    (k*log(n/k) floats), stable-order driver merge, all quantiles from
    the merged summary — the sketch path beside the exact quickselect
    (exact_quantiles). Rows-only (an estimate can't hash-match);
    tests pin rank error < 1% against the exact CDF."""
    from .sketches import kll_quantiles

    ev = _read(sf_dir, "events", ["value"])
    out = kll_quantiles(ev, "value")
    return out.reset_index(drop=True)


def q_distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate per-event-type distinct users via mergeable
    HyperLogLog registers (pipelines/sketches.py) — the 100 TB path for
    distinct_users: constant 16 KB/partial traffic instead of shuffling
    every key. Rows-only at the driver (an estimate can't hash-match an
    exact oracle); tests pin <2% error against the exact count."""
    from .sketches import approx_distinct_by_key

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct_by_key(ds, "event_type", "user_id")


def q_repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Per-doc repetition quality signals (Gopher rules): top-word and
    top-bigram mass as exact integer counts."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = textstats.repetition_stats(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_REPETITION_STATS = r"""
WITH c AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS l,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), base AS (
  SELECT doc_id,
         CASE WHEN t = '' THEN 0 ELSE len(l) END AS n_words, l
  FROM c
), words AS (
  SELECT doc_id, unnest(l) AS w FROM base WHERE n_words > 0
), wtop AS (
  SELECT doc_id, max(cnt) AS top_word_n
  FROM (SELECT doc_id, w, count(*) AS cnt FROM words GROUP BY 1, 2)
  GROUP BY doc_id
), bigrams AS (
  SELECT doc_id, unnest(list_zip(l[:-2], l[2:])) AS z
  FROM base WHERE n_words > 1
), btop AS (
  SELECT doc_id, max(cnt) AS top_bigram_n
  FROM (SELECT doc_id, z[1] || ' ' || z[2] AS bg, count(*) AS cnt
        FROM bigrams GROUP BY 1, 2)
  GROUP BY doc_id
)
SELECT b.doc_id,
       coalesce(w.top_word_n, 0)::BIGINT   AS top_word_n,
       b.n_words::BIGINT                   AS n_words,
       coalesce(t.top_bigram_n, 0)::BIGINT AS top_bigram_n,
       greatest(b.n_words - 1, 0)::BIGINT  AS n_bigrams
FROM base b
LEFT JOIN wtop w USING (doc_id)
LEFT JOIN btop t USING (doc_id)
ORDER BY b.doc_id
"""


def q_curate_corpus(sf_dir: str) -> pd.DataFrame:
    """End-to-end curation flagship, fully oracle-checked: boilerplate
    wrap -> main-content extraction -> Gopher-style repetition/length
    filter (body >= 30 words, top-word mass <= 1/5) -> greedy 256-token
    sequence packing of the survivors (distributed prefix scan) ->
    per-window doc/token counts. Every stage is the production operator;
    the oracle recomputes the whole chain in SQL from the source
    column."""
    from collections import Counter

    from .extract import extract_docs
    from .windows import ordered_scan

    ds = extract_docs(_read(sf_dir, "documents", ["doc_id", "text"]))

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        ids, nt, tw = [], [], []
        for i, t in zip(b["doc_id"], b["main_text"]):
            w = (t or "").split()
            ids.append(int(i))
            nt.append(len(w))
            body = w[2:]  # drop the 'Story <i>' title tokens
            tw.append(max(Counter(body).values()) if body else 0)
        out = pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "n_tokens": pd.Series(nt, dtype="int64"),
            "top_word_n": pd.Series(tw, dtype="int64"),
        })
        body_n = out["n_tokens"] - 2
        keep = (body_n >= 30) & (out["top_word_n"] * 5 <= body_n)
        return out[keep][["doc_id", "n_tokens"]]

    filtered = ds.map_batches(stats, batch_format="pandas", batch_size=8192)
    scanned = ordered_scan(filtered, "doc_id", sum_cols=("n_tokens",))

    def plan(b: pd.DataFrame) -> pd.DataFrame:
        start = (b["run_n_tokens"] - b["n_tokens"]).astype("int64")
        return pd.DataFrame({
            "window_id": (start // 256).astype("int64"),
            "n_tokens": b["n_tokens"].astype("int64"),
        })

    g = grouped_agg(scanned.map_batches(plan, batch_format="pandas"),
                    ["window_id"], sums=["n_tokens"])
    out = pd.DataFrame({
        "window_id": g["window_id"].astype("int64"),
        "n_docs": g["n"].astype("int64"),
        "n_tokens": g["sum_n_tokens"].astype("int64"),
    })
    return out.sort_values("window_id").reset_index(drop=True)


SQL_CURATE_CORPUS = r"""
WITH c AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS l,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), base AS (
  SELECT doc_id, CASE WHEN t = '' THEN 0 ELSE len(l) END AS n_body, l
  FROM c
), wtop AS (
  SELECT doc_id, max(cnt) AS top_word_n
  FROM (SELECT doc_id, w, count(*) AS cnt
        FROM (SELECT doc_id, unnest(l) AS w FROM base WHERE n_body > 0)
        GROUP BY doc_id, w)
  GROUP BY doc_id
), kept AS (
  SELECT b.doc_id, b.n_body + 2 AS n_tokens
  FROM base b JOIN wtop w USING (doc_id)
  WHERE b.n_body >= 30 AND w.top_word_n * 5 <= b.n_body
), s AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING), 0) AS st
  FROM kept
)
SELECT (st // 256)::BIGINT AS window_id,
       count(*)            AS n_docs,
       sum(n_tokens)::BIGINT AS n_tokens
FROM s GROUP BY 1 ORDER BY 1
"""


def q_html_tables(sf_dir: str) -> pd.DataFrame:
    """Structured-data extraction: every page carries a deterministic
    3-row stats <table> in its chrome; the table extractor must recover
    all cells with exact positions. Oracle reconstructs the cells from
    the source column."""
    from .extract import extract_tables_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = extract_tables_table(ds).to_pandas()
    return (out.sort_values(["doc_id", "table_idx", "row_idx", "col_idx"])
            .reset_index(drop=True))


SQL_HTML_TABLES = r"""
WITH c AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), n AS (
  SELECT doc_id,
         CASE WHEN t = '' THEN 0
              ELSE length(t) - length(replace(t, ' ', '')) + 1 END AS nw
  FROM c
), cells AS (
  SELECT doc_id, 0 AS row_idx, 0 AS col_idx, 'k' AS cell FROM n
  UNION ALL SELECT doc_id, 0, 1, 'v' FROM n
  UNION ALL SELECT doc_id, 1, 0, 'id' FROM n
  UNION ALL SELECT doc_id, 1, 1, doc_id::VARCHAR FROM n
  UNION ALL SELECT doc_id, 2, 0, 'words' FROM n
  UNION ALL SELECT doc_id, 2, 1, nw::VARCHAR FROM n
  UNION ALL SELECT doc_id, 3, 0, 'tpl' FROM n
  UNION ALL SELECT doc_id, 3, 1, (doc_id % 4)::VARCHAR FROM n
)
SELECT doc_id, 0::BIGINT AS table_idx, row_idx::BIGINT AS row_idx,
       col_idx::BIGINT AS col_idx, cell
FROM cells ORDER BY doc_id, row_idx, col_idx
"""


def q_audio_features(sf_dir: str) -> pd.DataFrame:
    """Audio round-trip (real PCM WAV decode, functions/wav.py): each
    doc synthesizes a sine WAV — duration 1 + doc_id%3 seconds, tone
    100*(1 + doc_id%5) Hz (integer FFT bins: no spectral leakage) — and
    the feature stage must recover duration and dominant frequency
    exactly. The oracle reconstructs both from doc_id arithmetic."""
    from ..functions.wav import encode_wav
    from ..stages.multimodal import AudioFeatures

    ds = _read(sf_dir, "documents", ["doc_id"])
    rate = 8000

    def synth(b: pd.DataFrame) -> pa.Table:
        ids = b["doc_id"].to_numpy("int64")
        blobs = []
        for i in ids:
            dur = 1 + int(i) % 3
            freq = 100 * (1 + int(i) % 5)
            t = np.arange(rate * dur) / rate
            blobs.append(encode_wav(0.4 * np.sin(2 * np.pi * freq * t), rate))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(blobs, pa.binary())})

    feats = (ds.map_batches(synth, batch_format="pandas", batch_size=64)
             .map_batches(AudioFeatures(), batch_format="pyarrow",
                          batch_size=64)
             .to_pandas())
    assert (feats["audio_status"] == "ok").all()
    out = feats[["doc_id", "duration_s", "dominant_hz"]].copy()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_AUDIO_FEATURES = """
SELECT doc_id,
       (1 + doc_id % 3)::DOUBLE       AS duration_s,
       (100 * (1 + doc_id % 5))::DOUBLE AS dominant_hz
FROM documents ORDER BY doc_id
"""


def q_video_frames(sf_dir: str) -> pd.DataFrame:
    """Video round-trip (real uncompressed-AVI decode, functions/avi.py):
    each doc synthesizes a gradient AVI — 2 + doc_id%4 frames, fps
    5 + doc_id%3, 16x12 — and the frame-sampling stage must recover the
    frame count, fps, and sampled-frame count exactly (2 thumbnails, or
    fewer when the clip is shorter). Oracle = doc_id arithmetic."""
    from ..functions.avi import encode_avi
    from ..stages.multimodal import VideoFrameSample

    ds = _read(sf_dir, "documents", ["doc_id"])

    def synth(b: pd.DataFrame) -> pa.Table:
        ids = b["doc_id"].to_numpy("int64")
        blobs = []
        for i in ids:
            n = 2 + int(i) % 4
            y, x = np.mgrid[0:12, 0:16]
            frames = np.stack([(x + y + int(i) + 7 * f) % 256
                               for f in range(n)]).astype(np.uint8)
            blobs.append(encode_avi(frames, fps=5 + int(i) % 3))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(blobs, pa.binary())})

    out = (ds.map_batches(synth, batch_format="pandas", batch_size=64)
           .map_batches(VideoFrameSample(num_frames=2),
                        batch_format="pyarrow", batch_size=64)
           .to_pandas())
    assert (out["video_status"] == "ok").all()
    res = pd.DataFrame({
        "doc_id": out["doc_id"].astype("int64"),
        "n_frames_total": out["n_frames_total"].astype("int64"),
        "fps": out["fps"].astype("int64"),
        "n_sampled": [len(f) for f in out["frames"]],
    }).astype({"n_sampled": "int64"})
    return res.sort_values("doc_id").reset_index(drop=True)


SQL_VIDEO_FRAMES = """
SELECT doc_id,
       (2 + doc_id % 4)::BIGINT AS n_frames_total,
       (5 + doc_id % 3)::BIGINT AS fps,
       least(2, 2 + doc_id % 4)::BIGINT AS n_sampled
FROM documents ORDER BY doc_id
"""


_BM25_TERMS = ["spark", "window", "merge"]


def q_bm25_search(sf_dir: str) -> pd.DataFrame:
    """Keyword search: BM25-shaped ranking with integer-rational
    scoring (engine-exact; see textstats.bm25_search)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return textstats.bm25_search(ds, _BM25_TERMS, k=10)


SQL_BM25_SEARCH = r"""
WITH c AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS l
  FROM documents
), tf AS (
  SELECT doc_id,
         len(list_filter(l, x -> x = 'spark'))  AS tf0,
         len(list_filter(l, x -> x = 'window')) AS tf1,
         len(list_filter(l, x -> x = 'merge'))  AS tf2
  FROM c
), g AS (
  SELECT count(*) AS n,
         sum((tf0 > 0)::INT) AS df0,
         sum((tf1 > 0)::INT) AS df1,
         sum((tf2 > 0)::INT) AS df2
  FROM tf
), s AS (
  SELECT doc_id,
         tf0 * ((n - df0 + 1) * 1000000 // (df0 + 1)) // (tf0 + 1)
       + tf1 * ((n - df1 + 1) * 1000000 // (df1 + 1)) // (tf1 + 1)
       + tf2 * ((n - df2 + 1) * 1000000 // (df2 + 1)) // (tf2 + 1)
           AS score
  FROM tf, g
)
SELECT doc_id, score::BIGINT AS score
FROM s WHERE score > 0
ORDER BY score DESC, doc_id LIMIT 10
"""


def q_index_search(sf_dir: str) -> pd.DataFrame:
    """Inverted-index retrieval: build the hive-partitioned posting
    index on storage (textstats.build_text_index), then answer the same
    BM25 query as q_bm25_search by reading ONLY the query terms' bucket
    directories (search_text_index) — scoring is identical
    integer-rational BM25, so the corpus-scan oracle verifies the whole
    index round-trip value-for-value."""
    import shutil
    import tempfile

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    idx = tempfile.mkdtemp(prefix="textidx_", dir="/tmp")
    try:
        textstats.build_text_index(ds, idx, num_buckets=32)
        return textstats.search_text_index(idx, _BM25_TERMS, k=10)
    finally:
        shutil.rmtree(idx, ignore_errors=True)


SQL_INDEX_SEARCH = SQL_BM25_SEARCH


_TRIGRAM_NEEDLES = ["stream", "merge the", "zzzqx"]


def q_trigram_search(sf_dir: str) -> pd.DataFrame:
    """pg_trgm-style exact substring search: build the hive-partitioned
    byte-trigram index on storage (textstats.build_trigram_index), then
    answer three substring queries — a common word, a cross-word
    phrase, and an absent needle (the empty-result path) — by reading
    ONLY each needle's trigram buckets, AND-ing postings and verifying
    the true substring on the fetched candidates. The oracle is a full
    LIKE scan, so the hash compare pins index build, bucket pruning,
    AND-semantics and verification end-to-end."""
    import shutil
    import tempfile

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    idx = tempfile.mkdtemp(prefix="trgmidx_", dir="/tmp")
    try:
        textstats.build_trigram_index(ds, idx, num_buckets=32)
        # ONE probe + ONE verify serves all three needles (the
        # single-needle search_trigram_index stays as the unit API)
        out = textstats.search_trigram_index_multi(
            idx, _TRIGRAM_NEEDLES, ds)
        return (out.sort_values(["needle", "doc_id"])
                .reset_index(drop=True))
    finally:
        shutil.rmtree(idx, ignore_errors=True)


SQL_TRIGRAM_SEARCH = r"""
WITH needles AS (
  SELECT unnest(['stream', 'merge the', 'zzzqx']) AS needle
)
SELECT n.needle, d.doc_id
FROM needles n JOIN documents d
  ON strpos(coalesce(d.text, ''), n.needle) > 0
ORDER BY n.needle, d.doc_id
"""


_BM25_QUERIES = [["spark", "window"], ["merge", "window"],
                 ["spark", "merge"]]


def q_bm25_multi(sf_dir: str) -> pd.DataFrame:
    """Batched multi-query BM25: one corpus scan serves all three
    queries (textstats.bm25_multi); integer-rational scoring keeps the
    oracle engine-exact per query."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return textstats.bm25_multi(ds, _BM25_QUERIES, k=10)


def _bm25_multi_sql() -> str:
    blocks = []
    union = sorted({t for q in _BM25_QUERIES for t in q})
    tf_cols = ",\n         ".join(
        f"len(list_filter(l, x -> x = '{t}')) AS tf_{t}" for t in union)
    df_cols = ",\n         ".join(
        f"sum((tf_{t} > 0)::INT) AS df_{t}" for t in union)
    for qid, terms in enumerate(_BM25_QUERIES):
        score = "\n       + ".join(
            f"tf_{t} * ((n - df_{t} + 1) * 1000000 // (df_{t} + 1)) "
            f"// (tf_{t} + 1)" for t in terms)
        blocks.append(f"""(
  SELECT {qid}::BIGINT AS query_id, doc_id, score::BIGINT AS score
  FROM (SELECT doc_id, {score} AS score FROM tf, g) s
  WHERE score > 0 ORDER BY score DESC, doc_id LIMIT 10
)""")
    body = "\nUNION ALL\n".join(blocks)
    return f"""
WITH c AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(text, '\\s+', ' ', 'g')), ' ') AS l
  FROM documents
), tf AS (
  SELECT doc_id,
         {tf_cols}
  FROM c
), g AS (
  SELECT count(*) AS n,
         {df_cols}
  FROM tf
)
SELECT * FROM ({body})
ORDER BY query_id, score DESC, doc_id
"""


SQL_BM25_MULTI = _bm25_multi_sql()


def q_search_eval(sf_dir: str) -> pd.DataFrame:
    """Retrieval quality evaluation: NDCG@10 of the BM25 ranking
    against graded relevance rel(q, d) = total tf of q's terms in d
    (integer, so both twins grade identically). One corpus scan serves
    the ranking (bm25_multi) and a second computes relevance — per
    batch each query emits a LOCAL ideal top-10 partial plus rel rows
    for the globally ranked docs (broadcast 30-id set), so the driver
    merges k-row partials, never a corpus-scale rel table. DCG sums
    run over integer rel / log2(small int) — engine-exact to the
    DuckDB twin after round(,6)."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ranked = textstats.bm25_multi(ds, _BM25_QUERIES, k=10)
    ranked_ids = ray.put({
        qid: set(g["doc_id"].tolist())
        for qid, g in ranked.groupby("query_id")})

    def rel_part(b: pd.DataFrame) -> pd.DataFrame:
        rmap = ray.get(ranked_ids)
        texts = [(t or "").split() for t in b["text"]]
        ids = b["doc_id"].to_numpy(np.int64)
        outs = []
        for qid, terms in enumerate(_BM25_QUERIES):
            rel = np.zeros(len(b), dtype=np.int64)
            for term in terms:
                rel += np.array([t.count(term) for t in texts],
                                dtype=np.int64)
            df_ = pd.DataFrame({"query_id": np.int64(qid), "doc_id": ids,
                                "rel": rel})
            df_ = df_[df_["rel"] > 0]
            top = df_.sort_values(["rel", "doc_id"],
                                  ascending=[False, True]).head(10)
            hit = df_[df_["doc_id"].isin(rmap.get(qid, set()))]
            outs.append(pd.concat([top, hit], ignore_index=True)
                        .drop_duplicates(["doc_id"]))
        return pd.concat(outs, ignore_index=True)

    rel = ds.map_batches(rel_part, batch_format="pandas",
                         batch_size=8192).to_pandas()
    rows = []
    for qid in range(len(_BM25_QUERIES)):
        rq = rel[rel["query_id"] == qid]
        relmap = dict(zip(rq["doc_id"], rq["rel"]))
        rdocs = ranked[ranked["query_id"] == qid]["doc_id"].tolist()
        dcg = float(sum(relmap[d] / np.log2(i + 2)
                        for i, d in enumerate(rdocs)))
        ideal = (rq.drop_duplicates(["doc_id"])
                 .sort_values(["rel", "doc_id"], ascending=[False, True])
                 .head(10)["rel"].to_numpy(np.int64))
        idcg = float(sum(r / np.log2(i + 2)
                         for i, r in enumerate(ideal)))
        ndcg = dcg / idcg if idcg > 0 else 0.0
        rows.append((qid, round(dcg, 6), round(idcg, 6), round(ndcg, 6)))
    return pd.DataFrame(rows, columns=["query_id", "dcg", "idcg", "ndcg"])


def _search_eval_sql() -> str:
    union = sorted({t for q in _BM25_QUERIES for t in q})
    tf_cols = ",\n         ".join(
        f"len(list_filter(l, x -> x = '{t}')) AS tf_{t}" for t in union)
    df_cols = ",\n         ".join(
        f"sum((tf_{t} > 0)::INT) AS df_{t}" for t in union)
    ctes, blocks = [], []
    for qid, terms in enumerate(_BM25_QUERIES):
        score = "\n       + ".join(
            f"tf_{t} * ((n - df_{t} + 1) * 1000000 // (df_{t} + 1)) "
            f"// (tf_{t} + 1)" for t in terms)
        rel = " + ".join(f"tf_{t}" for t in terms)
        ctes.append(f"""rq{qid} AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS i
  FROM (SELECT doc_id, {score} AS score FROM tf, g) s
  WHERE score > 0 QUALIFY i <= 10
), iq{qid} AS (
  SELECT rel, row_number() OVER (ORDER BY rel DESC, doc_id) AS i
  FROM (SELECT doc_id, {rel} AS rel FROM tf) r
  WHERE rel > 0 QUALIFY i <= 10
)""")
        blocks.append(f"""(
  SELECT {qid}::BIGINT AS query_id,
         round(d.dcg, 6) AS dcg, round(i.idcg, 6) AS idcg,
         round(CASE WHEN i.idcg > 0 THEN d.dcg / i.idcg
                    ELSE 0.0 END, 6) AS ndcg
  FROM (SELECT coalesce(sum(({rel}) / log2(r.i + 1)), 0.0) AS dcg
        FROM rq{qid} r JOIN tf USING (doc_id)) d,
       (SELECT coalesce(sum(rel / log2(i + 1)), 0.0) AS idcg
        FROM iq{qid}) i
)""")
    return ("\nWITH c AS (\n  SELECT doc_id,\n         "
            "string_split(trim(regexp_replace(text, '\\s+', ' ', 'g')), ' ')"
            " AS l\n  FROM documents\n), tf AS (\n  SELECT doc_id,\n"
            f"         {tf_cols}\n  FROM c\n), g AS (\n  SELECT count(*)"
            f" AS n,\n         {df_cols}\n  FROM tf\n), "
            + ", ".join(ctes)
            + "\n" + "\nUNION ALL\n".join(blocks)
            + "\nORDER BY query_id\n")


SQL_SEARCH_EVAL = _search_eval_sql()


def q_chunk_documents(sf_dir: str) -> pd.DataFrame:
    """Overlapping character chunking (200-char windows, 50 overlap) —
    the embedding/RAG prep step; oracle recomputes every chunk by
    substring arithmetic."""
    from .curate import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(ds).to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


SQL_CHUNK_DOCUMENTS = r"""
WITH c AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
)
SELECT doc_id, i::BIGINT AS chunk_idx, (i * 150)::BIGINT AS start,
       substr(t, i * 150 + 1, 200) AS chunk
FROM c JOIN range(0, 4096) r(i)
  ON i = 0 OR i * 150 < length(t)
ORDER BY doc_id, chunk_idx
"""


# ------------------------------------- substring (word-gram) span dedup


def q_dup_ngrams(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide duplicated 8-word windows (substring dedup index,
    Lee et al. 2022 shape): gram + distinct-doc count + occurrence
    count."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.duplicated_ngrams(ds, window=8, min_docs=2).to_pandas()
    return pd.DataFrame({
        "gram": out.gram,
        "n_docs": out.n_docs.astype("int64"),
        "n_occ": out.n_occ.astype("int64"),
    })


SQL_DUP_NGRAMS = r"""
WITH words AS (
  -- list_filter drops the [''] duckdb yields for empty text, matching
  -- Python str.split() (zero tokens; empty docs drop on both sides)
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
)
SELECT gram, count(DISTINCT doc_id)::BIGINT AS n_docs, count(*)::BIGINT AS n_occ
FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
"""


def q_doc_dup_spans(sf_dir: str) -> pd.DataFrame:
    """Per-doc duplicated-substring mass: total 8-word windows and how
    many are corpus-duplicated (broadcast dup-hash probe, second
    streaming pass)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.doc_dup_spans(ds, window=8, min_docs=2).to_pandas()
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "n_spans": out.n_spans.astype("int64"),
        "n_dup_spans": out.n_dup_spans.astype("int64"),
    })


SQL_DOC_DUP_SPANS = r"""
WITH words AS (
  -- list_filter drops the [''] duckdb yields for empty text, matching
  -- Python str.split() (zero tokens; empty docs drop on both sides)
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
), dup AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
)
SELECT g.doc_id,
       count(*)::BIGINT AS n_spans,
       (count(*) FILTER (WHERE d.gram IS NOT NULL))::BIGINT AS n_dup_spans
FROM grams g LEFT JOIN dup d USING (gram)
GROUP BY g.doc_id
"""


def q_strip_dup_spans(sf_dir: str) -> pd.DataFrame:
    """The substring-dedup TRANSFORM: docs with every corpus-duplicated
    8-word window's words removed (aggressive variant); empty docs
    dropped."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.strip_dup_spans(ds, window=8, min_docs=2).to_pandas()
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "clean_text": out.clean_text,
    })


SQL_STRIP_DUP_SPANS = r"""
WITH words AS (
  -- list_filter drops the [''] duckdb yields for empty text, matching
  -- Python str.split() (zero tokens; empty docs drop on both sides)
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, i, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
), dup AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
), cov AS (
  SELECT DISTINCT g.doc_id, g.i + o.k AS p
  FROM grams g JOIN dup d USING (gram),
       LATERAL (SELECT unnest(generate_series(0, 7)) AS k) o
), uw AS (
  SELECT w.doc_id, t.i AS p, w.w[t.i] AS word
  FROM words w, LATERAL (SELECT unnest(generate_series(1, len(w.w))) AS i) t
)
SELECT u.doc_id, string_agg(u.word, ' ' ORDER BY u.p) AS clean_text
FROM uw u LEFT JOIN cov c ON u.doc_id = c.doc_id AND u.p = c.p
WHERE c.p IS NULL
GROUP BY u.doc_id
"""


def q_substring_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """EXACT substring-span dedup via suffix-array prefix doubling
    (Lee et al. 2022 exact path): same transform as strip_dup_spans
    but comparing actual tokens through rank equality classes — no
    hash collisions. Shares strip_dup_spans' gram-string SQL twin,
    which is exact by construction."""
    from .suffix import substring_dedup_exact

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = substring_dedup_exact(ds, window=8, min_docs=2).to_pandas()
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "clean_text": out.clean_text,
    })


SQL_SUBSTRING_DEDUP_EXACT = SQL_STRIP_DUP_SPANS


def q_substring_dedup_maximal(sf_dir: str) -> pd.DataFrame:
    """MAXIMAL duplicated-span dedup (Lee et al. 2022 ExactSubstr
    semantics): strip tokens covered by any duplicated substring of
    >= 8 tokens under OCCURRENCE counting (>= 2 corpus positions,
    within-doc repeats included — the min_docs windowed family cannot
    see those). The removed token set provably equals the union of
    duplicated 8-windows under occurrence counting, which is what the
    SQL twin computes — exact by construction."""
    from .suffix import substring_dedup_maximal

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # reindex: a fully-empty result loses its schema in to_pandas()
    out = (substring_dedup_maximal(ds, min_len=8).to_pandas()
           .reindex(columns=["doc_id", "clean_text"]))
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "clean_text": out.clean_text,
    })


SQL_SUBSTRING_DEDUP_MAXIMAL = r"""
WITH words AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, i, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
), dup AS (
  -- occurrence counting (>= 2 positions anywhere), NOT distinct docs
  SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2
), cov AS (
  SELECT DISTINCT g.doc_id, g.i + o.k AS p
  FROM grams g JOIN dup d USING (gram),
       LATERAL (SELECT unnest(generate_series(0, 7)) AS k) o
), uw AS (
  SELECT w.doc_id, t.i AS p, w.w[t.i] AS word
  FROM words w, LATERAL (SELECT unnest(generate_series(1, len(w.w))) AS i) t
)
SELECT u.doc_id, string_agg(u.word, ' ' ORDER BY u.p) AS clean_text
FROM uw u LEFT JOIN cov c ON u.doc_id = c.doc_id AND u.p = c.p
WHERE c.p IS NULL
GROUP BY u.doc_id
"""


def q_dup_spans_maximal(sf_dir: str) -> pd.DataFrame:
    """Maximal duplicated spans per doc as (start, length) token
    intervals — the variable-length span REPORT no fixed-W window path
    can produce (a 20-token duplicate is one 20-token span here, not a
    smear of 8-token windows). SQL twin: gaps-and-islands over the
    8-window coverage set, equal to the maximal-span union by the
    window-coverage equivalence (see q_substring_dedup_maximal)."""
    from .suffix import dup_spans_maximal

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # reindex: a fully-empty result loses its schema in to_pandas()
    out = (dup_spans_maximal(ds, min_len=8).to_pandas()
           .reindex(columns=["doc_id", "start", "length"]))
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "start": out.start.astype("int64"),
        "length": out.length.astype("int64"),
    })


SQL_DUP_SPANS_MAXIMAL = r"""
WITH words AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, i, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
), dup AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2
), cov AS (
  SELECT DISTINCT g.doc_id, g.i + o.k AS p
  FROM grams g JOIN dup d USING (gram),
       LATERAL (SELECT unnest(generate_series(0, 7)) AS k) o
), isl AS (
  SELECT doc_id, p,
         p - row_number() OVER (PARTITION BY doc_id ORDER BY p) AS grp
  FROM cov
)
SELECT doc_id, (min(p) - 1)::BIGINT AS start, count(*)::BIGINT AS length
FROM isl GROUP BY doc_id, grp
"""


def q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact corpus top-20 words via the two-pass local-top-m +
    recount pattern (no full-vocabulary shuffle)."""
    from . import textstats

    ds = _read(sf_dir, "documents", ["text"])
    out = textstats.heavy_hitters(ds, k=20, counters=512)
    return pd.DataFrame({"word": out.word, "n": out.n.astype("int64")})


SQL_HEAVY_HITTERS = r"""
WITH w AS (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS word
  FROM documents
)
SELECT word, count(*)::BIGINT AS n FROM w
GROUP BY word ORDER BY n DESC, word LIMIT 20
"""


def q_centroid_outliers(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding outliers: 5 lowest cosine-to-own-centroid
    vectors per label (two streaming passes, broadcast centroids)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = similarity.centroid_outliers(ds, k=5)
    out["label"] = out["label"].astype("int64")
    return out[["label", "vec_id", "cos_sim"]]


SQL_CENTROID_OUTLIERS = """
WITH pos AS (
  SELECT label, vec_id, embedding, t.i AS i, embedding[t.i]::DOUBLE AS e
  FROM embeddings,
       LATERAL (SELECT unnest(generate_series(1, len(embedding))) AS i) t
), cent AS (
  SELECT label, list(c ORDER BY i) AS cvec FROM (
    SELECT label, i, avg(e) AS c FROM pos GROUP BY label, i
  ) GROUP BY label
)
SELECT e.label::BIGINT AS label, e.vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], c.cvec), 6)
         AS cos_sim
FROM embeddings e JOIN cent c ON e.label = c.label
QUALIFY row_number() OVER (
  PARTITION BY e.label
  ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.cvec), e.vec_id
) <= 5
"""


def q_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Streaming dedup against a shared mutable index (sharded Ray
    actors, state/dedup_index.py): ingest the corpus in two waves and
    report each wave's distinct-NEW text count — wave 2 only counts
    texts the wave-1 index has never seen."""
    from ..state.dedup_index import DedupIndex

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cut = ds.count() // 2
    idx = DedupIndex(num_shards=4)
    try:
        n1 = idx.count_new(ds.filter(expr=f"doc_id < {cut}"))
        n2 = idx.count_new(ds.filter(expr=f"doc_id >= {cut}"))
    finally:
        idx.shutdown()
    return pd.DataFrame({"wave": np.array([1, 2], dtype="int64"),
                         "n_new": np.array([n1, n2], dtype="int64")})


SQL_INCREMENTAL_DEDUP = """
WITH c AS (SELECT count(*) // 2 AS cut FROM documents),
w1 AS (SELECT DISTINCT text FROM documents WHERE doc_id < (SELECT cut FROM c)),
w2 AS (SELECT DISTINCT text FROM documents WHERE doc_id >= (SELECT cut FROM c))
SELECT 1::BIGINT AS wave, (SELECT count(*) FROM w1)::BIGINT AS n_new
UNION ALL
SELECT 2::BIGINT, (SELECT count(*) FROM w2
                   WHERE text NOT IN (SELECT text FROM w1))::BIGINT
"""


def q_dedup_events_window(sf_dir: str) -> pd.DataFrame:
    """Time-windowed event dedup: suppress an event if the same
    (user_id, event_type) fired within the previous hour (debounce
    against the previous event, kept or not — matches SQL lag())."""
    from .windows import window_dedup_events

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    out = window_dedup_events(ds).to_pandas()
    return pd.DataFrame({
        "event_id": out.event_id.astype("int64"),
        "user_id": out.user_id.astype("int64"),
        "event_type": out.event_type,
        "ts": out.ts,
    })


SQL_DEDUP_EVENTS_WINDOW = """
WITH x AS (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS pts
  FROM events
)
SELECT event_id, user_id, event_type, ts FROM x
WHERE pts IS NULL OR ts - pts > INTERVAL 1 HOUR
"""


def q_semantic_dedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-shaped semantic dedup: k-means cluster -> within-cluster
    cosine pairs -> components -> min-id representative. Rows-only
    oracle (k-means is not SQL-expressible)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = similarity.semantic_dedup(ds, k=8, iters=2, threshold=0.35
                                    ).to_pandas()
    return (out.sort_values("vec_id").reset_index(drop=True))


def q_url_features(sf_dir: str) -> pd.DataFrame:
    """URL parse/normalize/blocklist kernels (C4-style URL filtering)
    over deterministic per-doc URLs (sources/urlgen.py — six templates
    covering uppercase scheme/host, default + non-default ports, dot
    segments, utm params, fragments, multi-label subdomains and the
    co.uk suffix). The oracle reconstructs every expected feature
    directly from (doc_id, source), so the hash compare proves the
    from-scratch parser (functions/urlx.py) handles all six hazard
    classes exactly."""
    from .curate import url_table

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    out = url_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_URL_FEATURES = """
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t,
         doc_id::VARCHAR AS i,
         (doc_id % 4)::INT AS reps,
         CAST(substr(source, 4) AS INT) % 2 = 1 AS odd_src
  FROM documents
)
SELECT doc_id,
  CASE t
    WHEN 0 THEN 'https://www.' || source || '.com/articles/' || i
    WHEN 1 THEN 'HTTP://' || source || '.CO.UK:80/a/./b/../news/' || i
                || '?utm_source=feed&id=' || i
    WHEN 2 THEN 'https://blog.' || source || '.org:443/post/' || i || '/#sec'
    WHEN 3 THEN 'http://ads.' || source || '.net/track/' || i
                || '?utm_campaign=x'
    WHEN 4 THEN 'https://' || source || '.com:8443/'
                || repeat('x/', reps) || 'page'
    ELSE 'https://A.B.' || source || '.COM/a%20b/?id=1&utm_medium=m&ref=2'
  END AS url,
  CASE WHEN t IN (1, 3) THEN 'http' ELSE 'https' END AS scheme,
  CASE t
    WHEN 0 THEN 'www.' || source || '.com'
    WHEN 1 THEN source || '.co.uk'
    WHEN 2 THEN 'blog.' || source || '.org'
    WHEN 3 THEN 'ads.' || source || '.net'
    WHEN 4 THEN source || '.com'
    ELSE 'a.b.' || source || '.com'
  END AS host,
  CASE t
    WHEN 1 THEN source || '.co.uk'
    WHEN 2 THEN source || '.org'
    WHEN 3 THEN source || '.net'
    ELSE source || '.com'
  END AS domain,
  CASE t
    WHEN 0 THEN 'https://www.' || source || '.com/articles/' || i
    WHEN 1 THEN 'http://' || source || '.co.uk/a/news/' || i || '?id=' || i
    WHEN 2 THEN 'https://blog.' || source || '.org/post/' || i || '/'
    WHEN 3 THEN 'http://ads.' || source || '.net/track/' || i
    WHEN 4 THEN 'https://' || source || '.com:8443/'
                || repeat('x/', reps) || 'page'
    ELSE 'https://a.b.' || source || '.com/a%20b/?id=1&ref=2'
  END AS norm_url,
  (CASE t WHEN 0 THEN 2 WHEN 1 THEN 3 WHEN 2 THEN 2 WHEN 3 THEN 2
          WHEN 4 THEN reps + 1 ELSE 1 END)::BIGINT AS path_depth,
  (CASE t WHEN 1 THEN 1 WHEN 5 THEN 2 ELSE 0 END)::BIGINT AS n_params,
  (t = 3 AND odd_src) AS blocked
FROM f ORDER BY doc_id
"""


def q_warc_curate(sf_dir: str) -> pd.DataFrame:
    """Composed crawl-to-corpus flagship over the WARC input shape —
    every link an operator this engine ships separately:

      1. read the member-per-record .warc.gz shards file-parallel and
         density-extract each page's main text (warc_extract's chain);
      2. bucket_join the crawl metadata sidecar (documents' source
         column) on doc_id — large x large, one coarse shuffle;
      3. robots gate: RFC 9309 longest-match decision on each doc's URL
         path for our agent (robots_filter's chain);
      4. content-prefix dedup among allowed docs: keeper = min doc_id
         per first-3-body-words key, ONE prefix-keyed exchange;
      5. quality gate: keepers with >= 10 body words survive;
      6. per-source rollup: docs / allowed / kept / surviving words.

    The oracle replays the WHOLE chain in SQL (identity extraction,
    robots rule table, QUALIFY-style keeper, word gate, rollup)."""
    from ..functions.htmlx import extract_main_text
    from ..sources.warcgen import build_warc_corpus, read_warc, uri_doc_id
    from . import curate

    # 32 shards: read_warc's parallelism unit is one task per shard (the
    # Common Crawl layout); the default 8-shard fixture leaves 3/4 of a
    # 32-CPU host idle through the extract stage. The curate chain and
    # its SQL twin are shard-count-agnostic (routing only places
    # records); warc_stats keeps the 8-shard corpus its twin hardcodes.
    man = build_warc_corpus(sf_dir, num_shards=32)
    recs = read_warc(man["shards"])

    def extract(b: pa.Table) -> pa.Table:
        ids, bodies, nbody = [], [], []
        for u, p in zip(b.column("uri").to_pylist(),
                        b.column("payload").to_pylist()):
            ids.append(uri_doc_id(u))
            words = extract_main_text(p.decode()).split()
            body = words[2:]  # strip the 'Story <id>' title tokens
            bodies.append(" ".join(body[:3]))  # dedup prefix key
            nbody.append(len(body))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "prefix": pa.array(bodies, pa.string()),
                         "n_body": pa.array(nbody, pa.int64())})

    # materialize the extracted METADATA (doc_id, 3-word prefix, count —
    # never payloads) to cut operator fusion: bucket_join's 65536-row
    # tag stage would otherwise fuse into this chain and re-bundle the
    # 32 bytes-tiny path rows into ONE task (measured: 1 task / 5.5 s
    # vs 32 tasks — each input row expands to a whole decompressed
    # shard, which the size-based bundler cannot see)
    docs = recs.map_batches(extract, batch_format="pyarrow").materialize()
    meta = _read(sf_dir, "documents", ["doc_id", "source"])
    lschema = pa.schema([("doc_id", pa.int64()), ("prefix", pa.string()),
                         ("n_body", pa.int64())])
    rschema = pa.schema([("doc_id", pa.int64()), ("source", pa.string())])
    joined = bucket_join(docs, meta, "doc_id", "doc_id",
                         left_schema=lschema, right_schema=rschema)

    matchers: dict = {}

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        # the ONE politeness rule (curate.robots_gate) — shared with
        # robots_filter so the flagship can never diverge from it
        _, allowed = curate.robots_gate(b["doc_id"], b["source"],
                                        "graftbot", matchers)
        b = b.copy()
        b["allowed"] = pd.Series(allowed, dtype=bool).to_numpy()
        return b

    gated = joined.map_batches(gate, batch_format="pandas")

    def keeper_flags(g: pd.DataFrame) -> pd.DataFrame:
        mins = g[g["allowed"]].groupby("prefix")["doc_id"].transform("min")
        g["kept"] = False
        g.loc[g["allowed"], "kept"] = (
            (g.loc[g["allowed"], "doc_id"] == mins)
            & (g.loc[g["allowed"], "n_body"] >= 10))
        return g

    flagged = partition_map(gated, "prefix", keeper_flags)

    def to_metrics(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "allowed": b["allowed"].astype("int64"),
            "kept": b["kept"].astype("int64"),
            "kept_words": (b["n_body"] * b["kept"]).astype("int64"),
        })

    agg = grouped_agg(flagged.map_batches(to_metrics, batch_format="pandas"),
                      ["source"], sums=["allowed", "kept", "kept_words"])
    out = pd.DataFrame({
        "source": agg["source"],
        "n_docs": agg["n"].astype("int64"),
        "n_allowed": agg["sum_allowed"].astype("int64"),
        "n_kept": agg["sum_kept"].astype("int64"),
        "kept_words": agg["sum_kept_words"].astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


SQL_WARC_CURATE = r"""
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t,
         CAST(substr(source, 4) AS INT) % 2 = 1 AS odd_src,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS body
  FROM documents
), g AS (
  SELECT doc_id, source, body,
         CASE WHEN body = '' THEN 0
              ELSE length(body) - length(replace(body, ' ', '')) + 1
         END AS n_body,
         CASE WHEN body = '' THEN ''
              ELSE array_to_string(string_split(body, ' ')[1:3], ' ')
         END AS prefix,
         CASE t WHEN 0 THEN (NOT odd_src) OR doc_id::VARCHAR LIKE '202%'
                WHEN 2 THEN FALSE
                WHEN 3 THEN FALSE
                ELSE TRUE END AS allowed
  FROM f
), k AS (
  SELECT *,
         allowed
         AND doc_id = min(doc_id) FILTER (WHERE allowed)
                       OVER (PARTITION BY prefix)
         AND n_body >= 10 AS kept
  FROM g
)
SELECT source, count(*) AS n_docs,
       sum(CASE WHEN allowed THEN 1 ELSE 0 END)::BIGINT AS n_allowed,
       sum(CASE WHEN kept THEN 1 ELSE 0 END)::BIGINT AS n_kept,
       sum(CASE WHEN kept THEN n_body ELSE 0 END)::BIGINT AS kept_words
FROM k GROUP BY source ORDER BY source
"""


def q_outlink_stats(sf_dir: str) -> pd.DataFrame:
    """Crawl-frontier link extraction: parse EVERY hyperlink of each
    page (chrome included — nav, ads, sidebar), classify by href prefix
    and count per doc.  The oracle recomputes all four counts from the
    page-template rule (tpl = doc_id%4: 6+tpl nav links, 1+tpl%2 ad
    slots +2 extra on tpl 2, 12 sidebar tags), so the hash compare pins
    the DOM walk finding every anchor exactly once."""
    from ..functions.htmlx import extract_links
    from .extract import wrap_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_id": [], "n_links": [], "n_nav": [], "n_ads": [],
                "n_tags": []}
        for i, h in zip(b["doc_id"], b["html"]):
            links = extract_links(h)
            ads = sum(1 for l in links if l["href"].startswith("/promo"))
            tags = sum(1 for l in links if l["href"].startswith("/tag/"))
            rows["doc_id"].append(int(i))
            rows["n_links"].append(len(links))
            rows["n_ads"].append(ads)
            rows["n_tags"].append(tags)
            rows["n_nav"].append(len(links) - ads - tags)
        return pd.DataFrame({k: pd.Series(v, dtype="int64")
                             for k, v in rows.items()})

    out = (wrap_docs(ds).map_batches(stage, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_OUTLINK_STATS = r"""
WITH t AS (SELECT doc_id, doc_id % 4 AS tpl FROM documents)
SELECT doc_id,
       (6 + tpl) + (1 + tpl % 2 + CASE WHEN tpl = 2 THEN 2 ELSE 0 END)
         + 12 AS n_links,
       (6 + tpl)::BIGINT AS n_nav,
       (1 + tpl % 2 + CASE WHEN tpl = 2 THEN 2 ELSE 0 END)::BIGINT AS n_ads,
       12::BIGINT AS n_tags
FROM t ORDER BY doc_id
"""


def q_incremental_neardup(sf_dir: str) -> pd.DataFrame:
    """Streaming NEAR-dup ingest (state/neardup_index.py — MinHash-LSH
    bands behind sharded actors): wave 1 admits the even docs; wave 2
    replays every doc plus planted one-token-tail variants of the
    admitted ones — the variants and the replayed evens must be
    rejected by band collision while the odd docs admit.  Uses the
    ORDER-FREE wave mode (filter_new_wave: probe-only, in-wave
    min-id-per-band resolution, then register) so n_admitted depends
    only on wave content — the per-batch streaming mode can race a
    near-dup pair spanning two concurrent batches.  Rows-only
    (stateful streaming); the planted-pair and snapshot gates live in
    tests/test_neardup_index.py."""
    from ..state.neardup_index import NearDupIndex

    idx = NearDupIndex(num_bands=16, num_perm=64)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    wave1 = docs.filter(lambda r: r["doc_id"] % 2 == 0)
    n1_in = wave1.count()
    n1 = idx.count_new_wave(wave1)

    def variants(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = b.filter(pa.array(ids % 10 == 0))
        return pa.table({
            "doc_id": pc.add(sel["doc_id"], 5_000_000),
            "text": pc.binary_join_element_wise(
                pc.coalesce(sel["text"], ""), " tail", ""),
        })

    wave2 = docs.union(docs.map_batches(variants, batch_format="pyarrow"))
    n2_in = wave2.count()
    n2 = idx.count_new_wave(wave2)
    return pd.DataFrame({
        "wave": pd.Series([1, 2], dtype="int64"),
        "n_in": pd.Series([n1_in, n2_in], dtype="int64"),
        "n_admitted": pd.Series([n1, n2], dtype="int64"),
    })


def q_merge_upsert(sf_dir: str) -> pd.DataFrame:
    """Lakehouse merge/compaction: apply a change log (upserts with
    version sequence + deletes + inserts, synthesized deterministically
    from the doc_id) onto the base table, keeping the LATEST version per
    key and dropping deleted keys.  Base and log union into ONE
    key-hash bucket shuffle; each partition resolves latest-wins with a
    vectorized sort + group-head.  Oracle replays the log rule with a
    QUALIFY-style window."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def base_rows(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "seq": np.int64(0),
                             "op": "upsert",
                             "text": t})

    def log_rows(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        t = b["text"].fillna("")
        m = i % 9
        frames = [
            pd.DataFrame({"doc_id": i[m == 0], "seq": np.int64(1),
                          "op": "delete", "text": ""}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(1),
                          "op": "upsert", "text": t[m == 1] + " v1"}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(2),
                          "op": "upsert", "text": t[m == 1] + " v2"}),
            pd.DataFrame({"doc_id": i[m == 2], "seq": np.int64(1),
                          "op": "upsert",
                          "text": "rewrite " + i[m == 2].astype(str)}),
            pd.DataFrame({"doc_id": i[m == 3] + 2_000_000,
                          "seq": np.int64(1), "op": "upsert",
                          "text": "inserted " + i[m == 3].astype(str)}),
        ]
        return pd.concat(frames, ignore_index=True)

    union = (docs.map_batches(base_rows, batch_format="pandas")
             .union(docs.map_batches(log_rows, batch_format="pandas")))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        latest = (g.sort_values(["doc_id", "seq"], ascending=[True, False])
                  .groupby("doc_id", as_index=False).head(1))
        keep = latest[latest["op"] != "delete"]
        return pd.DataFrame({"doc_id": keep["doc_id"].astype("int64"),
                             "text": keep["text"]})

    out = partition_map(union, "doc_id", resolve).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_MERGE_UPSERT = r"""
WITH base AS (
  SELECT doc_id, 0 AS seq, 'upsert' AS op, coalesce(text, '') AS text
  FROM documents
), log AS (
  SELECT doc_id, 1 AS seq, 'delete' AS op, '' AS text
  FROM documents WHERE doc_id % 9 = 0
  UNION ALL
  SELECT doc_id, 1, 'upsert', coalesce(text, '') || ' v1'
  FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 2, 'upsert', coalesce(text, '') || ' v2'
  FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 1, 'upsert', 'rewrite ' || doc_id::VARCHAR
  FROM documents WHERE doc_id % 9 = 2
  UNION ALL
  SELECT doc_id + 2000000, 1, 'upsert', 'inserted ' || doc_id::VARCHAR
  FROM documents WHERE doc_id % 9 = 3
), u AS (
  SELECT * FROM base UNION ALL SELECT * FROM log
), latest AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY seq DESC) AS rn
  FROM u
)
SELECT doc_id, text FROM latest WHERE rn = 1 AND op <> 'delete'
ORDER BY doc_id
"""


def q_sitemap_extract(sf_dir: str) -> pd.DataFrame:
    """Sitemap XML round-trip (functions/sitemapx.py): assign each doc
    to a site (doc_id % 50), render every site's <urlset> in one
    site-keyed group (the synthetic stand-in for a crawl fetch), parse
    the XML back to (url, lastmod, priority) rows in a stateless map.
    The oracle re-derives every field arithmetically from doc_id —
    the hash compare therefore pins namespace handling, entity
    decoding (&amp; in the loc query string), date rendering, and
    entry ordering through the full XML round-trip."""
    from ..functions import sitemapx

    ds = _read(sf_dir, "documents", ["doc_id"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].astype("int64")
        return pd.DataFrame({"site_id": d % 50, "doc_id": d})

    def render(g: pd.DataFrame) -> pd.DataFrame:
        sid = int(g["site_id"].iloc[0])
        return pd.DataFrame({
            "site_id": pd.Series([sid], dtype="int64"),
            "xml": [sitemapx.render_sitemap(sid, g["doc_id"].tolist())]})

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        sids, urls, mods, pris = [], [], [], []
        for sid, xml in zip(b["site_id"], b["xml"]):
            for rec in sitemapx.parse_sitemap(xml):
                sids.append(int(sid))
                urls.append(rec["url"])
                mods.append(rec["lastmod"])
                pris.append(rec["priority"])
        return pd.DataFrame({
            "site_id": pd.Series(sids, dtype="int64"),
            "url": pd.Series(urls, dtype=object),
            "lastmod": pd.Series(mods, dtype=object),
            "priority": pd.Series(pris, dtype=object)})

    out = (ds.map_batches(assign, batch_format="pandas")
           .groupby("site_id").map_groups(render, batch_format="pandas")
           .map_batches(parse, batch_format="pandas")
           .to_pandas())
    return out.sort_values(["site_id", "url"]).reset_index(drop=True)


SQL_SITEMAP_EXTRACT = r"""
SELECT doc_id % 50 AS site_id,
       'https://site' || (doc_id % 50) || '.example/page/' || doc_id
         || '?ref=a&b=1' AS url,
       strftime(DATE '2025-01-01' + ((doc_id % 365)::INT), '%Y-%m-%d')
         AS lastmod,
       '0.' || ((doc_id * 37) % 10) AS priority
FROM documents
ORDER BY site_id, url
"""


def q_meta_extract(sf_dir: str) -> pd.DataFrame:
    """Head-metadata harvesting (OpenGraph meta + JSON-LD entity) from
    the wrapped pages: og:title, description, schema.org @type /
    headline / wordCount per doc.  The oracle rebuilds every field from
    the source text (title from doc_id, description = first 8
    whitespace-normalized words, wordCount = word count), so the hash
    compare pins attribute parsing, entity decoding, and the
    first-occurrence-wins meta rule."""
    from ..functions.metax import extract_metadata
    from .extract import wrap_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        recs = [extract_metadata(h) for h in b["html"]]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "og_title": pd.Series([r["og_title"] for r in recs], dtype=object),
            "description": pd.Series([r["description"] for r in recs],
                                     dtype=object),
            "ld_type": pd.Series([r["ld_type"] for r in recs], dtype=object),
            "ld_headline": pd.Series([r["ld_headline"] for r in recs],
                                     dtype=object),
            "word_count": pd.Series([r["word_count"] for r in recs],
                                    dtype="int64"),
        })

    out = (wrap_docs(ds).map_batches(stage, batch_format="pandas")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_META_EXTRACT = r"""
WITH w AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
  FROM documents
), c AS (
  SELECT doc_id, t, string_split(t, ' ') AS words,
         CASE WHEN t = '' THEN 0
              ELSE length(t) - length(replace(t, ' ', '')) + 1 END AS n
  FROM w
)
SELECT doc_id,
       'Story ' || doc_id::VARCHAR AS og_title,
       CASE WHEN n = 0 THEN '' ELSE array_to_string(words[1:8], ' ') END
         AS description,
       'Article' AS ld_type,
       'Story ' || doc_id::VARCHAR AS ld_headline,
       n::BIGINT AS word_count
FROM c ORDER BY doc_id
"""


def q_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Recrawl delta between two corpus snapshots — the incremental-
    ingestion primitive: snapshot A is the documents table, snapshot B
    a deterministic mutation of it (doc_id%7==0 removed, %7==1 text
    updated, %7==2 additionally re-appears as a NEW page under
    id+1,000,000).  Each side reduces to (doc_id, content-hash) inside
    ``map_batches`` — full bodies never enter the shuffle — then ONE
    full-outer bucket_join classifies every id as
    added/removed/changed/unchanged.  The oracle replays the mutation
    rule and a FULL OUTER JOIN over the raw texts in SQL, so a 64-bit
    hash collision or a join-mode bug would hash-mismatch."""
    from ..functions.hashing import hash_strings

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side_a(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "h_a": pd.Series([f"{h:016x}" for h in
                              hash_strings(b["text"].fillna(""))], dtype=str
                             ).to_numpy(),
        })

    def side_b(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 7 != 0]
        text = keep["text"].fillna("").where(
            keep["doc_id"] % 7 != 1, keep["text"].fillna("") + " updated")
        new = b[b["doc_id"] % 7 == 2]
        ids = pd.concat([keep["doc_id"], new["doc_id"] + 1_000_000])
        texts = pd.concat(
            [text, "new page " + new["doc_id"].astype(str)])
        return pd.DataFrame({
            "doc_id": ids.astype("int64").to_numpy(),
            "h_b": pd.Series([f"{h:016x}" for h in hash_strings(texts)],
                             dtype=str).to_numpy(),
        })

    a = docs.map_batches(side_a, batch_format="pandas")
    b = docs.map_batches(side_b, batch_format="pandas")
    lschema = pa.schema([("doc_id", pa.int64()), ("h_a", pa.string())])
    rschema = pa.schema([("doc_id", pa.int64()), ("h_b", pa.string())])
    j = bucket_join(a, b, "doc_id", "doc_id", how="outer",
                    left_schema=lschema, right_schema=rschema).to_pandas()
    key = j["doc_id"].fillna(j["doc_id_r"])
    status = np.where(
        j["h_b"].isna(), "removed",
        np.where(j["h_a"].isna(), "added",
                 np.where(j["h_a"] != j["h_b"], "changed", "unchanged")))
    out = pd.DataFrame({"doc_id": key.astype("int64"),
                        "status": pd.Series(status, dtype=str)})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SNAPSHOT_DIFF = r"""
WITH a AS (
  SELECT doc_id, coalesce(text, '') AS text FROM documents
), b AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 1 THEN coalesce(text, '') || ' updated'
              ELSE coalesce(text, '') END AS text
  FROM documents WHERE doc_id % 7 <> 0
  UNION ALL
  SELECT doc_id + 1000000, 'new page ' || doc_id::VARCHAR
  FROM documents WHERE doc_id % 7 = 2
)
SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'removed'
            WHEN a.doc_id IS NULL THEN 'added'
            WHEN a.text <> b.text THEN 'changed'
            ELSE 'unchanged' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
ORDER BY doc_id
"""


def q_robots_filter(sf_dir: str) -> pd.DataFrame:
    """RFC 9309 robots.txt gate over the per-doc URLs: parse each
    source's deterministic robots file (sources/urlgen.robots_txt),
    select the '*' group for our agent (the named smartbot group must
    NOT apply), and evaluate the longest-match allow/deny per path.
    The oracle replays every decision from the URL-template + robots
    rule tables in pure SQL — including the allow-overrides-disallow
    tie (/articles/202 beats /articles/ for doc 202x on odd sources)
    and the wildcard /post/*/ deny."""
    from .curate import robots_filter

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    out = robots_filter(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_ROBOTS_FILTER = r"""
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t, (doc_id % 4)::INT AS reps,
         CAST(substr(source, 4) AS INT) % 2 = 1 AS odd_src
  FROM documents
)
SELECT doc_id,
  CASE t WHEN 0 THEN '/articles/' || doc_id::VARCHAR
         WHEN 1 THEN '/a/news/' || doc_id::VARCHAR
         WHEN 2 THEN '/post/' || doc_id::VARCHAR || '/'
         WHEN 3 THEN '/track/' || doc_id::VARCHAR
         WHEN 4 THEN '/' || repeat('x/', reps) || 'page'
         ELSE '/a%20b/' END AS path,
  CASE t WHEN 0 THEN (NOT odd_src) OR doc_id::VARCHAR LIKE '202%'
         WHEN 2 THEN FALSE
         WHEN 3 THEN FALSE
         ELSE TRUE END AS allowed
FROM f ORDER BY doc_id
"""


def q_domain_stats(sf_dir: str) -> pd.DataFrame:
    """Registered-domain rollup of the URL table (blocklist audit):
    docs / blocked docs / max path depth per eTLD+1. One grouped
    aggregation with in-batch partial combine."""
    from .curate import domain_stats

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return domain_stats(ds)


SQL_DOMAIN_STATS = """
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t, (doc_id % 4)::INT AS reps,
         CAST(substr(source, 4) AS INT) % 2 = 1 AS odd_src
  FROM documents
), u AS (
  SELECT doc_id,
    CASE t WHEN 1 THEN source || '.co.uk' WHEN 2 THEN source || '.org'
           WHEN 3 THEN source || '.net' ELSE source || '.com'
    END AS domain,
    CASE t WHEN 0 THEN 2 WHEN 1 THEN 3 WHEN 2 THEN 2 WHEN 3 THEN 2
           WHEN 4 THEN reps + 1 ELSE 1 END AS path_depth,
    (t = 3 AND odd_src) AS blocked
  FROM f
)
SELECT domain, count(*)::BIGINT AS n_docs,
       sum(CASE WHEN blocked THEN 1 ELSE 0 END)::BIGINT AS n_blocked,
       max(path_depth)::BIGINT AS max_depth
FROM u GROUP BY domain ORDER BY domain
"""


def q_minhash_recall(sf_dir: str) -> pd.DataFrame:
    """LSH recall of the production MinHash dedup pipeline against
    exact shingle-Jaccard ground truth on a deterministic half-corpus
    sample (dedup.minhash_recall). Rows-only oracle (LSH banding is not
    SQL-expressible); the detected-pairs-are-always-true invariant
    (n_extra == 0) and a full-band recall==1.0 configuration are pinned
    by tests/test_windows.py."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.minhash_recall(ds, sample_mod=2, threshold=0.5)


def q_bpe_tokenize(sf_dir: str) -> pd.DataFrame:
    """The apply half of the BPE story: train 20 merges distributed
    (textstats.bpe_train), then tokenize the corpus with the broadcast
    merge table (textstats.bpe_apply) — per-doc word/char/token counts.
    Rows-only oracle (BPE is iterative); serial-encoder parity and
    merge-count invariants are pinned by tests/test_bpe_train.py."""
    from .textstats import bpe_apply, bpe_train

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_train(ds, num_merges=20)
    out = bpe_apply(ds, merges).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_pca_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distributed PCA over the embeddings table (one moment-partial
    streaming pass, d x d driver eigendecomposition): top-8 component
    spectrum. Rows-only oracle (eigendecomposition is not
    SQL-expressible); numerical parity against full-matrix numpy PCA
    and projection-variance==eigenvalue invariants are pinned by
    tests/test_pca.py."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    m = similarity.pca_fit(ds, n_components=8)
    ev = np.asarray(m["explained_var"])
    return pd.DataFrame({
        "component": np.arange(len(ev), dtype="int64"),
        "explained_var": np.round(ev, 6),
        "var_ratio": np.round(ev / m["total_var"], 6),
    })


def q_balance_classes(sf_dir: str) -> pd.DataFrame:
    """Balanced class downsampling (the class-imbalance fix before
    training): every lang keeps exactly min-class-count docs, chosen
    deterministically by (Knuth32(doc_id), doc_id) order — a stable
    pseudo-random draw both engines can replay. Pass 1 is a tiny
    class-count combine (broadcast the min); pass 2 is a lang-keyed
    shuffle with a vectorized per-class rank cut. Output: the kept
    (doc_id, lang) pairs plus per-class keep counts are implied by
    the rows themselves — fully oracle-checked via QUALIFY."""
    from ..functions import hashing

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def cnt(b: pd.DataFrame) -> pd.DataFrame:
        t = b["lang"].to_numpy(object)
        return pd.DataFrame({
            "lk": pd.Series(hashing.hash_strings(t).view(np.int64),
                            dtype="int64"),
            "lang": t, "n": np.ones(len(b), dtype=np.int64)})

    counts = keyed_combine(ds.map_batches(cnt, batch_format="pandas"),
                           ["lk", "lang"], ["n"], "sum").to_pandas()
    kmin = int(counts["n"].min())

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": d, "lang": b["lang"].to_numpy(object),
            "rk": (d * 2654435761) % 4294967296})

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lg, gg in g.groupby("lang", sort=False):
            gg = gg.sort_values(["rk", "doc_id"]).head(kmin)
            outs.append(gg[["doc_id", "lang"]])
        return pd.concat(outs, ignore_index=True)

    out = partition_map(ds.map_batches(rank, batch_format="pandas"),
                        "lang", cut).to_pandas()
    return (out.astype({"doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


SQL_BALANCE_CLASSES = """
WITH m AS (
  SELECT min(n) AS kmin
  FROM (SELECT count(*) AS n FROM documents GROUP BY lang)
)
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS r
  FROM documents
), m
WHERE r <= m.kmin
ORDER BY doc_id
"""


def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Exact-n deterministic sample per source: rank docs by a shared
    Knuth multiplicative hash of doc_id and keep the 10 smallest per
    source — grouped_topk's local-prune + one group-keyed shuffle, so
    no global sort and nothing driver-side. The hash formula is chosen
    to be reproducible in ANSI SQL (no library hash on either side)."""
    from .relational import grouped_topk

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["rank_hash"] = (
            b["doc_id"].to_numpy(np.uint64) * np.uint64(2654435761)
        ) % np.uint64(1 << 32)
        b["rank_hash"] = b["rank_hash"].astype("int64")
        return b

    ranked = ds.map_batches(rank, batch_format="pandas")
    out = grouped_topk(ranked, "source", ["rank_hash", "doc_id"], 10,
                       ascending=True).to_pandas()
    return pd.DataFrame({
        "source": out.source,
        "doc_id": out.doc_id.astype("int64"),
        "rank_hash": out.rank_hash.astype("int64"),
    })


SQL_STRATIFIED_SAMPLE = """
WITH r AS (
  SELECT source, doc_id,
         (doc_id * 2654435761) % 4294967296 AS rank_hash
  FROM documents
)
SELECT source, doc_id, rank_hash FROM r
QUALIFY row_number() OVER (
  PARTITION BY source ORDER BY rank_hash, doc_id) <= 10
"""


def q_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """Approximate event-value quantiles from the deterministic hash
    sample (rows-only oracle: the SipHash sample set is not
    SQL-reproducible; the <2%-rank-error bound is pinned by
    tests/test_curate.py and the exact twin is value_quantiles)."""
    from .sketches import sampled_quantiles

    ds = _read(sf_dir, "events", ["event_id", "value"])
    out = sampled_quantiles(ds, rate=0.05)
    out["value"] = np.round(out["value"], 6)
    return out


def q_text_knn(sf_dir: str) -> pd.DataFrame:
    """Trainingless text retrieval: feature-hash embed the documents
    table, then brute-force cosine top-10 to doc_id=0's vector —
    hash_embed_table composed with the existing knn stage (rows-only:
    SipHash buckets are not SQL-reproducible; determinism + knn
    correctness are pinned separately)."""
    from . import textstats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    emb = textstats.hash_embed_table(ds)
    qvec = (emb.filter(expr="doc_id == 0").to_pandas()["embedding"].iloc[0])
    out = similarity.knn_brute(emb, np.asarray(qvec), k=10,
                               vec_col="embedding", id_col="doc_id")
    out.columns = ["doc_id" if c == "vec_id" else c for c in out.columns]
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def q_purge_user(sf_dir: str) -> pd.DataFrame:
    """GDPR-style targeted deletion (relational.purge_rows): the events
    table is rewritten file-by-file WITHOUT the requested users
    (user_id %% 29 == 3 — a data-independent request set), resumable
    with a per-file deletion-lineage manifest; the purged table is then
    re-read and aggregated per type. The oracle filters the same
    predicate directly, so the hash compare pins the whole
    rewrite-audit-reread loop."""
    import shutil
    import tempfile

    from ..functions import hashing
    from .relational import purge_rows

    # the request set is the %29==3 predicate; purge_rows wants explicit
    # ids, so enumerate them up to the table's actual user-id bound
    # (metadata-scale single-column read) — keeps engine/SQL parity at
    # any scale factor
    max_user = int(_read_pd(sf_dir, "events", ["user_id"])
                   ["user_id"].max())
    keys = [u for u in range(max_user + 1) if u % 29 == 3]
    src = tempfile.mkdtemp(prefix="purge_in_", dir="/tmp")
    out = tempfile.mkdtemp(prefix="purge_out_", dir="/tmp")
    try:
        shutil.copy(os.path.join(sf_dir, "events.parquet"),
                    os.path.join(src, "events.parquet"))
        man = purge_rows(src, out, "user_id", keys)
        purged = rd.read_parquet(
            [os.path.join(out, f) for f in sorted(os.listdir(out))
             if f.endswith(".parquet")],
            columns=["event_type"])

        def prep(b: pd.DataFrame) -> pd.DataFrame:
            t = b["event_type"].to_numpy(object)
            return pd.DataFrame({
                "tk": pd.Series(hashing.hash_strings(t).view(np.int64),
                                dtype="int64"),
                "event_type": t,
                "n": np.ones(len(b), dtype=np.int64)})

        outdf = keyed_combine(purged.map_batches(prep,
                                                 batch_format="pandas"),
                              ["tk", "event_type"], ["n"], "sum").to_pandas()
        outdf = outdf[["event_type", "n"]].astype({"n": "int64"})
        outdf["rows_removed"] = np.int64(man["rows_removed"])
        return outdf.sort_values("event_type").reset_index(drop=True)
    finally:
        shutil.rmtree(src, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


SQL_PURGE_USER = """
WITH kept AS (
  SELECT * FROM events WHERE user_id % 29 <> 3
)
SELECT event_type, count(*) AS n,
       (SELECT count(*) FROM events WHERE user_id % 29 = 3)
         AS rows_removed
FROM kept GROUP BY event_type ORDER BY event_type
"""


def q_dedup_eval(sf_dir: str) -> pd.DataFrame:
    """Near-dup DETECTOR CALIBRATION: a deterministic planted-duplicate
    benchmark run through three of the engine's detector families —
    MinHash-LSH (shingle Jaccard), SimHash banding (Hamming<=3), and
    the EXACT prefix-filter join (ppjoin) as the ceiling — reporting
    per-method predicted/true-positive counts and precision/recall in
    permille. The eval corpus gives every doc a DISJOINT synthetic
    vocabulary keyed by its sf doc_id (so only planted mutant pairs
    can be similar and precision is exactly measurable); every fourth
    doc gets a tail-cropped mutant (last 10 of 50 tokens removed:
    token-set Jaccard 0.8, shingle Jaccard ~0.77 — similar at BOTH
    granularities, so every family is on its home turf). Rows-only
    (LSH detectors); recall floors pinned in tests/test_snm.py."""
    import ray.data as rd_

    base = _read_pd(sf_dir, "documents", ["doc_id"]).head(200)
    ids, texts = [], []
    for i in base["doc_id"].astype(int):
        toks = [f"w{i}_{j}" for j in range(50)]
        ids.append(int(i))
        texts.append(" ".join(toks))
        if i % 4 == 0:
            ids.append(int(i) + 1_000_000)
            texts.append(" ".join(toks[:40]))
    truth = {(int(i), int(i) + 1_000_000)
             for i in base["doc_id"].astype(int) if i % 4 == 0}
    corpus = rd_.from_pandas(pd.DataFrame({
        "doc_id": pd.Series(ids, dtype="int64"), "text": texts}))

    def score(name: str, pairs: pd.DataFrame) -> tuple:
        pred = (set() if "doc_a" not in pairs.columns else
                {(min(int(a), int(b)), max(int(a), int(b)))
                 for a, b in zip(pairs["doc_a"], pairs["doc_b"])})
        tp = len(pred & truth)
        prec = 1000 * tp // max(1, len(pred))
        rec = 1000 * tp // max(1, len(truth))
        return (name, len(pred), len(truth), tp, prec, rec)

    mh = dedup.minhash_dup_pairs_ds(corpus, threshold=0.5).to_pandas()
    sh3 = dedup.simhash_dup_pairs(corpus, max_hamming=3)
    sh10 = dedup.simhash_dup_pairs(corpus, max_hamming=10)
    pp = dedup.ppjoin_pairs(corpus, threshold=0.5).to_pandas()
    # simhash at BOTH thresholds is the calibration lesson: 4x16-bit
    # banding is built for tiny Hamming radii (true near-identity);
    # at J=0.8 it recalls only partially even with a loose verify —
    # the right tool there is MinHash or the exact prefix filter
    rows = [score("minhash_lsh", mh), score("simhash_h3", sh3),
            score("simhash_h10", sh10), score("ppjoin_exact", pp)]
    return pd.DataFrame(rows, columns=[
        "method", "n_pred", "n_true", "tp",
        "precision_permille", "recall_permille"])


def q_mannwhitney(sf_dir: str) -> pd.DataFrame:
    """Mann-Whitney U rank test between en and de document lengths
    (the rank-based two-sample test — robust where ab_cuped's
    mean-based readout is not): average ranks with tie correction,
    kept INTEGER by doubling (2*avgrank = 2*count_below + ties + 1),
    accumulated from a value-histogram combine — n_chars is integer,
    so the histogram is value-cardinality-bounded regardless of corpus
    size. Reports n per group and 2*U per group (U_en + U_de =
    n_en*n_de holds by construction — asserted in tests)."""
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["lang"].isin(("en", "de"))]
        return pd.DataFrame({
            "v": b["n_chars"].astype("int64"),
            "n_en": (b["lang"] == "en").to_numpy(np.int64),
            "n_de": (b["lang"] == "de").to_numpy(np.int64)})

    hist = keyed_combine(docs.map_batches(prep, batch_format="pandas"),
                         "v", ["n_en", "n_de"], "sum"
                         ).to_pandas().sort_values("v")
    cnt = (hist["n_en"] + hist["n_de"]).to_numpy(np.int64)
    below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    two_avg_rank = 2 * below + cnt + 1  # 2 x average rank per value
    s_en = int((hist["n_en"].to_numpy(np.int64) * two_avg_rank).sum())
    s_de = int((hist["n_de"].to_numpy(np.int64) * two_avg_rank).sum())
    n_en = int(hist["n_en"].sum())
    n_de = int(hist["n_de"].sum())
    u2_en = s_en - n_en * (n_en + 1)   # 2 x U statistic
    u2_de = s_de - n_de * (n_de + 1)
    return pd.DataFrame({
        "group": ["de", "en"],
        "n": pd.Series([n_de, n_en], dtype="int64"),
        "rank_sum_x2": pd.Series([s_de, s_en], dtype="int64"),
        "u_x2": pd.Series([u2_de, u2_en], dtype="int64")})


SQL_MANNWHITNEY = """
WITH d AS (
  SELECT lang, n_chars FROM documents WHERE lang IN ('en', 'de')
), r AS (
  SELECT lang,
         2 * rank() OVER (ORDER BY n_chars)
           + count(*) OVER (PARTITION BY n_chars) - 1 AS two_avg_rank
  FROM d
), g AS (
  SELECT lang AS "group", count(*) AS n,
         sum(two_avg_rank)::BIGINT AS rank_sum_x2
  FROM r GROUP BY lang
)
SELECT "group", n, rank_sum_x2,
       (rank_sum_x2 - n * (n + 1))::BIGINT AS u_x2
FROM g ORDER BY "group"
"""


def q_theilsen_trend(sf_dir: str) -> pd.DataFrame:
    """Robust per-type hourly trend by THEIL-SEN (median of all
    pairwise slopes — 29%% breakdown point vs OLS's zero): dense
    hourly counts on the shared hourly-partials shuffle, then the
    O(T^2) pairwise-slope median runs VECTORIZED inside each type's
    partition (T = hours; triu index pair generation + one sort —
    series-scale, never corpus-scale). Median follows the
    quantile_disc rule, so the self-join twin matches exactly."""
    import math

    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        hrs = pd.to_datetime(b["ts"]).dt.floor("h")
        ep = (hrs.astype("datetime64[s]").astype("int64")
              // 3600).astype("int64")
        return pd.DataFrame({
            "hour": ep,
            "event_type": b["event_type"].to_numpy(object),
            "n": np.ones(len(b), dtype=np.int64)})

    hourly = keyed_combine(ev.map_batches(prep, batch_format="pandas"),
                           ["hour", "event_type"], ["n"], "sum")

    def slopes(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, gg in g.groupby("event_type", sort=False):
            gg = gg.sort_values("hour")
            h = gg["hour"].to_numpy(np.float64)
            c = gg["n"].to_numpy(np.float64)
            if h.shape[0] < 2:
                continue
            iu, ju = np.triu_indices(h.shape[0], 1)
            sl = np.sort((c[ju] - c[iu]) / (h[ju] - h[iu]))
            m = sl.shape[0]
            med = sl[max(math.ceil(0.5 * m) - 1, 0)]
            rows.append((et, m, round(float(med), 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                           "slope_per_hour"])

    out = partition_map(hourly, "event_type", slopes).to_pandas()
    return (out.astype({"n_pairs": "int64"})
            .sort_values("event_type").reset_index(drop=True))


SQL_THEILSEN_TREND = """
WITH h AS (
  SELECT epoch(date_trunc('hour', ts))::BIGINT // 3600 AS hour,
         event_type, count(*)::DOUBLE AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.event_type,
         (b.n - a.n) / (b.hour - a.hour) AS slope
  FROM h a JOIN h b
    ON a.event_type = b.event_type AND b.hour > a.hour
)
SELECT event_type, count(*) AS n_pairs,
       round(quantile_disc(slope, 0.5), 6) AS slope_per_hour
FROM p GROUP BY event_type ORDER BY event_type
"""


def q_holt_forecast(sf_dir: str) -> pd.DataFrame:
    """Holt linear-trend exponential smoothing per event type (the
    classic ops-forecasting recursion, alpha=0.5 beta=0.25 — dyadic so
    the float recursion is reproducible): per-type DENSE hourly counts
    on the shared hourly-partials shuffle (global hour grid, zero-fill
    gaps), then the level/trend recursion runs INSIDE each key's
    partition (series stays off the driver); output is the final
    state + 1h/24h forecasts. The twin replays the identical
    recursion in a recursive CTE — same IEEE op order, so values
    match bit-for-bit before round(,6)."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        hrs = pd.to_datetime(b["ts"]).dt.floor("h")
        # cast to seconds explicitly: pandas keeps the parquet's [us]
        # unit, so a raw int64 view would be unit-dependent
        ep = (hrs.astype("datetime64[s]").astype("int64")
              // 3600).astype("int64")
        t = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "hour": ep, "event_type": t,
            "n": np.ones(len(b), dtype=np.int64)})

    hourly = keyed_combine(ev.map_batches(prep, batch_format="pandas"),
                           ["hour", "event_type"], ["n"], "sum").materialize()
    bounds = hourly.map_batches(
        lambda b: pd.DataFrame({"lo": [b["hour"].min()],
                                "hi": [b["hour"].max()]}),
        batch_format="pandas").to_pandas()
    lo, hi = int(bounds["lo"].min()), int(bounds["hi"].max())

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, gg in g.groupby("event_type", sort=False):
            xs = np.zeros(hi - lo + 1, dtype=np.float64)
            xs[gg["hour"].to_numpy(np.int64) - lo] = gg["n"].to_numpy(
                np.int64)
            level = xs[0]
            trend = xs[1] - xs[0] if xs.shape[0] > 1 else 0.0
            for t in range(1, xs.shape[0]):
                prev = level
                level = 0.5 * xs[t] + 0.5 * (level + trend)
                trend = 0.25 * (level - prev) + 0.75 * trend
            rows.append((et, round(level, 6), round(trend, 6),
                         round(level + trend, 6),
                         round(level + 24.0 * trend, 6)))
        return pd.DataFrame(rows, columns=["event_type", "level",
                                           "trend", "fc_1h", "fc_24h"])

    out = partition_map(hourly, "event_type", smooth).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HOLT_FORECAST = """
WITH RECURSIVE b AS (
  SELECT epoch(date_trunc('hour', ts))::BIGINT // 3600 AS hour,
         event_type, count(*) AS n
  FROM events GROUP BY 1, 2
), bounds AS (
  SELECT min(hour) AS lo, max(hour) AS hi FROM b
), grid AS (
  SELECT t.event_type, g.h AS hour
  FROM (SELECT DISTINCT event_type FROM b) t,
       bounds, unnest(range(bounds.lo, bounds.hi + 1)) AS g(h)
), x AS (
  SELECT grid.event_type, grid.hour - bounds.lo AS i,
         coalesce(b.n, 0)::DOUBLE AS v
  FROM grid CROSS JOIN bounds
  LEFT JOIN b ON b.event_type = grid.event_type
             AND b.hour = grid.hour
), init AS (
  SELECT x0.event_type, 0::BIGINT AS i, x0.v AS level,
         coalesce(x1.v - x0.v, 0.0) AS trend
  FROM x x0 LEFT JOIN x x1
    ON x1.event_type = x0.event_type AND x1.i = 1
  WHERE x0.i = 0
), r AS (
  SELECT * FROM init
  UNION ALL
  SELECT r.event_type, r.i + 1,
         0.5 * x.v + 0.5 * (r.level + r.trend),
         0.25 * ((0.5 * x.v + 0.5 * (r.level + r.trend)) - r.level)
           + 0.75 * r.trend
  FROM r JOIN x ON x.event_type = r.event_type AND x.i = r.i + 1
)
SELECT event_type, round(level, 6) AS level, round(trend, 6) AS trend,
       round(level + trend, 6) AS fc_1h,
       round(level + 24.0 * trend, 6) AS fc_24h
FROM r
QUALIFY i = max(i) OVER (PARTITION BY event_type)
ORDER BY event_type
"""


def q_graph_agg(sf_dir: str) -> pd.DataFrame:
    """One-hop NEIGHBOR FEATURE AGGREGATION (the GraphSAGE/GNN message
    pass, one round): every node averages and maxes its out-neighbors'
    n_chars over the synthetic k-out link graph — one edge expansion,
    one dst-keyed bucket_join onto node features, one src-keyed
    combine. Integer floor mean keeps the twin exact."""
    from ..pipelines import graph

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    n_nodes = int(_read_pd(sf_dir, "documents", ["doc_id"]).shape[0])
    edges = graph.synth_edges(
        _read(sf_dir, "documents", ["doc_id"]), n_nodes, k=4)

    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    feat_schema = pa.schema([("doc_id", pa.int64()),
                             ("n_chars", pa.int64())])

    def feat(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_chars": b["n_chars"].astype("int64")})

    j = bucket_join(edges, docs.map_batches(feat, batch_format="pandas"),
                    "dst", "doc_id", num_partitions=16,
                    left_schema=edge_schema, right_schema=feat_schema)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": b["src"].astype("int64"),
            "deg_out": np.ones(len(b), dtype=np.int64),
            "sum_chars": b["n_chars"].astype("int64"),
            "max_chars": b["n_chars"].astype("int64")})

    tagged = j.map_batches(prep, batch_format="pandas").materialize()
    sums = keyed_combine(tagged, "src", ["deg_out", "sum_chars"],
                         "sum").to_pandas()
    maxs = keyed_combine(tagged, "src", ["max_chars"], "max").to_pandas()
    out = sums.merge(maxs[["src", "max_chars"]], on="src")
    out["nbr_mean_chars"] = (out["sum_chars"]
                             // out["deg_out"]).astype("int64")
    out = out.rename(columns={"src": "doc_id",
                              "max_chars": "nbr_max_chars"})
    out = out[["doc_id", "deg_out", "nbr_mean_chars", "nbr_max_chars"]]
    return (out.astype({c: "int64" for c in out.columns})
            .sort_values("doc_id").reset_index(drop=True))


def _make_sql_graph_agg() -> str:
    from ..pipelines.graph import _edges_sql

    return f"""
WITH {_edges_sql(4)}
SELECT e.src AS doc_id, count(*) AS deg_out,
       (sum(d.n_chars) // count(*))::BIGINT AS nbr_mean_chars,
       max(d.n_chars)::BIGINT AS nbr_max_chars
FROM edges e JOIN documents d ON d.doc_id = e.dst
GROUP BY e.src ORDER BY doc_id
"""


SQL_GRAPH_AGG = _make_sql_graph_agg()


def q_frequent_pairs(sf_dir: str) -> pd.DataFrame:
    """A-Priori frequent 2-itemsets (Agrawal-Srikant '94, the
    distributed first passes): pass 1 counts singleton support
    (token-hash keyed combine) and BROADCASTS the frequent set —
    the A-Priori prune that keeps pass 2's per-doc pair generation
    quadratic only in the (small) frequent vocabulary, not the doc's
    token count; pass 2 counts candidate-pair support through a
    pair-keyed combine and applies the support threshold. minsup=150
    docs (30% at sf0.01)."""
    import ray

    from ..functions import hashing

    MINSUP = 150
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def singles(b: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for t in b["text"]:
            toks.extend(set((t if isinstance(t, str) else "").split()))
        a = np.asarray(toks, dtype=object)
        return pd.DataFrame({
            "tk": pd.Series(hashing.hash_strings(a).view(np.int64)
                            if len(a) else np.empty(0, np.int64),
                            dtype="int64"),
            "tok": a, "n": np.ones(len(a), dtype=np.int64)})

    freq = keyed_combine(ds.map_batches(singles, batch_format="pandas"),
                         ["tk", "tok"], ["n"], "sum").to_pandas()
    fset = sorted(freq.loc[freq["n"] >= MINSUP, "tok"])
    f_ref = ray.put(set(fset))

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        fs = ray.get(f_ref)
        cnt: dict = {}
        for t in b["text"]:
            items = sorted(set((t if isinstance(t, str) else "").split())
                           & fs)
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    k = (items[i], items[j])
                    cnt[k] = cnt.get(k, 0) + 1
        if not cnt:
            return pd.DataFrame({
                "pk": pd.Series(dtype="int64"),
                "item_a": pd.Series(dtype=object),
                "item_b": pd.Series(dtype=object),
                "support": pd.Series(dtype="int64")})
        ka = np.asarray([k[0] for k in cnt], dtype=object)
        kb = np.asarray([k[1] for k in cnt], dtype=object)
        ph = (hashing.hash_strings(ka)
              ^ (hashing.hash_strings(kb) * np.uint64(0x9E3779B9)))
        return pd.DataFrame({
            "pk": pd.Series(ph.view(np.int64), dtype="int64"),
            "item_a": ka, "item_b": kb,
            "support": pd.Series(list(cnt.values()), dtype="int64")})

    out = keyed_combine(ds.map_batches(pairs, batch_format="pandas"),
                        ["pk", "item_a", "item_b"], ["support"],
                        "sum").to_pandas()
    out = out.loc[out["support"] >= MINSUP,
                  ["item_a", "item_b", "support"]]
    return (out.astype({"support": "int64"})
            .sort_values(["item_a", "item_b"]).reset_index(drop=True))


SQL_FREQUENT_PAIRS = r"""
WITH t AS (
  SELECT doc_id, unnest(list_filter(list_distinct(
      regexp_split_to_array(trim(coalesce(text, '')), '\s+')),
      w -> w <> '')) AS tok
  FROM documents
), f AS (
  SELECT tok FROM t GROUP BY tok HAVING count(*) >= 150
), ft AS (
  SELECT doc_id, tok FROM t JOIN f USING (tok)
), p AS (
  SELECT a.tok AS item_a, b.tok AS item_b, count(*) AS support
  FROM ft a JOIN ft b ON a.doc_id = b.doc_id AND a.tok < b.tok
  GROUP BY a.tok, b.tok
)
SELECT item_a, item_b, support FROM p WHERE support >= 150
ORDER BY item_a, item_b
"""


def q_pmi_bigrams(sf_dir: str) -> pd.DataFrame:
    """Top-20 bigram collocations by pointwise mutual information
    (one gram-hash shuffle + broadcast unigram counts)."""
    from . import textstats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return textstats.pmi_bigrams(ds, k=20, min_count=5)


SQL_PMI_BIGRAMS = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents
), bi AS (
  SELECT ws[i] || ' ' || ws[i+1] AS gram, ws[i] AS a, ws[i+1] AS b2
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws)-1)) AS i) t
), cb AS (
  SELECT gram, a, b2, count(*)::BIGINT AS c_ab FROM bi GROUP BY gram, a, b2
), uni AS (
  SELECT word, count(*)::DOUBLE AS c FROM (
    SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS word
    FROM documents) GROUP BY word
), tot AS (SELECT sum(c_ab)::DOUBLE AS n_bi FROM cb)
SELECT gram, c_ab,
       round(ln((SELECT n_bi FROM tot) * c_ab / (ua.c * ub.c)), 6) AS pmi
FROM cb JOIN uni ua ON cb.a = ua.word JOIN uni ub ON cb.b2 = ub.word
WHERE c_ab >= 5
ORDER BY pmi DESC, gram LIMIT 20
"""


def q_quality_percentile(sf_dir: str) -> pd.DataFrame:
    """Per-source percentile rank of document length (the quality-
    filtering primitive 'keep the top X% per source'): one source-keyed
    exchange, then vectorized min-rank percent_rank per source group —
    no global sort."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby("source")["n_chars"].rank(method="min")
        n = g.groupby("source")["n_chars"].transform("size")
        pr = np.where(n > 1, (r - 1) / (n - 1), 0.0)
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "source": g["source"],
            "pr": np.round(pr, 6),
        })

    out = partition_map(ds, "source", per_part).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_QUALITY_PERCENTILE = """
SELECT doc_id, source,
       round(percent_rank() OVER (PARTITION BY source ORDER BY n_chars), 6)
         AS pr
FROM documents ORDER BY doc_id
"""


def q_dedup_corpus(sf_dir: str) -> pd.DataFrame:
    """Round-2 composed dedup flagship, the WHOLE chain oracle-checked:
    strip corpus-duplicated 8-word spans -> drop docs left with < 20
    words -> exact-dedup the cleaned texts (min doc_id wins) -> per-
    source survivor counts + total surviving words. Every stage is one
    of this repo's streaming operators; the oracle recomputes the full
    chain in SQL."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    clean = dedup.strip_dup_spans(
        _read(sf_dir, "documents", ["doc_id", "text"]), window=8,
        min_docs=2)

    def wordcount(b: pd.DataFrame) -> pd.DataFrame:
        nw = b["clean_text"].str.split().str.len()
        out = b[nw >= 20].copy()
        out["n_words"] = nw[nw >= 20].astype("int64")
        return out

    kept = clean.map_batches(wordcount, batch_format="pandas")
    deduped = dedup.exact_dedup(kept, text_col="clean_text",
                                id_col="doc_id")
    # survivors join back to source via broadcast of the (tiny) doc->
    # source map? No: source rides from the start instead — merge here
    src = relational.bucket_join(
        deduped, docs.drop_columns(["text"]), "doc_id", "doc_id",
        suffix="_d",
        # deduped ends in a shuffle: explicit schema stops .schema()
        # from executing the strip+dedup chain ahead of the join
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("clean_text", pa.string()),
                               ("n_words", pa.int64())]))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), n_words=("n_words", "sum"))
        return g

    parts = src.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby("source", as_index=False)
           .agg(n_docs=("n_docs", "sum"), n_words=("n_words", "sum")))
    out["n_docs"] = out.n_docs.astype("int64")
    out["n_words"] = out.n_words.astype("int64")
    return out.sort_values("source").reset_index(drop=True)


SQL_DEDUP_CORPUS = r"""
WITH words AS (
  -- list_filter drops the [''] duckdb yields for empty text, matching
  -- Python str.split() (zero tokens; empty docs drop on both sides)
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT doc_id, i, array_to_string(w[i:i+7], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-7)) AS i) t
), dup AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
), cov AS (
  SELECT DISTINCT g.doc_id, g.i + o.k AS p
  FROM grams g JOIN dup d USING (gram),
       LATERAL (SELECT unnest(generate_series(0, 7)) AS k) o
), uw AS (
  SELECT w.doc_id, t.i AS p, w.w[t.i] AS word
  FROM words w, LATERAL (SELECT unnest(generate_series(1, len(w.w))) AS i) t
), clean AS (
  SELECT u.doc_id, string_agg(u.word, ' ' ORDER BY u.p) AS clean_text,
         count(*)::BIGINT AS n_words
  FROM uw u LEFT JOIN cov c ON u.doc_id = c.doc_id AND u.p = c.p
  WHERE c.p IS NULL GROUP BY u.doc_id
), kept AS (
  SELECT * FROM clean WHERE n_words >= 20
), dedup2 AS (
  SELECT min(doc_id) AS doc_id, any_value(n_words) AS n_words
  FROM kept GROUP BY clean_text
)
SELECT d.source, count(*)::BIGINT AS n_docs,
       sum(x.n_words)::BIGINT AS n_words
FROM dedup2 x JOIN documents d USING (doc_id)
GROUP BY d.source ORDER BY d.source
"""


def q_events_cube(sf_dir: str) -> pd.DataFrame:
    """CUBE over (event_type, hour-of-day): ONE corpus scan computes the
    finest grouping set via in-batch partial aggregation; the other
    three sets (type margin, hour margin, grand total) re-aggregate the
    fine level's group-scale partials on the driver — the engine shape
    for GROUPING SETS, same as revenue_rollup but two-dimensional.
    Margins are marked 'ALL'/-1 instead of NULL so the hash compare is
    null-free.  Money rides as integer cents (floor(value*100))."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b.event_type,
            "hod": pd.to_datetime(b.ts).dt.hour.astype("int64"),
            "cents": np.floor(b.value.to_numpy(np.float64) * 100
                              ).astype("int64"),
        })

    base = grouped_agg(ev.map_batches(prep, batch_format="pandas"),
                       ["event_type", "hod"], sums=["cents"])
    base = pd.DataFrame({"event_type": base["event_type"],
                         "hod": base["hod"].astype("int64"),
                         "n_events": base["n"].astype("int64"),
                         "sum_cents": base["sum_cents"].astype("int64")})

    def margin(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
        if keys:
            g = df.groupby(keys, as_index=False)[["n_events", "sum_cents"]
                                                 ].sum()
        else:
            g = pd.DataFrame({"n_events": [df["n_events"].sum()],
                              "sum_cents": [df["sum_cents"].sum()]})
        if "event_type" not in g:
            g["event_type"] = "ALL"
        if "hod" not in g:
            g["hod"] = -1
        return g[["event_type", "hod", "n_events", "sum_cents"]]

    out = pd.concat([base,
                     margin(base, ["event_type"]),
                     margin(base, ["hod"]),
                     margin(base, [])], ignore_index=True)
    out["hod"] = out["hod"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return (out.sort_values(["event_type", "hod"])
            .reset_index(drop=True))


SQL_EVENTS_CUBE = r"""
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(hod, -1) AS hod,
       count(*)::BIGINT AS n_events,
       sum(cents)::BIGINT AS sum_cents
FROM (SELECT event_type, EXTRACT(hour FROM ts)::BIGINT AS hod,
             floor(value * 100)::BIGINT AS cents FROM events)
GROUP BY CUBE(event_type, hod)
ORDER BY event_type, hod
"""


def q_revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP-style multi-level aggregate (order priority -> grand
    total) computed as two grouped partial-agg passes over ONE scan's
    partials — the engine shape for GROUPING SETS: the fine level's
    partials re-aggregate to the coarse level driver-side (level counts
    are group-scale, never row-scale)."""
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderpriority": b.o_orderpriority,
            "price_cents": np.floor(b.o_totalprice * 100).astype("int64"),
        })

    prepped = orders.map_batches(prep, batch_format="pandas",
                                 batch_size=65536)
    fine = grouped_agg(prepped, ["o_orderpriority"], sums=["price_cents"])
    out = pd.DataFrame({
        "o_orderpriority": fine.o_orderpriority,
        "n_orders": fine.n.astype("int64"),
        "sum_price_cents": fine.sum_price_cents.astype("int64"),
    })
    total = pd.DataFrame({
        "o_orderpriority": ["ALL"],
        "n_orders": [int(out.n_orders.sum())],
        "sum_price_cents": [int(out.sum_price_cents.sum())],
    })
    return (pd.concat([out, total], ignore_index=True)
            .sort_values("o_orderpriority").reset_index(drop=True))


SQL_REVENUE_ROLLUP = """
SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(floor(o_totalprice * 100)::BIGINT)::BIGINT AS sum_price_cents
FROM orders
GROUP BY ROLLUP (o_orderpriority)
ORDER BY o_orderpriority
"""


def q_cms_counts(sf_dir: str) -> pd.DataFrame:
    """Count-Min-sketched corpus word counts for the exact top-20 probe
    set (rows-only: CMS estimates overshoot by design; linearity and
    the error band are pinned in tests, heavy_hitters is the exact
    twin)."""
    from .sketches import cms_word_counts
    from .textstats import heavy_hitters

    ds = _read(sf_dir, "documents", ["text"])
    probes = heavy_hitters(ds, k=20, counters=512)["word"].tolist()
    return cms_word_counts(ds, probes, width=8192)


def q_unigram_logprob(sf_dir: str) -> pd.DataFrame:
    """Per-doc unigram negative log-likelihood (the classic LM quality
    filter: improbable-token documents score high) — EXACT and fully
    distributed, no vocabulary-scale driver state: per-(doc, word)
    multiplicities (doc-vocab scale, pre-aggregated in the batch) meet
    the ``textstats.word_counts`` table in one large x large
    bucket_join, then per-doc sums ride one doc-keyed ``partition_map``.
    The only driver data are the token-total scalar and the final
    doc-scale result (this query's contract is a per-doc frame)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    # materialize: the vocab-scale count table is consumed twice (the
    # total below and the join) — without this its exchange would re-run
    # per consumer; the blocks stay distributed in the object store,
    # nothing lands on the driver
    uni = textstats.word_counts(ds).materialize()

    # corpus token total == sum of the unigram counts: a metadata-scale
    # reduce over uni, NOT another full-corpus tokenize pass
    total = float(uni.map_batches(
        lambda b: pd.DataFrame({"s": [int(b["c"].sum())]}),
        batch_format="pandas").to_pandas()["s"].sum())

    # per-(doc, word) multiplicities — doc-vocab scale, not token scale
    def doc_words(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        ids = b["doc_id"].to_numpy()[flat.index.to_numpy()]
        g = (pd.DataFrame({"doc_id": ids, "word": flat.to_numpy(object)})
             .groupby(["doc_id", "word"], sort=False, as_index=False)
             .size().rename(columns={"size": "m"}))
        return g

    dw = ds.map_batches(doc_words, batch_format="pandas", batch_size=8192)
    joined = bucket_join(
        dw, uni, left_on="word", right_on="word",
        # explicit schemas: .schema() on the lazy uni shuffle / dw map
        # would execute them ahead of the join's own consumption
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("word", pa.string()), ("m", pa.int64())]),
        right_schema=pa.schema([("word", pa.string()), ("c", pa.int64())]))

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        m = b["m"].to_numpy(np.float64)
        lp = m * -np.log(b["c"].to_numpy(np.float64) / total)
        return (pd.DataFrame({"doc_id": b["doc_id"],
                              "n_tokens": b["m"].astype("int64"),
                              "lp": lp})
                .groupby("doc_id", sort=False, as_index=False)
                .agg(n_tokens=("n_tokens", "sum"), lp=("lp", "sum")))

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", sort=False, as_index=False)
                .agg(n_tokens=("n_tokens", "sum"), lp=("lp", "sum")))
        return pd.DataFrame({"doc_id": out["doc_id"],
                             "n_tokens": out["n_tokens"].astype("int64"),
                             "logprob": np.round(out["lp"], 6)})

    out = partition_map(joined.map_batches(contrib, batch_format="pandas"),
                        "doc_id", per_doc).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_UNIGRAM_LOGPROB = r"""
WITH w AS (
  -- list_filter drops the [''] artifact regexp_split produces for
  -- empty/whitespace-only text, matching the engine's str.split()
  -- (empty docs emit no tokens on either side and don't inflate tot)
  SELECT doc_id, unnest(list_filter(
           regexp_split_to_array(trim(text), '\s+'),
           x -> x <> '')) AS word
  FROM documents
), uni AS (
  SELECT word, count(*)::DOUBLE AS c FROM w GROUP BY word
), tot AS (SELECT count(*)::DOUBLE AS n FROM w)
SELECT doc_id, count(*)::BIGINT AS n_tokens,
       round(sum(-ln(u.c / (SELECT n FROM tot))), 6) AS logprob
FROM w JOIN uni u USING (word)
GROUP BY doc_id
"""


def q_web_curate(sf_dir: str) -> pd.DataFrame:
    """Composed round-3 web-curation flagship (curate.web_curate):
    jusText substantial-block gate -> URL-blocklist drop -> exact dedup
    on normalized text -> per-source survivor rollup. Every link reuses
    a separately-shipped operator, and every link has a SQL twin, so
    the whole composition is oracle-exact."""
    from .curate import web_curate

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return web_curate(ds)


SQL_WEB_CURATE = r"""
WITH base AS (
  SELECT doc_id, source,
         trim(regexp_replace(coalesce(text, ''), '\s+', ' ', 'g')) AS t,
         10 + 3 * (doc_id % 4) AS k,
         list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                           '\s+'),
                     w -> w <> '') AS words
  FROM documents
), tok AS (
  SELECT doc_id, k, unnest(words) AS w,
         unnest(range(1, len(words) + 1)) AS ord
  FROM base
), chunks AS (
  SELECT doc_id, (ord - 1) // k AS g,
         sum(length(w)) + count(*) - 1 AS clen
  FROM tok GROUP BY doc_id, k, (ord - 1) // k
), subst AS (
  -- context-free neargood+good main blocks = chunks >= 40 chars
  SELECT doc_id,
         sum(CASE WHEN clen >= 40 THEN 1 ELSE 0 END) AS n_subst
  FROM chunks GROUP BY doc_id
), kept AS (
  SELECT b.doc_id, b.source, b.t
  FROM base b JOIN subst s USING (doc_id)
  WHERE NOT (b.doc_id % 6 = 3
             AND CAST(substr(b.source, 4) AS INT) % 2 = 1)
    AND s.n_subst >= 2
), dedup AS (
  SELECT source, t,
         row_number() OVER (PARTITION BY t ORDER BY doc_id) AS rn
  FROM kept
), tot AS (
  SELECT source, count(*)::BIGINT AS n_docs FROM documents GROUP BY source
), sv AS (
  SELECT source, count(*)::BIGINT AS n_kept,
         sum(length(t))::BIGINT AS kept_chars
  FROM dedup WHERE rn = 1 GROUP BY source
)
SELECT t.source, t.n_docs,
       coalesce(sv.n_kept, 0)::BIGINT AS n_kept,
       coalesce(sv.kept_chars, 0)::BIGINT AS kept_chars
FROM tot t LEFT JOIN sv USING (source)
ORDER BY t.source
"""


def q_source_kl(sf_dir: str) -> pd.DataFrame:
    """Per-source KL divergence from the corpus word distribution (the
    data-mixture drift diagnostic), in engine-exact integer micro-nats
    x token count: kl_micro = sum_w c_ws * floor(1e6 * ln(c_ws * N /
    (c_w * N_s))). One word-hash shuffle; word marginals are row-local
    in the pivoted count table (textstats.source_kl)."""
    from .textstats import source_kl

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return source_kl(ds, group_col="source")


SQL_SOURCE_KL = r"""
WITH w AS (
  SELECT source, unnest(list_filter(
           regexp_split_to_array(trim(coalesce(text, '')), '\s+'),
           x -> x <> '')) AS word
  FROM documents
), c AS (
  SELECT word, source, count(*)::BIGINT AS c FROM w GROUP BY word, source
), cw AS (
  SELECT word, sum(c)::BIGINT AS cw FROM c GROUP BY word
), ns AS (
  SELECT source,
         coalesce(sum(len(list_filter(
           regexp_split_to_array(trim(coalesce(text, '')), '\s+'),
           x -> x <> ''))), 0)::BIGINT AS n_tokens
  FROM documents GROUP BY source
), t AS (SELECT sum(c)::BIGINT AS n FROM c),
kl AS (
  SELECT c.source,
         sum(c.c * CAST(floor(1000000 * ln(
               (c.c * (SELECT n FROM t))::DOUBLE
               / (cw.cw * n2.n_tokens))) AS BIGINT))::BIGINT AS kl_micro
  FROM c
  JOIN cw USING (word)
  JOIN ns n2 USING (source)
  GROUP BY c.source
)
SELECT s.source, s.n_tokens, coalesce(k.kl_micro, 0)::BIGINT AS kl_micro
FROM ns s LEFT JOIN kl k USING (source)
ORDER BY s.source
"""


def q_mad_by_source(sf_dir: str) -> pd.DataFrame:
    """Robust per-source length stats: median doc length and MAD
    (median absolute deviation) — outlier-insensitive quality-report
    numbers. Two grouped-quantile passes (one key-hash shuffle each,
    quantile_disc selection rule); the tiny per-source median table is
    broadcast between them."""
    import ray as _ray

    def lens(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "v": b["text"].fillna("").str.len().astype("float64"),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    lv = ds.map_batches(lens, batch_format="pandas")
    med = relational.grouped_quantiles(lv, "source", "v", qs=(0.5,))
    med_ref = _ray.put(dict(zip(med["source"], med["value"])))

    def devs(b: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(med_ref)
        v = b["text"].fillna("").str.len().astype("float64")
        return pd.DataFrame({
            "source": b["source"],
            "d": (v - b["source"].map(m)).abs(),
        })

    dv = ds.map_batches(devs, batch_format="pandas")
    mad = relational.grouped_quantiles(dv, "source", "d", qs=(0.5,))
    out = pd.DataFrame({
        "source": med["source"].astype(str),
        "median_len": med["value"].to_numpy(np.float64).astype("int64"),
        "mad_len": mad.set_index("source")["value"]
                      .reindex(med["source"]).to_numpy(np.float64)
                      .astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


SQL_MAD_BY_SOURCE = """
WITH l AS (
  SELECT source, length(coalesce(text, '')) AS v FROM documents
), m AS (
  SELECT source, quantile_disc(v, 0.5) AS med FROM l GROUP BY source
)
SELECT l.source,
       any_value(m.med)::BIGINT AS median_len,
       quantile_disc(abs(l.v - m.med), 0.5)::BIGINT AS mad_len
FROM l JOIN m ON l.source = m.source
GROUP BY l.source ORDER BY l.source
"""


def q_ngram_diversity(sf_dir: str) -> pd.DataFrame:
    """Per-source 3-gram diversity (distinct/total grams, integer
    permille) — the self-repetition report metric. One gram-hash
    shuffle for distincts, metadata-scale totals pass."""
    from .textstats import ngram_diversity

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return ngram_diversity(ds, window=3, group_col="source")


SQL_NGRAM_DIVERSITY = r"""
WITH words AS (
  SELECT source, list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                                   '\s+'),
                             x -> x <> '') AS w
  FROM documents
), grams AS (
  SELECT source, array_to_string(w[i:i+2], ' ') AS gram
  FROM words, LATERAL (SELECT unnest(generate_series(1, len(w)-2)) AS i) t
)
SELECT source,
       count(*)::BIGINT AS n_grams,
       count(DISTINCT gram)::BIGINT AS n_distinct,
       (count(DISTINCT gram) * 1000 // count(*))::BIGINT
         AS diversity_permille
FROM grams GROUP BY source ORDER BY source
"""


def q_vocab_coverage(sf_dir: str) -> pd.DataFrame:
    """Exact top-100 vocabulary coverage curve: word rank, count, and
    cumulative token-mass permille (integer-exact — cum * 1000 //
    total). Ties at equal count break by word ascending, matching the
    oracle's ORDER BY."""
    from .textstats import vocab_coverage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return vocab_coverage(ds, k=100)


SQL_VOCAB_COVERAGE = r"""
WITH w AS (
  SELECT unnest(list_filter(regexp_split_to_array(trim(text), '\s+'),
                            x -> x <> '')) AS word
  FROM documents
), c AS (
  SELECT word, count(*)::BIGINT AS n FROM w GROUP BY word
), tot AS (SELECT count(*)::BIGINT AS t FROM w),
r AS (
  SELECT word, n,
         row_number() OVER (ORDER BY n DESC, word) - 1 AS rank,
         sum(n) OVER (ORDER BY n DESC, word
                      ROWS UNBOUNDED PRECEDING) AS cum
  FROM c
)
SELECT rank::BIGINT AS rank, word, n,
       (cum * 1000 // greatest((SELECT t FROM tot), 1))::BIGINT
         AS cum_permille
FROM r WHERE rank < 100 ORDER BY rank
"""


def q_span_corruption(sf_dir: str) -> pd.DataFrame:
    """T5-style span corruption over the documents table (rows-only:
    the span-placement hash isn't SQL-reproducible; the LOSSLESS
    restore round-trip and the block-layout invariance are pinned in
    tests/test_curate.py)."""
    from .curate import span_corruption

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = span_corruption(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_hard_examples(sf_dir: str) -> pd.DataFrame:
    """Active-learning hard-example mining: train the LR quality
    classifier on the doc_id%5!=0 split, then surface the 20 held-out
    docs the model is MOST wrong about (largest |label - prob|; ties
    by doc_id) — the error-analysis / annotation-queue shape. Rows-only
    (iterative training); probabilities ride the same broadcast
    lr_score stage, ranking via per-block top-k."""
    from .textstats import lr_features, lr_score, lr_train

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    feat = lr_features(ds)

    def split(b: pd.DataFrame, keep_train: bool) -> pd.DataFrame:
        m = (b["doc_id"] % 5 != 0)
        return b[m if keep_train else ~m]

    train = feat.map_batches(lambda b: split(b, True),
                             batch_format="pandas")
    test = feat.map_batches(lambda b: split(b, False),
                            batch_format="pandas")
    w = lr_train(train)
    scored = lr_score(test, w)

    def err(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "label": b["label"].astype("int64"),
            "prob": np.round(b["prob"].to_numpy(), 6),
            "abs_err": np.abs(b["label"].to_numpy(dtype="float64")
                              - b["prob"].to_numpy()),
        })
        return out.sort_values(["abs_err", "doc_id"],
                               ascending=[False, True]).head(20)

    parts = scored.map_batches(err, batch_format="pandas",
                               batch_size=65536).to_pandas()
    top = (parts.sort_values(["abs_err", "doc_id"],
                             ascending=[False, True]).head(20)
           .drop(columns=["abs_err"]))
    return top.reset_index(drop=True)


def q_rate_limit(sf_dir: str) -> pd.DataFrame:
    """Per-user hourly rate limit: keep only the FIRST event per
    (user, hour), earliest-first — the ingestion-quota shape
    (windows.rate_limit_events: one key-hash shuffle + vectorized
    in-partition rank mask)."""
    from .windows import rate_limit_events

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    kept = rate_limit_events(ev, limit=1).to_pandas()
    return (pd.DataFrame({
        "event_id": kept["event_id"].astype("int64"),
        "user_id": kept["user_id"].astype("int64"),
        "ts": pd.to_datetime(kept["ts"]),
    }).sort_values("event_id").reset_index(drop=True))


SQL_RATE_LIMIT = """
SELECT event_id, user_id, ts
FROM events
QUALIFY row_number() OVER (
    PARTITION BY user_id, date_trunc('hour', ts)
    ORDER BY ts, event_id) <= 1
ORDER BY event_id
"""


def q_rolling_distinct(sf_dir: str) -> pd.DataFrame:
    """Sliding 3-hour distinct active users per hour bucket
    (windows.rolling_distinct: per-batch (hour, user) pre-dedup,
    replicate each pair to the windows it serves, one window-hash
    shuffle + in-partition dedup — distincts don't sum, so per-hour
    counts can't compose into this)."""
    from .windows import rolling_distinct

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return rolling_distinct(ev, window_hours=3)


SQL_ROLLING_DISTINCT = """
WITH p AS (
  SELECT DISTINCT date_trunc('hour', ts) AS h, user_id FROM events
), r AS (
  SELECT h + d.d * INTERVAL 1 HOUR AS w, user_id
  FROM p, (VALUES (0), (1), (2)) d(d)
)
SELECT w AS hour, count(DISTINCT user_id) AS n_keys
FROM r GROUP BY w ORDER BY w
"""


def q_funnel(sf_dir: str) -> pd.DataFrame:
    """Ordered view -> click -> purchase funnel with a 24h per-step
    window (earliest-completion semantics): users reaching each step
    (windows.funnel_steps — one user-hash shuffle, all-users-at-once
    vectorized chain per partition)."""
    from .windows import funnel_steps

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_steps(ev, ["view", "click", "purchase"],
                        window=pd.Timedelta(hours=24))


SQL_FUNNEL = """
WITH v AS (
  SELECT user_id, min(ts) t FROM events
  WHERE event_type = 'view' GROUP BY user_id
), c AS (
  SELECT e.user_id, min(e.ts) t FROM events e
  JOIN v ON e.user_id = v.user_id
        AND e.ts > v.t AND e.ts <= v.t + INTERVAL 24 HOUR
  WHERE e.event_type = 'click' GROUP BY e.user_id
), p AS (
  SELECT e.user_id, min(e.ts) t FROM events e
  JOIN c ON e.user_id = c.user_id
        AND e.ts > c.t AND e.ts <= c.t + INTERVAL 24 HOUR
  WHERE e.event_type = 'purchase' GROUP BY e.user_id
)
SELECT * FROM (
  SELECT 1::BIGINT AS step_no, 'view' AS step,
         (SELECT count(*) FROM v)::BIGINT AS n_users
  UNION ALL
  SELECT 2, 'click', (SELECT count(*) FROM c)
  UNION ALL
  SELECT 3, 'purchase', (SELECT count(*) FROM p)
) ORDER BY step_no
"""


_CORR_COLS = ["l_discount", "l_extendedprice", "l_quantity", "l_tax"]


def q_label_centroid_sims(sf_dir: str) -> pd.DataFrame:
    """Class-separation diagnostic: pairwise cosine between per-label
    embedding centroids (similarity.label_centroid_sims — one pass of
    label x dim partial sums, labels² driver matrix)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return similarity.label_centroid_sims(ds)


SQL_LABEL_CENTROID_SIMS = """
WITH u AS (
  SELECT label, generate_subscripts(embedding, 1) AS dim,
         unnest(embedding) AS x
  FROM embeddings
), m AS (
  SELECT label, dim, sum(x) / count(*) AS mx
  FROM u GROUP BY label, dim
), c AS (
  SELECT label, list(mx ORDER BY dim) AS cvec FROM m GROUP BY label
)
SELECT a.label AS label_a, b.label AS label_b,
       round(list_cosine_similarity(a.cvec::DOUBLE[], b.cvec::DOUBLE[]), 6)
         AS cos_sim
FROM c a JOIN c b ON a.label < b.label
ORDER BY label_a, label_b
"""


def q_exact_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact p25/p50/p75 of the continuous o_totalprice column by
    distributed quickselect (relational.exact_quantile: per-round
    histogram partials narrow the range ~2048-fold, final in-range
    collect + select). Selection returns an actual data element, so
    the quantile_disc oracle compares BIT-exact — no rounding."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])
    return relational.exact_quantile(ds, "o_totalprice",
                                     qs=(0.25, 0.5, 0.75))


SQL_EXACT_QUANTILES = """
SELECT * FROM (
  SELECT 0.25 AS q, quantile_disc(o_totalprice, 0.25) AS value FROM orders
  UNION ALL
  SELECT 0.50, quantile_disc(o_totalprice, 0.50) FROM orders
  UNION ALL
  SELECT 0.75, quantile_disc(o_totalprice, 0.75) FROM orders
) ORDER BY q
"""


def q_corr_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise Pearson correlations over lineitem's numeric columns in
    one streaming moments pass (relational.corr_pairs) — the EDA
    companion to profile_table; rounded to 6 decimals (the knn cos_sim
    convention) for the engine-exact compare."""
    ds = _read(sf_dir, "lineitem", _CORR_COLS)
    return relational.corr_pairs(ds, _CORR_COLS)


SQL_CORR_MATRIX = "\nUNION ALL\n".join(
    f"""SELECT '{a}' AS col_a, '{b}' AS col_b,
       round(corr({a}, {b}), 6) AS corr
FROM lineitem"""
    for i, a in enumerate(_CORR_COLS)
    for b in _CORR_COLS[i + 1:]) + "\nORDER BY col_a, col_b"


def q_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention curve: users active exactly k days after their
    own first active day, k = 0..6 (windows.retention_days — (user,
    day) pairs pre-deduped per batch before the one user-hash
    shuffle)."""
    from .windows import retention_days

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return retention_days(ev, max_offset=6)


SQL_RETENTION = """
WITH f AS (
  SELECT user_id, min(date_trunc('day', ts)) AS d0
  FROM events GROUP BY user_id
), a AS (
  SELECT DISTINCT e.user_id,
         date_diff('day', f.d0, date_trunc('day', e.ts)) AS day_offset
  FROM events e JOIN f USING (user_id)
), g AS (
  SELECT day_offset, count(*) AS n_users
  FROM a WHERE day_offset <= 6 GROUP BY day_offset
)
-- zero-pad: the engine reports every offset 0..6 even when no user
-- was retained that day
SELECT r.range::BIGINT AS day_offset, coalesce(g.n_users, 0) AS n_users
FROM range(0, 7) r LEFT JOIN g ON g.day_offset = r.range
ORDER BY day_offset
"""


_BOOT_B = 64
# Poisson(1) CDF F(0..8); weight = first k with u < F(k), else 9. Both
# engines compare against THESE doubles (the SQL twin is generated from
# this array), so the inverse-CDF draw is bit-identical.
_BOOT_CDF = np.cumsum(
    [float(np.exp(-1.0)) / float(__import__("math").factorial(k))
     for k in range(9)])


_DP_EPS = 0.5
_DP_TRUNC = 12
# two-sided geometric (discrete Laplace) CDF over k = -12..12, the
# integer-noise mechanism of Ghosh et al. (2009); generated once here,
# and the SQL twin's CASE chain is generated from the SAME doubles
_DP_CDF = (lambda a: np.cumsum(
    [(1 - a) / (1 + a) * a ** abs(k)
     for k in range(-_DP_TRUNC, _DP_TRUNC + 1)]
) / np.sum([(1 - a) / (1 + a) * a ** abs(k)
            for k in range(-_DP_TRUNC, _DP_TRUNC + 1)]))(
    float(np.exp(-_DP_EPS)))


def q_dp_counts(sf_dir: str) -> pd.DataFrame:
    """Differentially-private per-event-type counts via the GEOMETRIC
    MECHANISM (Ghosh-Roughgarden-Sundararajan 2009 — the discrete
    Laplace used for integer counts, eps=0.5, noise truncated at
    +-12): exact counts from a keyed combine, then each type draws
    integer noise by inverse-CDF from u = Knuth32(rank)/2^32, where
    rank is the type's position in sorted order. All comparisons are
    against the shared _DP_CDF doubles (the SQL twin is generated from
    them), so the draw is engine-exact — no transcendental functions
    cross the twin boundary. Deterministic 'noise' is for the oracle
    harness; a production run seeds from a secret."""
    from ..functions import hashing

    ev = _read(sf_dir, "events", ["event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        t = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "tk": pd.Series(hashing.hash_strings(t).view(np.int64),
                            dtype="int64"),
            "event_type": t,
            "n": np.ones(len(b), dtype=np.int64)})

    counts = keyed_combine(ev.map_batches(prep, batch_format="pandas"),
                           ["tk", "event_type"], ["n"], "sum").to_pandas()
    counts = counts.sort_values("event_type").reset_index(drop=True)
    rank = np.arange(1, len(counts) + 1, dtype=np.int64)
    u = ((rank * 2654435761) % 4294967296) / 4294967296.0
    noise = (np.searchsorted(_DP_CDF, u, side="right").astype(np.int64)
             - _DP_TRUNC)
    return pd.DataFrame({
        "event_type": counts["event_type"],
        "n": counts["n"].astype("int64"),
        "n_dp": counts["n"].astype("int64") + noise,
        "noise": noise})


def _dp_case_sql() -> str:
    u = "((rank * 2654435761) % 4294967296) / 4294967296.0"
    branches = "".join(
        f" WHEN {u} < {float(thr)!r} THEN {k - _DP_TRUNC}"
        for k, thr in enumerate(_DP_CDF))
    return f"CASE{branches} ELSE {_DP_TRUNC} END"


SQL_DP_COUNTS = None  # assigned below (generated from _DP_CDF)


def _make_sql_dp_counts() -> str:
    return f"""
WITH c AS (
  SELECT event_type, count(*) AS n FROM events GROUP BY event_type
), r AS (
  SELECT event_type, n,
         row_number() OVER (ORDER BY event_type) AS rank
  FROM c
)
SELECT event_type, n, n + ({_dp_case_sql()}) AS n_dp,
       ({_dp_case_sql()}) AS noise
FROM r ORDER BY event_type
"""


SQL_DP_COUNTS = _make_sql_dp_counts()


def q_bootstrap_ci(sf_dir: str) -> pd.DataFrame:
    """Per-event-type mean of value (integer cents) with a 95%
    confidence interval by the POISSON BOOTSTRAP (Chamandy et al.,
    Google 2012 — the resampling scheme that distributes: each row
    draws an independent Poisson(1) weight per replicate from a hash
    of (event_id, replicate), so no replicate needs a global sample).
    B=64 replicates; replicate b=-1 pins weight 1 (the point
    estimate). One scan emits per-(replicate, type) integer partials
    (sum w, sum w*cents) through a keyed combine; the driver sees
    types x 65 rows and applies the quantile_disc rule at 2.5%/97.5%.

    Exactness: u = Knuth32(event_id*64+b)/2^32, weights from the
    shared _BOOT_CDF doubles, partials are int64, replicate means are
    single double divisions — the DuckDB twin (generated from the same
    constants) matches value-for-value."""
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    bcol = np.arange(-1, _BOOT_B, dtype=np.int64)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        eid = b["event_id"].to_numpy(np.int64)
        cents = np.floor(b["value"].to_numpy(np.float64) * 100
                         ).astype(np.int64)
        x = eid[:, None] * _BOOT_B + bcol[None, :]
        u = ((x * 2654435761) % 4294967296) / 4294967296.0
        w = np.searchsorted(_BOOT_CDF, u.ravel(),
                            side="right").reshape(u.shape).astype(np.int64)
        w[:, 0] = 1  # b = -1: the unweighted point estimate
        n = eid.shape[0]
        long = pd.DataFrame({
            "b": np.tile(bcol, n),
            "event_type": np.repeat(
                b["event_type"].to_numpy(object), _BOOT_B + 1),
            "sw": w.ravel(),
            "swc": (w * cents[:, None]).ravel()})
        return long.groupby(["b", "event_type"], as_index=False).sum()

    parts = keyed_combine(
        ev.map_batches(partial, batch_format="pandas"),
        ["b", "event_type"], ["sw", "swc"], "sum").to_pandas()
    parts = parts[parts["sw"] > 0]
    parts["m"] = parts["swc"].astype("float64") / parts["sw"].astype(
        "float64")

    import math

    rows = []
    for et, g in parts.groupby("event_type", sort=True):
        point = float(g.loc[g["b"] == -1, "m"].iloc[0])
        reps = np.sort(g.loc[g["b"] >= 0, "m"].to_numpy(np.float64))
        n = reps.shape[0]
        lo = reps[max(math.ceil(0.025 * n) - 1, 0)]
        hi = reps[max(math.ceil(0.975 * n) - 1, 0)]
        rows.append((et, round(point, 6), round(float(lo), 6),
                     round(float(hi), 6), n))
    return pd.DataFrame(rows, columns=["event_type", "mean_cents",
                                       "ci_lo", "ci_hi", "n_reps"])


def _boot_case_sql() -> str:
    u = ("((e.event_id * 64 + r.b) * 2654435761 % 4294967296)"
         " / 4294967296.0")
    branches = "".join(
        f" WHEN {u} < {float(thr)!r} THEN {k}"
        for k, thr in enumerate(_BOOT_CDF))
    return f"CASE WHEN r.b = -1 THEN 1 ELSE (CASE{branches} ELSE 9 END) END"


SQL_BOOTSTRAP_CI = f"""
WITH ev AS (
  SELECT event_id, event_type, floor(value * 100)::BIGINT AS cents
  FROM events
), w AS (
  SELECT e.event_type, r.b, e.cents, {_boot_case_sql()} AS w
  FROM ev e, (SELECT unnest(range(-1, 64)) AS b) r
), agg AS (
  SELECT event_type, b, sum(w) AS sw, sum(w * cents) AS swc
  FROM w GROUP BY 1, 2
), means AS (
  SELECT event_type, b, swc::DOUBLE / sw AS m FROM agg WHERE sw > 0
)
SELECT event_type,
       round(max(CASE WHEN b = -1 THEN m END), 6) AS mean_cents,
       round(quantile_disc(m, 0.025) FILTER (WHERE b >= 0), 6) AS ci_lo,
       round(quantile_disc(m, 0.975) FILTER (WHERE b >= 0), 6) AS ci_hi,
       count(*) FILTER (WHERE b >= 0) AS n_reps
FROM means GROUP BY event_type ORDER BY event_type
"""


def q_ab_cuped(sf_dir: str) -> pd.DataFrame:
    """A/B experiment readout with CUPED variance reduction (Deng et
    al., WSDM 2013): variant = user_id % 2, pre-period covariate X =
    events before 2024-01-16 per user, outcome Y = post-period value
    in integer cents; theta = cov(X,Y)/var(X) over all users, adjusted
    mean = mean(Y) - theta * (mean(X) - global mean(X)) per variant.

    Scale shape: ONE user-keyed combine builds the per-user (x, y)
    table, then a single map emits per-variant integer moment partials
    (n, sx, sy, sxy, sx2) — 2 rows per block to the driver, where
    theta and the adjusted means are closed-form. Every moment is an
    exact int64 (counts x cents), so theta and the rounded means are
    bit-identical to the DuckDB twin's double arithmetic."""
    ev = _read(sf_dir, "events", ["ts", "user_id", "value"])
    cut = np.datetime64("2024-01-16T00:00:00")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        pre = (pd.to_datetime(b["ts"]).to_numpy() < cut)
        cents = np.floor(b["value"].to_numpy(np.float64) * 100
                         ).astype("int64")
        return pd.DataFrame({
            "user_id": b["user_id"].astype("int64"),
            "x": pre.astype("int64"),
            "y": np.where(pre, np.int64(0), cents)})

    per_user = keyed_combine(
        ev.map_batches(prep, batch_format="pandas"),
        "user_id", ["x", "y"], "sum")

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        v = b["user_id"].to_numpy(np.int64) % 2
        x = b["x"].to_numpy(np.int64)
        y = b["y"].to_numpy(np.int64)
        rows = []
        for var in (0, 1):
            m = v == var
            rows.append((var, int(m.sum()), int(x[m].sum()),
                         int(y[m].sum()), int((x[m] * y[m]).sum()),
                         int((x[m] * x[m]).sum())))
        return pd.DataFrame(rows, columns=["variant", "n", "sx", "sy",
                                           "sxy", "sx2"])

    parts = per_user.map_batches(moments, batch_format="pandas").to_pandas()
    g = parts.groupby("variant", as_index=False).sum()
    n = int(g["n"].sum())
    sx, sy = int(g["sx"].sum()), int(g["sy"].sum())
    sxy, sx2 = int(g["sxy"].sum()), int(g["sx2"].sum())
    den = n * sx2 - sx * sx
    theta = float(n * sxy - sx * sy) / float(den) if den else 0.0
    mean_x = float(sx) / float(n)
    out = []
    for _, r in g.sort_values("variant").iterrows():
        nv = int(r["n"])
        mean_y = float(int(r["sy"])) / float(nv)
        mean_x_v = float(int(r["sx"])) / float(nv)
        out.append((int(r["variant"]), nv, round(mean_y, 6),
                    round(mean_y - theta * (mean_x_v - mean_x), 6),
                    round(theta, 6)))
    return pd.DataFrame(out, columns=["variant", "n_users", "mean_y",
                                      "mean_y_cuped", "theta"])


SQL_AB_CUPED = r"""
WITH u AS (
  SELECT user_id,
         count(*) FILTER (WHERE ts < TIMESTAMP '2024-01-16') AS x,
         coalesce(sum(floor(value * 100)::BIGINT)
                  FILTER (WHERE ts >= TIMESTAMP '2024-01-16'), 0) AS y
  FROM events GROUP BY user_id
), m AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * y) AS sxy, sum(x * x) AS sx2 FROM u
), th AS (
  SELECT n, sx,
         CASE WHEN n * sx2 - sx * sx = 0 THEN 0.0
              ELSE (n * sxy - sx * sy)::DOUBLE
                   / (n * sx2 - sx * sx)::DOUBLE END AS theta
  FROM m
), v AS (
  SELECT user_id % 2 AS variant, count(*) AS n_users,
         sum(y) AS sy_v, sum(x) AS sx_v
  FROM u GROUP BY 1
)
SELECT v.variant, v.n_users,
       round(v.sy_v::DOUBLE / v.n_users, 6) AS mean_y,
       round(v.sy_v::DOUBLE / v.n_users
             - th.theta * (v.sx_v::DOUBLE / v.n_users
                           - th.sx::DOUBLE / th.n), 6) AS mean_y_cuped,
       round(th.theta, 6) AS theta
FROM v, th ORDER BY v.variant
"""


def q_conformal_bounds(sf_dir: str) -> pd.DataFrame:
    """Split-conformal prediction intervals per event type (the
    distribution-free uncertainty wrapper): calibration split =
    event_id %% 2 == 0 fits the per-type mean (integer cents) and the
    90th-percentile absolute residual (quantile_disc rule over the
    calibration residuals); the interval [mean - qhat, mean + qhat]
    is then scored on the OTHER split for empirical coverage
    (permille). Two grouped combines + one grouped quantile — all
    integer-exact, so the twin hashes."""
    from ..functions import hashing
    from .relational import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        t = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "tk": pd.Series(hashing.hash_strings(t).view(np.int64),
                            dtype="int64"),
            "event_type": t,
            "cal": (b["event_id"].to_numpy(np.int64) % 2 == 0),
            "cents": np.floor(b["value"].to_numpy(np.float64) * 100
                              ).astype("int64")})

    base = ev.map_batches(prep, batch_format="pandas").materialize()

    cal_mean = keyed_combine(
        base.map_batches(
            lambda b: b[b["cal"]].assign(n=np.int64(1))[
                ["tk", "event_type", "n", "cents"]],
            batch_format="pandas"),
        ["tk", "event_type"], ["n", "cents"], "sum").to_pandas()
    cal_mean["mean_cents"] = (cal_mean["cents"]
                              // cal_mean["n"]).astype("int64")
    mean_map = dict(zip(cal_mean["event_type"], cal_mean["mean_cents"]))

    import ray

    mref = ray.put(mean_map)

    def resid(b: pd.DataFrame) -> pd.DataFrame:
        mm = ray.get(mref)
        b = b[b["cal"]]
        b = b[b["event_type"].isin(mm)]  # inner-join semantics
        mu = np.array([mm[t] for t in b["event_type"]], dtype=np.int64)
        return pd.DataFrame({
            "event_type": b["event_type"].to_numpy(object),
            "absr": np.abs(b["cents"].to_numpy(np.int64) - mu)})

    qhat = grouped_quantiles(base.map_batches(resid,
                                              batch_format="pandas"),
                             "event_type", "absr", qs=(0.9,))
    qmap = dict(zip(qhat["event_type"], qhat["value"].astype("int64")))
    qref = ray.put(qmap)

    def cover(b: pd.DataFrame) -> pd.DataFrame:
        mm, qm = ray.get(mref), ray.get(qref)
        b = b[~b["cal"]]
        # inner-join semantics: a type absent from the calibration
        # split (or its quantile table) is dropped, as in the twin
        b = b[b["event_type"].isin(mm) & b["event_type"].isin(qm)]
        mu = np.array([mm[t] for t in b["event_type"]], dtype=np.int64)
        qh = np.array([qm[t] for t in b["event_type"]], dtype=np.int64)
        inside = (np.abs(b["cents"].to_numpy(np.int64) - mu)
                  <= qh).astype(np.int64)
        t = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "tk": pd.Series(hashing.hash_strings(t).view(np.int64),
                            dtype="int64"),
            "event_type": t,
            "n_test": np.ones(len(b), dtype=np.int64),
            "n_inside": inside})

    cov = keyed_combine(base.map_batches(cover, batch_format="pandas"),
                        ["tk", "event_type"], ["n_test", "n_inside"],
                        "sum").to_pandas()
    out = cov.merge(cal_mean[["event_type", "mean_cents"]],
                    on="event_type")
    out["qhat_cents"] = out["event_type"].map(qmap).astype("int64")
    out["lo_cents"] = out["mean_cents"] - out["qhat_cents"]
    out["hi_cents"] = out["mean_cents"] + out["qhat_cents"]
    out["coverage_permille"] = (1000 * out["n_inside"]
                                // out["n_test"]).astype("int64")
    out = out[["event_type", "mean_cents", "qhat_cents", "lo_cents",
               "hi_cents", "n_test", "coverage_permille"]]
    return (out.astype({c: "int64" for c in out.columns
                        if c != "event_type"})
            .sort_values("event_type").reset_index(drop=True))


SQL_CONFORMAL_BOUNDS = """
WITH ev AS (
  SELECT event_type, event_id % 2 = 0 AS cal,
         floor(value * 100)::BIGINT AS cents
  FROM events
), mu AS (
  SELECT event_type, (sum(cents) // count(*))::BIGINT AS mean_cents
  FROM ev WHERE cal GROUP BY event_type
), qh AS (
  SELECT e.event_type,
         quantile_disc(abs(e.cents - m.mean_cents), 0.9)::BIGINT
           AS qhat_cents
  FROM ev e JOIN mu m USING (event_type)
  WHERE e.cal GROUP BY e.event_type
), test AS (
  SELECT e.event_type, count(*) AS n_test,
         sum((abs(e.cents - m.mean_cents) <= q.qhat_cents)::INT)
           AS n_inside
  FROM ev e JOIN mu m USING (event_type) JOIN qh q USING (event_type)
  WHERE NOT e.cal GROUP BY e.event_type
)
SELECT t.event_type, m.mean_cents, q.qhat_cents,
       m.mean_cents - q.qhat_cents AS lo_cents,
       m.mean_cents + q.qhat_cents AS hi_cents,
       t.n_test,
       (1000 * t.n_inside // t.n_test)::BIGINT AS coverage_permille
FROM test t JOIN mu m USING (event_type) JOIN qh q USING (event_type)
ORDER BY t.event_type
"""


def q_winsorize_stats(sf_dir: str) -> pd.DataFrame:
    """Per-type winsorized value stats: clip each event's value (in
    exact integer cents) to its type's [p05, p95] discrete quantiles,
    report the clipped sum — the robust-aggregation shape (outliers
    bounded, never dropped). One keyed quantile shuffle
    (relational.grouped_quantiles, quantile_disc rule) produces the
    bounds; they broadcast into a per-batch clip + partial sum — the
    raw values shuffle once, not twice."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.floor(pc.multiply(
                t.column("value"), pa.scalar(100.0))), pa.int64()),
        })

    ce = ev.map_batches(cents, batch_format="pyarrow", batch_size=65536)
    qs = relational.grouped_quantiles(ce, "event_type", "cents",
                                      qs=(0.05, 0.95))
    wide = qs.pivot(index="event_type", columns="q", values="value")
    lo = {k: np.int64(v) for k, v in wide[0.05].items()}
    hi = {k: np.int64(v) for k, v in wide[0.95].items()}
    import ray as _ray

    bref = _ray.put((lo, hi))

    def clip(b: pd.DataFrame) -> pd.DataFrame:
        lo_, hi_ = _ray.get(bref)
        v = b["cents"].to_numpy(np.int64)
        l_ = b["event_type"].map(lo_).to_numpy(np.int64)
        h_ = b["event_type"].map(hi_).to_numpy(np.int64)
        return pd.DataFrame({
            "event_type": b["event_type"],
            "w": np.minimum(np.maximum(v, l_), h_),
        })

    g = grouped_agg(ce.map_batches(clip, batch_format="pandas",
                                   batch_size=65536),
                    ["event_type"], sums=["w"])
    out = pd.DataFrame({
        "event_type": g.event_type,
        "n": g.n.astype("int64"),
        "wsum_cents": g.sum_w.astype("int64"),
    })
    out["lo_cents"] = out["event_type"].map(lo).astype("int64")
    out["hi_cents"] = out["event_type"].map(hi).astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WINSORIZE_STATS = """
WITH c AS (
  SELECT event_type, floor(value * 100)::BIGINT AS cents FROM events
), b AS (
  SELECT event_type,
         quantile_disc(cents, 0.05) AS lo,
         quantile_disc(cents, 0.95) AS hi
  FROM c GROUP BY event_type
)
SELECT c.event_type,
       count(*) AS n,
       sum(least(greatest(c.cents, b.lo), b.hi))::BIGINT AS wsum_cents,
       b.lo AS lo_cents, b.hi AS hi_cents
FROM c JOIN b USING (event_type)
GROUP BY c.event_type, b.lo, b.hi
ORDER BY c.event_type
"""


_PROFILE_COLS = ["l_linestatus", "l_orderkey", "l_partkey",
                 "l_returnflag", "l_suppkey"]


def q_encoding_advisor(sf_dir: str) -> pd.DataFrame:
    """Columnar ENCODING ADVISOR (the lakehouse layout question "which
    lightweight encoding fits each column"): for each int64 column of
    events, exact stats in event_id order — distinct count, RLE run
    count, max adjacent delta — and the implied bits/value for
    dictionary (ceil log2 distinct), delta (bit length of max delta),
    and RLE. Order-aware stats distribute as per-block partials over
    the event_id sort plus driver-side BOUNDARY STITCHING: each block
    reports (first/last value, runs within, max delta within), the
    driver sorts the block summaries and folds the cross-boundary
    run/delta terms — block-count rows, never the column."""
    cols = ["event_id", "user_id"]
    ev = _read(sf_dir, "events", ["event_id", "user_id"])
    s = ev.sort("event_id").materialize()

    def part(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame()
        row = {"k": [np.int64(b["event_id"].iloc[0])]}
        for c in cols:
            v = b[c].to_numpy(np.int64)
            d = np.abs(np.diff(v))
            row[f"first_{c}"] = [np.int64(v[0])]
            row[f"last_{c}"] = [np.int64(v[-1])]
            row[f"runs_{c}"] = [np.int64(1 + int((np.diff(v) != 0).sum()))]
            row[f"maxd_{c}"] = [np.int64(d.max()) if d.shape[0] else
                                np.int64(0)]
        row["n"] = [np.int64(len(b))]
        return pd.DataFrame(row)

    sums = (s.map_batches(part, batch_format="pandas", batch_size=None)
            .to_pandas().sort_values("k").reset_index(drop=True))


    def distinct_count(c: str) -> int:
        def kv(b: pd.DataFrame) -> pd.DataFrame:
            u = np.unique(b[c].to_numpy(np.int64))
            return pd.DataFrame({"k": pd.Series(u, dtype="int64"),
                                 "one": np.ones(u.shape[0],
                                                dtype=np.int64)})

        return int(keyed_combine(
            ev.map_batches(kv, batch_format="pandas"),
            "k", ["one"], "sum").count())
    rows = []
    n_total = int(sums["n"].sum())
    for c in cols:
        runs = int(sums[f"runs_{c}"].sum())
        maxd = int(sums[f"maxd_{c}"].max())
        # cross-boundary terms between consecutive blocks
        for i in range(1, len(sums)):
            prev_last = int(sums[f"last_{c}"].iloc[i - 1])
            cur_first = int(sums[f"first_{c}"].iloc[i])
            if prev_last == cur_first:
                runs -= 1  # the run continues across the boundary
            maxd = max(maxd, abs(cur_first - prev_last))
        n_distinct = distinct_count(c)
        dict_bits = max(1, int(n_distinct - 1).bit_length())
        delta_bits = max(1, int(maxd).bit_length())
        rows.append((c, n_total, n_distinct, runs, maxd,
                     dict_bits, delta_bits))
    return pd.DataFrame(rows, columns=[
        "column", "n", "n_distinct", "n_runs", "max_delta",
        "dict_bits", "delta_bits"])


SQL_ENCODING_ADVISOR = """
WITH s AS (
  SELECT event_id, user_id,
         lag(event_id) OVER w AS pe, lag(user_id) OVER w AS pu
  FROM events WINDOW w AS (ORDER BY event_id)
), stats AS (
  SELECT 'event_id' AS col, count(*) AS n,
         count(DISTINCT event_id) AS n_distinct,
         1 + count(*) FILTER (WHERE pe IS NOT NULL
                              AND event_id <> pe) AS n_runs,
         max(abs(event_id - pe)) AS max_delta
  FROM s
  UNION ALL
  SELECT 'user_id', count(*), count(DISTINCT user_id),
         1 + count(*) FILTER (WHERE pu IS NOT NULL AND user_id <> pu),
         max(abs(user_id - pu))
  FROM s
)
SELECT col AS "column", n, n_distinct, n_runs, max_delta,
       CASE WHEN n_distinct <= 1 THEN 1
            ELSE floor(log2((n_distinct - 1)::DOUBLE))::BIGINT + 1
       END AS dict_bits,
       CASE WHEN max_delta <= 0 THEN 1
            ELSE floor(log2(max_delta::DOUBLE))::BIGINT + 1
       END AS delta_bits
FROM stats ORDER BY col
"""


def q_dataset_card(sf_dir: str) -> pd.DataFrame:
    """DATASET CARD summary (the documentation artifact a published
    corpus ships with): one narrow (metric, value) table spanning the
    corpus — document counts/emptiness/word mass/exact-distinct
    texts, event volume/user+type cardinality, order volume/revenue.
    Every metric is an integer from per-block partials or a
    hash-distinct combine (the exact-dedup shuffle shape); nothing
    corpus-scale reaches the driver. Fully oracle-checked."""
    from ..functions import hashing

    rows: list[tuple[str, int]] = []

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def doc_part(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        return pd.DataFrame({
            "n": [np.int64(len(b))],
            "n_empty": [np.int64((t.str.strip() == "").sum())],
            "words": [np.int64(t.str.count(r"\S+").sum())]})

    dp = docs.map_batches(doc_part, batch_format="pandas",
                          batch_size=65536).to_pandas().sum()
    rows += [("docs_total", int(dp["n"])),
             ("docs_empty", int(dp["n_empty"])),
             ("docs_total_words", int(dp["words"]))]

    def text_hash(b: pd.DataFrame) -> pd.DataFrame:
        h = hashing.hash_strings(
            b["text"].fillna("").to_numpy(object)).view(np.int64)
        return pd.DataFrame({"th": pd.Series(h, dtype="int64"),
                             "one": np.ones(len(b), dtype=np.int64)})

    distinct_texts = int(keyed_combine(
        docs.map_batches(text_hash, batch_format="pandas"),
        "th", ["one"], "sum").count())
    rows.append(("docs_distinct_texts", distinct_texts))

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def ev_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [np.int64(len(b))]})

    rows.append(("events_total", int(ev.map_batches(
        ev_part, batch_format="pandas",
        batch_size=65536).to_pandas()["n"].sum())))

    def uid(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": b["user_id"].astype("int64"),
            "one": np.ones(len(b), dtype=np.int64)})

    rows.append(("events_distinct_users", int(keyed_combine(
        ev.map_batches(uid, batch_format="pandas"),
        "k", ["one"], "sum").count())))

    def tid(b: pd.DataFrame) -> pd.DataFrame:
        t = b["event_type"].to_numpy(object)
        return pd.DataFrame({
            "k": pd.Series(hashing.hash_strings(t).view(np.int64),
                           dtype="int64"),
            "one": np.ones(len(b), dtype=np.int64)})

    rows.append(("events_distinct_types", int(keyed_combine(
        ev.map_batches(tid, batch_format="pandas"),
        "k", ["one"], "sum").count())))

    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def ord_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n": [np.int64(len(b))],
            "cents": [np.int64(np.floor(
                b["o_totalprice"].to_numpy(np.float64) * 100).sum())]})

    op = orders.map_batches(ord_part, batch_format="pandas",
                            batch_size=65536).to_pandas().sum()
    rows += [("orders_total", int(op["n"])),
             ("orders_revenue_cents", int(op["cents"]))]
    out = pd.DataFrame(rows, columns=["metric", "value"])
    return (out.astype({"value": "int64"})
            .sort_values("metric").reset_index(drop=True))


SQL_DATASET_CARD = r"""
SELECT metric, value::BIGINT AS value FROM (
  SELECT 'docs_total' AS metric, count(*)::BIGINT AS value
  FROM documents
  UNION ALL
  SELECT 'docs_empty',
         count(*) FILTER (WHERE trim(coalesce(text, '')) = '')
  FROM documents
  UNION ALL
  SELECT 'docs_total_words',
         coalesce(sum(len(regexp_extract_all(coalesce(text, ''),
                                             '\S+'))), 0)
  FROM documents
  UNION ALL
  SELECT 'docs_distinct_texts',
         count(DISTINCT coalesce(text, '')) FROM documents
  UNION ALL
  SELECT 'events_total', count(*) FROM events
  UNION ALL
  SELECT 'events_distinct_users', count(DISTINCT user_id) FROM events
  UNION ALL
  SELECT 'events_distinct_types', count(DISTINCT event_type)
  FROM events
  UNION ALL
  SELECT 'orders_total', count(*) FROM orders
  UNION ALL
  SELECT 'orders_revenue_cents',
         sum(floor(o_totalprice * 100)::BIGINT)::BIGINT FROM orders
) ORDER BY metric
"""


def q_profile_table(sf_dir: str) -> pd.DataFrame:
    """Column-level data profiling of lineitem (ingest quality gate):
    per column — rows, nulls, EXACT distinct count (one value-hash
    shuffle of per-batch-distinct values), lexicographic min/max of
    the string form (relational.profile_table). String/int columns
    only so the VARCHAR casts are engine-exact."""
    ds = _read(sf_dir, "lineitem", _PROFILE_COLS)
    out = relational.profile_table(ds, _PROFILE_COLS)
    return out.rename(columns={"column": "col_name"})


SQL_PROFILE_TABLE = "\nUNION ALL\n".join(
    f"""SELECT '{c}' AS col_name, count(*) AS n,
       sum(({c} IS NULL)::INT)::BIGINT AS n_null,
       count(DISTINCT {c})::BIGINT AS n_distinct,
       min({c}::VARCHAR) AS min_s, max({c}::VARCHAR) AS max_s
FROM lineitem""" for c in _PROFILE_COLS) + "\nORDER BY col_name"


def q_lr_quality(sf_dir: str) -> pd.DataFrame:
    """Distributed logistic-regression quality classifier (fastText-
    linear-classifier shape): standardized full-batch GD over a
    materialized narrow feature table (per-step: broadcast weights,
    one (grad, n) partial row per block, stable-order driver reduce),
    evaluated on the held-out doc_id%5==0 split. Rows-only (iterative
    training has no SQL twin); accuracy/determinism/serial-parity are
    pinned in tests/test_nb_classifier.py."""
    from .textstats import lr_quality

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return lr_quality(ds)


def q_boost_quality(sf_dir: str) -> pd.DataFrame:
    """AdaBoost decision-stump quality classifier (Freund-Schapire '97,
    textstats.adaboost_stumps): per-round ONE scan emits per-block
    weighted class histograms over fixed feature bins (row weights
    recomputed from the broadcast stump list — never stored), driver
    picks the min-weighted-error (feature, threshold, polarity) stump
    from cumulative sums; held-out doc_id%5==0 confusion. Rows-only
    (iterative); serial-parity + determinism pinned in
    tests/test_nb_classifier.py."""
    from .textstats import boost_quality

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return boost_quality(ds)


def q_texttiling(sf_dir: str) -> pd.DataFrame:
    """Topic segmentation by TextTiling (textstats.
    texttiling_boundaries — Hearst CL'97): block-cosine valley
    detection with depth scoring, boundaries at local depth maxima.
    Per-doc map, no shuffle. Rows-only; planted two/three-topic
    exactness pinned in tests."""
    from .textstats import texttiling_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = texttiling_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_textrank(sf_dir: str) -> pd.DataFrame:
    """Extractive summarization by TextRank (textstats.
    textrank_sentences — Mihalcea-Tarau 2004): top-2 sentences per
    document by damped power iteration over the sentence-overlap
    graph. Per-doc map, no shuffle. Rows-only (iterative ranking);
    determinism + centrality pinned in tests."""
    from .textstats import textrank_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = textrank_table(ds, k=2).to_pandas()
    return (out.sort_values(["doc_id", "sent_idx"])
            .reset_index(drop=True))


def q_calibration(sf_dir: str) -> pd.DataFrame:
    """Isotonic probability calibration of the quality classifier
    (textstats.isotonic_calibration): held-out probs binned through
    one distributed combine, exact pool-adjacent-violators over the
    bin table. Rows-only; monotonicity / mass preservation /
    quadratic-reference parity pinned in tests/test_nb_classifier.py."""
    from .textstats import isotonic_calibration

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return isotonic_calibration(ds)


def q_nb_langid(sf_dir: str) -> pd.DataFrame:
    """Multinomial Naive Bayes language-ID (fastText-classifier shape):
    add-one-smoothed per-class unigram models trained distributed on
    the doc_id%5!=0 split predict the held-out docs' lang. Scores are
    INTEGER sums of 1e-6-quantized log-likelihoods, so the argmax is
    engine-exact and the oracle compares predictions value-for-value
    (textstats.nb_classifier; ties to the lexicographically smallest
    class)."""
    from .textstats import nb_classifier

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return nb_classifier(ds, label_col="lang", train_mod=5)


SQL_NB_LANGID = r"""
WITH tok AS (
  SELECT doc_id, unnest(list_filter(
           regexp_split_to_array(trim(text), '\s+'),
           x -> x <> '')) AS word
  FROM documents
), train_docs AS (
  SELECT doc_id, lang FROM documents WHERE doc_id % 5 <> 0
), test_docs AS (
  SELECT doc_id, lang FROM documents WHERE doc_id % 5 = 0
), train_tok AS (
  SELECT t.doc_id, d.lang, t.word FROM tok t JOIN train_docs d USING (doc_id)
), counts AS (
  SELECT word, lang, count(*)::BIGINT AS c FROM train_tok GROUP BY word, lang
), cstats AS (
  SELECT c.lang, c.nd, coalesce(n.nt, 0) AS nt
  FROM (SELECT lang, count(*)::BIGINT AS nd FROM train_docs GROUP BY lang) c
  LEFT JOIN (SELECT lang, count(*)::BIGINT AS nt FROM train_tok
             GROUP BY lang) n USING (lang)
), v AS (
  SELECT count(DISTINCT word)::BIGINT AS v FROM train_tok
), nd_tot AS (SELECT sum(nd)::BIGINT AS tot FROM cstats),
test_tok AS (
  SELECT t.doc_id, t.word FROM tok t JOIN test_docs USING (doc_id)
), contrib AS (
  -- one row per held-out token occurrence x candidate class:
  -- integer-quantized add-one log-likelihood
  SELECT tt.doc_id, cs.lang,
         floor(1000000 * ln((coalesce(c.c, 0) + 1)::DOUBLE
               / (cs.nt + (SELECT v FROM v))))::BIGINT AS l
  FROM test_tok tt
  CROSS JOIN cstats cs
  LEFT JOIN counts c ON c.word = tt.word AND c.lang = cs.lang
), scores AS (
  SELECT d.doc_id, d.lang, cs.lang AS cand,
         floor(1000000 * ln(cs.nd::DOUBLE
               / (SELECT tot FROM nd_tot)))::BIGINT
           + coalesce(s.sl, 0) AS score
  FROM test_docs d
  CROSS JOIN cstats cs
  LEFT JOIN (SELECT doc_id, lang, sum(l)::BIGINT AS sl
             FROM contrib GROUP BY doc_id, lang) s
    ON s.doc_id = d.doc_id AND s.lang = cs.lang
)
SELECT doc_id, lang, cand AS pred_lang
FROM scores
QUALIFY row_number() OVER (PARTITION BY doc_id
                           ORDER BY score DESC, cand ASC) = 1
ORDER BY doc_id
"""


def q_tier_extract(sf_dir: str) -> pd.DataFrame:
    """Quality-tier corpus extraction (FineWeb-style): per-source
    percent-rank bins docs into 5 quality tiers; each tier keeps a
    deterministic hash-selected fraction (5/15/40/80/100% worst->best).
    One source-keyed shuffle; driver sees the sources x tiers summary
    (pipelines/curate.py tier_extract)."""
    from .curate import tier_extract

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return tier_extract(ds)


SQL_TIER_EXTRACT = """
WITH pr AS (
  SELECT doc_id, source, n_chars,
         percent_rank() OVER (PARTITION BY source ORDER BY n_chars) AS pr
  FROM documents
), t AS (
  SELECT doc_id, source, n_chars,
         least(CAST(floor(pr * 5) AS BIGINT), 4) AS tier
  FROM pr
), k AS (
  SELECT source, tier, n_chars,
         ((doc_id * 2654435761) % 4294967296) % 100 <
           CASE tier WHEN 0 THEN 5 WHEN 1 THEN 15 WHEN 2 THEN 40
                     WHEN 3 THEN 80 ELSE 100 END AS kept
  FROM t
)
SELECT source, tier, count(*)::BIGINT AS n_docs,
       sum(CASE WHEN kept THEN 1 ELSE 0 END)::BIGINT AS n_kept,
       sum(CASE WHEN kept THEN n_chars ELSE 0 END)::BIGINT AS kept_chars
FROM k GROUP BY source, tier ORDER BY source, tier
"""


def q_bigram_logprob(sf_dir: str) -> pd.DataFrame:
    """Per-doc bigram conditional negative log-likelihood (the CCNet-
    style LM perplexity quality filter): -sum ln(c(a,b)/c(a.)) over the
    doc's adjacent-token bigrams, counts taken corpus-wide. Same
    distributed shape as pmi_bigrams/unigram_logprob — one gram-hash
    shuffle, a gram-vocab-scale ctx rekey, two large x large
    bucket_joins, one doc-keyed reduce; no vocab on the driver."""
    from .textstats import bigram_logprob

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_logprob(ds)


SQL_BIGRAM_LOGPROB = r"""
WITH toks AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS ws
  FROM documents
), idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 1)) AS i FROM toks
), bi AS (
  SELECT doc_id, ws[i] AS a, ws[i + 1] AS b FROM idx
), cnt AS (SELECT a, b, count(*)::DOUBLE AS cab FROM bi GROUP BY a, b),
ctx AS (SELECT a, count(*)::DOUBLE AS ca FROM bi GROUP BY a)
SELECT doc_id, count(*)::BIGINT AS n_bigrams,
       round(sum(-ln(cnt.cab / ctx.ca)), 6) AS logprob
FROM bi JOIN cnt USING (a, b) JOIN ctx USING (a)
GROUP BY doc_id ORDER BY doc_id
"""


def q_uw3_cer(sf_dir: str) -> pd.DataFrame:
    """Recognizer conformance on the reference's REAL uw3-500 scan
    corpus (reference run-rtrain:5-6): run the HELD-OUT split (never
    trained on; deterministic hash split) through the production
    task-pool recognizer with the uw3-trained model and report
    per-line edit distance. Rows-only oracle — the CER gate itself is
    pinned in tests/test_uw3.py. ``sf_dir`` is unused: the input is the
    reference's own fixture tarball."""
    import ray.data as rd

    from ..functions import png as _png
    from ..functions.edist import levenshtein
    from ..functions.text import normalize_text
    from ..sources.uw3 import load_uw3_cached, split_uw3
    from ..stages.recognize import LineRecognizerTask

    model = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "models", "uw3_model.npz")
    _, test = split_uw3(load_uw3_cached())
    tbl = pa.table({
        "line_id": pa.array([r["line_id"] for r in test], pa.string()),
        "gt_text": pa.array([normalize_text(r["text"]) for r in test],
                            pa.string()),
        "line_png": pa.array([_png.encode_gray(r["image"]) for r in test],
                             pa.binary()),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    rec = ds.map_batches(LineRecognizerTask(model_path=model),
                         batch_size=32, batch_format="pyarrow")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dist = [levenshtein(p, g) for p, g in zip(b["text"], b["gt_text"])]
        return pd.DataFrame({
            "line_id": b["line_id"],
            "gt_len": b["gt_text"].str.len().astype("int64"),
            "dist": pd.Series(dist, dtype="int64"),
            "rec_status": b["rec_status"],
        })

    out = rec.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("line_id").reset_index(drop=True)


def q_full_charset_cer(sf_dir: str) -> pd.DataFrame:
    """Recognizer conformance over the reference's FULL default charset
    (chars.py:7-22: accents + umlauts/ß + symbols + ligature glyphs):
    held-out synthetic lines from the shared charsetgen corpus (a
    seed range disjoint from training AND from the trainer's
    checkpoint-selection eval) through the production task-pool
    recognizer with the full-charset model. Ground truth follows the
    reference's normalization (ligature glyph ﬁ -> 'fi' etc.), so a
    correct transcription proves the wide-codec round trip. Rows-only
    oracle — the CER gate is pinned in tests/test_charset_model.py.
    ``sf_dir`` unused: the input is the deterministic synthetic corpus."""
    import ray.data as rd

    from ..functions import png as _png
    from ..functions.edist import levenshtein
    from ..sources.charsetgen import QUERY_SEED_BASE, gen_lines
    from ..stages.recognize import LineRecognizerTask

    model = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "models", "full_charset_model.npz")
    # disjoint from BOTH the training stream and the trainer's
    # checkpoint-selection eval stream (code-review finding r4)
    lines = gen_lines(120, QUERY_SEED_BASE + 5)
    tbl = pa.table({
        "line_id": pa.array([f"cs-{i}" for i in range(len(lines))],
                            pa.string()),
        "gt_text": pa.array([gt for _, gt in lines], pa.string()),
        "line_png": pa.array([_png.encode_gray(img) for img, _ in lines],
                             pa.binary()),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    rec = ds.map_batches(LineRecognizerTask(model_path=model),
                         batch_size=32, batch_format="pyarrow")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dist = [levenshtein(p, g) for p, g in zip(b["text"], b["gt_text"])]
        return pd.DataFrame({
            "line_id": b["line_id"],
            "gt_len": b["gt_text"].str.len().astype("int64"),
            "dist": pd.Series(dist, dtype="int64"),
            "rec_status": b["rec_status"],
        })

    out = rec.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("line_id").reset_index(drop=True)


def q_ttf_linegen(sf_dir: str) -> pd.DataFrame:
    """Distributed TTF training-line synthesis (reference
    ocropus-linegen rebuilt on the from-scratch rasterizer +
    degradations, sources/linegen.py): render a degraded DejaVu line per
    document text, deterministic per (text, doc_id). Rows-only oracle —
    rendering is not SQL — but the per-line stats (shape, ink mass) are
    bit-stable across runs/workers by construction."""
    from ..sources import linegen

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def render(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"].astype("int64") < 200]
        rows = []
        for did, txt in zip(keep["doc_id"].astype("int64"),
                            keep["text"].fillna("")):
            t = txt[:24].strip()
            if not t:
                continue
            try:
                img = linegen.genline(t, int(did), degradations="med")
            except KeyError:
                # char outside the font's BMP cmap -> skip the line,
                # same contract as the blank/sliver guards below
                continue
            if min(img.shape) < 10 or not (img < 0.5).any():
                continue
            rows.append((int(did), t, img.shape[0], img.shape[1],
                         int((img < 0.5).sum())))
        return pd.DataFrame(rows, columns=["doc_id", "text_rendered",
                                           "h", "w", "ink_px"])

    out = ds.map_batches(render, batch_format="pandas",
                         batch_size=1024).to_pandas()
    out = out.astype({"doc_id": "int64", "h": "int64", "w": "int64",
                      "ink_px": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


def _signature_pairs(sigs: rd.Dataset) -> pd.DataFrame:
    """(doc_a, doc_b), doc_a < doc_b, for every two docs of a
    ``(doc_id, sig)`` Dataset that share one ``sig``: one sig-keyed
    ``partition_map``, all pairs inside each signature group, sorted.
    The exchange of the media near-dup queries."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b = [], []
        for _, sub in g.groupby("sig", sort=False):
            ids = np.sort(sub["doc_id"].to_numpy(np.int64))
            if len(ids) < 2:
                continue
            iu, ju = np.triu_indices(len(ids), k=1)
            rows_a.append(ids[iu])
            rows_b.append(ids[ju])
        if not rows_a:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(rows_a),
                             "doc_b": np.concatenate(rows_b)})

    out = partition_map(sigs, "sig", pairs).to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def q_video_dups(sf_dir: str) -> pd.DataFrame:
    """Video near-dup detection: decode each doc's AVI (clip content
    keyed by doc_id % 250, so every residue class is one duplicate
    group), sample frames, dHash each sampled frame, and pair videos
    whose full frame-hash signature matches — the multimodal analogue
    of exact text dedup (``_signature_pairs``: one signature-keyed
    exchange, all-pairs inside signature groups). Oracle = the planting
    arithmetic."""
    from ..functions.avi import encode_avi
    from ..functions import png as _png
    from ..stages.multimodal import VideoFrameSample, dhash64

    ds = _read(sf_dir, "documents", ["doc_id"])

    def synth(b: pd.DataFrame) -> pa.Table:
        ids = b["doc_id"].to_numpy("int64")
        blobs = []
        for i in ids:
            key = int(i) % 250
            n = 2 + key % 4
            # per-key pseudo-random frames: dHash is invariant to
            # constant brightness shifts, so gradient-pattern clips
            # would collide across keys
            rng = np.random.default_rng(key)
            frames = rng.integers(0, 256, (n, 12, 16)).astype(np.uint8)
            blobs.append(encode_avi(frames, fps=5 + key % 3))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(blobs, pa.binary())})

    clips = ds.map_batches(synth, batch_format="pandas", batch_size=256)
    sampled = clips.map_batches(VideoFrameSample(num_frames=2),
                                batch_format="pyarrow", batch_size=64)

    def signature(b: pa.Table) -> pd.DataFrame:
        from ..functions import hashing

        ids, sigs = [], []
        for i, frames in zip(b.column("doc_id").to_pylist(),
                             b.column("frames").to_pylist()):
            hs = [dhash64(_png.decode_gray(f)) for f in frames]
            ids.append(i)
            sigs.append(hashing.hash_strings(
                np.array([",".join(map(str, hs))], dtype=object))[0])
        return pd.DataFrame({"doc_id": ids,
                             "sig": np.array(sigs, dtype=np.uint64)})

    return _signature_pairs(
        sampled.map_batches(signature, batch_format="pyarrow"))


SQL_VIDEO_DUPS = """
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM documents a JOIN documents b
  ON a.doc_id % 250 = b.doc_id % 250 AND a.doc_id < b.doc_id
"""


def q_audio_dups(sf_dir: str) -> pd.DataFrame:
    """Audio near-dup detection: per-key multi-tone WAV clips (keyed by
    doc_id % 250), fingerprinted as the dominant-FFT-bin SEQUENCE over
    fixed windows (shazam-lite), paired inside fingerprint groups by
    ``_signature_pairs``. Oracle = the planting arithmetic, same
    residue pairing as video_dups."""
    from ..functions.wav import decode_wav, encode_wav

    ds = _read(sf_dir, "documents", ["doc_id"])
    rate, win = 8000, 2000  # 4 windows per 1s clip

    def synth(b: pd.DataFrame) -> pa.Table:
        ids = b["doc_id"].to_numpy("int64")
        blobs = []
        for i in ids:
            key = int(i) % 250
            rng = np.random.default_rng(key)
            # one integer-bin tone per window -> leakage-free argmax
            freqs = 10 * rng.integers(5, 195, 4)
            t = np.arange(win) / rate
            clip = np.concatenate(
                [0.4 * np.sin(2 * np.pi * f * t) for f in freqs])
            blobs.append(encode_wav(clip, rate))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "bytes": pa.array(blobs, pa.binary())})

    def fingerprint(b: pa.Table) -> pd.DataFrame:
        from ..functions import hashing

        ids, sigs = [], []
        for i, data in zip(b.column("doc_id").to_pylist(),
                           b.column("bytes").to_pylist()):
            samples, _r = decode_wav(bytes(data))
            if samples.ndim == 2:  # (n, channels) -> mono
                samples = samples[:, 0]
            bins = [int(np.argmax(np.abs(np.fft.rfft(
                samples[w * win:(w + 1) * win]))))
                for w in range(len(samples) // win)]
            ids.append(i)
            sigs.append(hashing.hash_strings(
                np.array([",".join(map(str, bins))], dtype=object))[0])
        return pd.DataFrame({"doc_id": ids,
                             "sig": np.array(sigs, dtype=np.uint64)})

    return _signature_pairs(
        ds.map_batches(synth, batch_format="pandas", batch_size=256)
        .map_batches(fingerprint, batch_format="pyarrow", batch_size=64))


SQL_AUDIO_DUPS = SQL_VIDEO_DUPS

# DuckDB twin of hashing.rolling_fingerprints (window=8, keep_mod=8, base
# 1000003, mod 2^64): each product code_point * base^(7-j) fits HUGEINT
# (< 2^85) and the 8-term sum (< 2^88) takes one final mod — identical to
# the kernel's uint64 wraparound accumulation. The powers below are
# pow(1000003, 7-j, 2**64). count(DISTINCT) mirrors np.unique; the signed
# CASE mirrors the engine's int64 reinterpretation of the uint64 min.
_FP_TERMS = " + ".join(
    f"unicode(substr(t, i+{_j}, 1))::HUGEINT * {_p}::HUGEINT"
    for _j, _p in enumerate(
        [12924618581234127435, 10923514805226455897, 14453212906556403763,
         14003818205314896721, 1000009000027000027, 1000006000009,
         1000003, 1]
    )
)
SQL_FINGERPRINTS = rf"""
WITH s AS (
  SELECT doc_id,
         trim(regexp_replace(lower(coalesce(text,'')), '\s+', ' ', 'g')) AS t
  FROM documents
),
pos AS (
  SELECT doc_id, t, unnest(range(1, length(t) - 6)) AS i
  FROM s WHERE length(t) >= 8
),
h AS (
  SELECT doc_id, (({_FP_TERMS}) % 18446744073709551616::HUGEINT) AS hash
  FROM pos
),
kept AS (
  SELECT doc_id, count(DISTINCT hash) AS n, min(hash) AS mn
  FROM h WHERE hash % 8 = 0 GROUP BY doc_id
)
SELECT s.doc_id,
       coalesce(kept.n, 0)::BIGINT AS n_fingerprints,
       (CASE WHEN kept.mn IS NULL THEN 0
             WHEN kept.mn >= 9223372036854775808::HUGEINT
               THEN kept.mn - 18446744073709551616::HUGEINT
             ELSE kept.mn END)::BIGINT AS min_fingerprint
FROM s LEFT JOIN kept USING (doc_id)
"""


def q_gopher_quality(sf_dir: str) -> pd.DataFrame:
    """Gopher quality-rule flags per document (Rae et al. 2021 App. A;
    pipelines/textstats.py gopher_quality_table)."""
    from .textstats import gopher_quality_table

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = gopher_quality_table(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# every ratio rule is an integer cross-multiplication on both sides —
# exact value parity, no float division anywhere
SQL_GOPHER_QUALITY = """
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS text FROM documents
), w AS (
  SELECT doc_id, text,
    list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS words,
    list_transform(regexp_split_to_array(text, '\\n'),
        l -> trim(l, ' ' || chr(9) || chr(13) || chr(11) || chr(12))) AS tl
  FROM t
), m AS (
  SELECT doc_id,
    len(words) AS n_words,
    coalesce(list_sum(list_transform(words, x -> len(x))), 0) AS sum_len,
    len(list_filter(words, x -> regexp_matches(x, '[a-zA-Z]'))) AS n_alpha,
    len(list_distinct(list_filter(list_transform(words, x -> lower(x)),
        x -> list_contains(['the','be','to','of','and','that','have','with'],
                           x)))) AS n_stop,
    len(regexp_extract_all(text, '#'))
      + len(regexp_extract_all(text, '\\.\\.\\.'))
      + len(regexp_extract_all(text, '…')) AS n_sym,
    len(tl) AS n_lines,
    len(list_filter(tl, l -> regexp_matches(l, '^[-•*]'))) AS n_bullet,
    len(list_filter(tl, l -> l LIKE '%...' OR l LIKE '%…')) AS n_ellend
  FROM w
)
SELECT doc_id, n_words::BIGINT AS n_words, n_stop::BIGINT AS n_stop,
  (n_words >= 50 AND n_words <= 100000)::BIGINT AS r_words,
  (3 * n_words <= sum_len AND sum_len <= 10 * n_words)::BIGINT AS r_mwl,
  (10 * n_sym < n_words)::BIGINT AS r_sym,
  (10 * n_alpha > 8 * n_words)::BIGINT AS r_alpha,
  (n_stop >= 2)::BIGINT AS r_stop,
  (10 * n_bullet < 9 * n_lines)::BIGINT AS r_bullet,
  (10 * n_ellend < 3 * n_lines)::BIGINT AS r_ellip,
  (n_words >= 50 AND n_words <= 100000
   AND 3 * n_words <= sum_len AND sum_len <= 10 * n_words
   AND 10 * n_sym < n_words
   AND 10 * n_alpha > 8 * n_words
   AND n_stop >= 2
   AND 10 * n_bullet < 9 * n_lines
   AND 10 * n_ellend < 3 * n_lines)::BIGINT AS passed
FROM m ORDER BY doc_id
"""


def q_c4_clean(sf_dir: str) -> pd.DataFrame:
    """C4 line-level cleaning per document (Raffel et al. 2020 §2.2;
    pipelines/curate.py c4_clean)."""
    from .curate import c4_clean

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = c4_clean(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_C4_CLEAN = """
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS text FROM documents
), l AS (
  SELECT doc_id, text,
    list_transform(regexp_split_to_array(text, '\\n'),
        x -> trim(x, ' ' || chr(9) || chr(13) || chr(11) || chr(12))) AS tl
  FROM t
), k AS (
  SELECT doc_id, text, tl,
    list_filter(tl, x -> regexp_matches(x, '[.!?"]$')
        AND len(list_filter(regexp_split_to_array(x, '\\s+'),
                            w -> w <> '')) >= 5
        AND NOT contains(lower(x), 'javascript')) AS kept_lines
  FROM l
), d AS (
  SELECT doc_id, tl, kept_lines,
    (len(kept_lines) >= 3 AND NOT contains(lower(text), 'lorem ipsum')
     AND NOT contains(lower(text), '{')) AS doc_ok
  FROM k
)
SELECT doc_id,
  len(tl)::BIGINT AS n_lines,
  len(kept_lines)::BIGINT AS n_kept_lines,
  doc_ok::BIGINT AS kept,
  CASE WHEN doc_ok THEN array_to_string(kept_lines, chr(10))
       ELSE '' END AS clean_text
FROM d ORDER BY doc_id
"""


def q_dsir_weights(sf_dir: str) -> pd.DataFrame:
    """DSIR importance weights (Xie et al. 2023, Data Selection via
    Importance Resampling): per-doc log importance ratio between a
    TARGET distribution (here the lang='en' slice) and the RAW corpus,
    under add-one-smoothed unigram LMs over the shared vocabulary.
    Docs that look like the target score high; resampling keeps docs
    with probability proportional to exp(weight).

    The paper hashes grams into buckets to bound the feature table;
    here raw-gram counts keep the DuckDB twin value-exact, and the
    engine's word-keyed exchange plays the same routing role. Fully
    distributed like unigram_logprob: ONE word-keyed ``keyed_combine``
    count table carries both (raw, target) counts — a single vocabulary
    exchange — then per-(doc, word) multiplicities meet it in a large x
    large bucket_join and per-doc sums ride one doc-keyed
    ``partition_map``. Only three scalars (token totals, vocab size)
    and the doc-scale result land on the driver."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def wc_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        tgt = (b["lang"].to_numpy(object)[flat.index.to_numpy()] == "en")
        return (pd.DataFrame({"word": flat.to_numpy(object),
                              "cr": np.ones(len(flat), dtype=np.int64),
                              "ct": tgt.astype(np.int64)})
                .groupby("word", sort=False, as_index=False).sum())

    uni = keyed_combine(
        ds.map_batches(wc_partial, batch_format="pandas", batch_size=65536),
        "word", ["cr", "ct"]).materialize()

    # scalars: raw/target token totals + vocab size (metadata-scale)
    tots = uni.map_batches(
        lambda b: pd.DataFrame({"nr": [int(b["cr"].sum())],
                                "nt": [int(b["ct"].sum())],
                                "v": [len(b)]}),
        batch_format="pandas").to_pandas().sum()
    nr, nt, v = float(tots["nr"]), float(tots["nt"]), float(tots["v"])

    def doc_words(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.split()
        flat = toks.explode().dropna()
        ids = b["doc_id"].to_numpy()[flat.index.to_numpy()]
        return (pd.DataFrame({"doc_id": ids, "word": flat.to_numpy(object)})
                .groupby(["doc_id", "word"], sort=False, as_index=False)
                .size().rename(columns={"size": "m"}))

    dw = ds.map_batches(doc_words, batch_format="pandas", batch_size=8192)
    joined = bucket_join(
        dw, uni, left_on="word", right_on="word",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("word", pa.string()), ("m", pa.int64())]),
        right_schema=pa.schema([("word", pa.string()), ("cr", pa.int64()),
                                ("ct", pa.int64())]))

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        m = b["m"].to_numpy(np.float64)
        lw = m * (np.log((b["ct"].to_numpy(np.float64) + 1.0) / (nt + v))
                  - np.log((b["cr"].to_numpy(np.float64) + 1.0) / (nr + v)))
        return (pd.DataFrame({"doc_id": b["doc_id"],
                              "n_tokens": b["m"].astype("int64"), "lw": lw})
                .groupby("doc_id", sort=False, as_index=False)
                .agg(n_tokens=("n_tokens", "sum"), lw=("lw", "sum")))

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", sort=False, as_index=False)
                .agg(n_tokens=("n_tokens", "sum"), lw=("lw", "sum")))
        return pd.DataFrame({"doc_id": out["doc_id"],
                             "n_tokens": out["n_tokens"].astype("int64"),
                             "weight": np.round(out["lw"], 6)})

    out = partition_map(joined.map_batches(contrib, batch_format="pandas"),
                        "doc_id", per_doc).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DSIR_WEIGHTS = r"""
WITH w AS (
  SELECT doc_id, lang, unnest(list_filter(
           regexp_split_to_array(trim(text), '\s+'),
           x -> x <> '')) AS word
  FROM documents
), uni AS (
  SELECT word, count(*)::BIGINT AS cr,
         coalesce(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END), 0)::BIGINT
           AS ct
  FROM w GROUP BY word
), tot AS (
  SELECT sum(cr)::DOUBLE AS nr, sum(ct)::DOUBLE AS nt,
         count(*)::DOUBLE AS v
  FROM uni
)
SELECT doc_id, count(*)::BIGINT AS n_tokens,
       round(sum(ln((u.ct + 1) / (t.nt + t.v))
                 - ln((u.cr + 1) / (t.nr + t.v))), 6) AS weight
FROM w JOIN uni u USING (word), tot t
GROUP BY doc_id
"""


def q_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE tokenizer training (Sennrich et al. 2016) over
    the documents table: first 24 merge rules with counts
    (pipelines/textstats.py bpe_train). Iterative — no SQL oracle; the
    pytest pins exact parity with a serial reference implementation."""
    from .textstats import bpe_train

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_train(ds, num_merges=24)


def q_mix_corpus(sf_dir: str) -> pd.DataFrame:
    """Uniform-target corpus mixing under a 50% char budget
    (pipelines/curate.py mix_corpus)."""
    from .curate import mix_corpus

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return mix_corpus(ds)


SQL_MIX_CORPUS = """
WITH s AS (
  SELECT source, sum(n_chars)::BIGINT AS cs FROM documents GROUP BY source
), t AS (
  SELECT sum(cs)::BIGINT AS total, count(*)::BIGINT AS ns FROM s
), p AS (
  SELECT source, least(100, (50 * t.total) // (t.ns * s.cs)) AS pct
  FROM s, t
), k AS (
  SELECT d.source, count(*)::BIGINT AS n_kept,
         sum(d.n_chars)::BIGINT AS kept_chars
  FROM documents d JOIN p USING (source)
  WHERE (d.doc_id * 2654435761) % 4294967296 % 100 < p.pct
  GROUP BY d.source
)
SELECT p.source, p.pct::BIGINT AS pct,
       coalesce(k.n_kept, 0)::BIGINT AS n_kept,
       coalesce(k.kept_chars, 0)::BIGINT AS kept_chars
FROM p LEFT JOIN k USING (source)
ORDER BY p.source
"""


def q_coreset(sf_dir: str) -> pd.DataFrame:
    """k-center greedy coreset over the embeddings table (16 centers;
    pipelines/similarity.py kcenter_coreset). Iterative argmax — no SQL
    oracle; the pytest pins exact parity with a serial reference."""
    from .similarity import kcenter_coreset

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kcenter_coreset(ds, k=16)


def q_ann_recall(sf_dir: str) -> pd.DataFrame:
    """IVF ANN recall@10 vs brute force over an nprobe sweep (4 fixture
    queries; pipelines/similarity.py ann_recall). Approximate by
    construction — rows-only; the pytest pins recall==1.0 at full probe
    and monotone non-decreasing recall in nprobe."""
    from .similarity import ann_recall

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = _read_pd(sf_dir, "embeddings").set_index("vec_id")
    Q = np.stack([np.asarray(qdf.loc[i, "embedding"], dtype=np.float64)
                  for i in range(4)])
    return ann_recall(ds, Q, k=10, num_centroids=8, probes=(1, 2, 4, 8))


def q_event_outliers(sf_dir: str) -> pd.DataFrame:
    """Per-event-type z-score anomaly flags (the metrics-cleaning
    primitive): two metadata-scale passes — per-type moments via
    pre-aggregated partials, then a stateless flag map with the tiny
    per-type stats broadcast. Only outlier rows return (plus z-score),
    so the driver never sees the full event stream."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def mom(b: pd.DataFrame) -> pd.DataFrame:
        v = b["value"].to_numpy(np.float64)
        g = pd.DataFrame({"event_type": b["event_type"], "s": v,
                          "s2": v * v})
        return g

    m = grouped_agg(ds.map_batches(mom, batch_format="pandas",
                                   batch_size=65536),
                    ["event_type"], sums=["s", "s2"])
    n = m["n"].to_numpy(np.float64)
    mean = m["sum_s"].to_numpy(np.float64) / n
    var = m["sum_s2"].to_numpy(np.float64) / n - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    stats = {t: (mu, sd) for t, mu, sd in zip(m["event_type"], mean, std)}

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        mu = b["event_type"].map({t: s[0] for t, s in stats.items()})
        sd = b["event_type"].map({t: s[1] for t, s in stats.items()})
        v = b["value"].to_numpy(np.float64)
        z = np.where(sd.to_numpy() > 0,
                     (v - mu.to_numpy()) / np.where(sd.to_numpy() > 0,
                                                    sd.to_numpy(), 1.0),
                     0.0)
        z = np.round(z, 6)
        keep = np.abs(z) > 3.0
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy("int64")[keep],
            "event_type": b["event_type"].to_numpy(object)[keep],
            "zscore": z[keep],
        })

    out = ds.map_batches(flag, batch_format="pandas",
                         batch_size=65536).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


SQL_EVENT_OUTLIERS = """
WITH s AS (
  SELECT event_id, event_type, value,
         avg(value) OVER (PARTITION BY event_type) AS mu,
         stddev_pop(value) OVER (PARTITION BY event_type) AS sd
  FROM events
), z AS (
  SELECT event_id, event_type,
         round(CASE WHEN sd > 0 THEN (value - mu) / sd ELSE 0 END, 6)
           AS zscore
  FROM s
)
SELECT event_id, event_type, zscore FROM z
WHERE abs(zscore) > 3.0 ORDER BY event_id
"""


def q_paragraph_dedup(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus-wide paragraph dedup (dedup.paragraph_dedup):
    3-word paragraphs hashed and deduped across the whole corpus (the
    small vocabulary makes real cross-doc collisions at this k), docs
    reassembled from their surviving paragraphs."""
    from .dedup import paragraph_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = paragraph_dedup(ds, k=3).to_pandas()
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "clean_text": out.clean_text.astype(object),
        "n_kept": out.n_kept.astype("int64"),
        "n_para": out.n_para.astype("int64"),
    }).sort_values("doc_id").reset_index(drop=True)


SQL_PARAGRAPH_DEDUP = r"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                           '\s+'),
                     w -> w <> '') AS words
  FROM documents
), tok AS (
  SELECT doc_id, unnest(words) AS w,
         unnest(range(1, len(words) + 1)) AS ord
  FROM base
), para AS (
  SELECT doc_id, (ord - 1) // 3 AS g,
         string_agg(w, ' ' ORDER BY ord) AS p
  FROM tok GROUP BY doc_id, (ord - 1) // 3
), ranked AS (
  SELECT doc_id, g, p,
         row_number() OVER (PARTITION BY p ORDER BY doc_id, g) AS rn,
         count(*) OVER (PARTITION BY doc_id) AS n_para
  FROM para
)
SELECT doc_id,
       string_agg(p, ' ' ORDER BY g) AS clean_text,
       count(*)::BIGINT AS n_kept,
       any_value(n_para)::BIGINT AS n_para
FROM ranked WHERE rn = 1
GROUP BY doc_id ORDER BY doc_id
"""


def q_events_pivot(sf_dir: str) -> pd.DataFrame:
    """Hourly event-type pivot (the classic wide-table report): one row
    per hour, one count column per event type. The exchange is the
    same pre-aggregated (hour, type) partial combine as events_hourly;
    the pivot itself runs on the bounded hour x type result."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b.event_type,
                             "hour": b.ts.dt.floor("h")})

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["hour", "event_type"], counts=True)
    wide = (g.pivot_table(index="hour", columns="event_type", values="n",
                          aggfunc="sum", fill_value=0)
            .reset_index())
    out = pd.DataFrame({"hour": wide["hour"]})
    for t in ("click", "error", "purchase", "signup", "view"):
        out[f"n_{t}"] = (wide[t].astype("int64") if t in wide.columns
                         else np.zeros(len(wide), dtype=np.int64))
    return out.sort_values("hour").reset_index(drop=True)


SQL_EVENTS_PIVOT = """
SELECT date_trunc('hour', ts) AS hour,
       count(*) FILTER (event_type = 'click')::BIGINT AS n_click,
       count(*) FILTER (event_type = 'error')::BIGINT AS n_error,
       count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (event_type = 'signup')::BIGINT AS n_signup,
       count(*) FILTER (event_type = 'view')::BIGINT AS n_view
FROM events GROUP BY 1 ORDER BY 1
"""


def q_price_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width histogram of line-item price (bin = $5000): per-batch
    partial bin counts, tiny final combine — the distributed histogram
    primitive every profiling pass needs. Bin edges are exact IEEE
    floor(x / 5000) on both sides, so the oracle matches bit-for-bit."""
    ds = _read(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bin": np.floor(
                b.l_extendedprice.to_numpy(np.float64) / 5000.0
            ).astype(np.int64),
            "l_quantity": b.l_quantity,
        })

    ds = ds.map_batches(prep, batch_format="pandas", batch_size=65536)
    g = grouped_agg(ds, ["bin"], sums=["l_quantity"])
    return pd.DataFrame({
        "bin": g["bin"].astype("int64"),
        "n": g.n.astype("int64"),
        "sum_qty": np.round(g.sum_l_quantity, 3),
    }).sort_values("bin").reset_index(drop=True)


SQL_PRICE_HISTOGRAM = """
SELECT CAST(floor(l_extendedprice / 5000) AS BIGINT) AS bin,
       count(*)::BIGINT AS n,
       round(sum(l_quantity), 3) AS sum_qty
FROM lineitem GROUP BY 1 ORDER BY 1
"""


def q_boilerplate_strip(sf_dir: str) -> pd.DataFrame:
    """Per-site boilerplate-paragraph strip (extract.boilerplate_strip):
    paragraphs appearing in >= max(2, ceil(0.5 * site_docs)) of a
    site's docs are template and removed from every copy."""
    from .extract import boilerplate_strip

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    out = boilerplate_strip(ds, k=4).to_pandas()
    return pd.DataFrame({
        "doc_id": out.doc_id.astype("int64"),
        "clean_text": out.clean_text.astype(object),
        "n_kept": out.n_kept.astype("int64"),
        "n_para": out.n_para.astype("int64"),
    }).sort_values("doc_id").reset_index(drop=True)


SQL_BOILERPLATE_STRIP = r"""
WITH base AS (
  SELECT doc_id, source,
         list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                           '\s+'),
                     w -> w <> '') AS words
  FROM documents
), tok AS (
  SELECT doc_id, source, unnest(words) AS w,
         unnest(range(1, len(words) + 1)) AS ord
  FROM base
), para AS (
  SELECT doc_id, source, (ord - 1) // 4 AS g,
         string_agg(w, ' ' ORDER BY ord) AS p
  FROM tok GROUP BY doc_id, source, (ord - 1) // 4
), site_nd AS (
  SELECT source, count(DISTINCT doc_id) AS nd FROM para GROUP BY source
), bp AS (
  SELECT c.source, c.p
  FROM (SELECT source, p, count(DISTINCT doc_id) AS c
        FROM para GROUP BY source, p) c
  JOIN site_nd d ON c.source = d.source
  WHERE c.c >= greatest(2, CAST(ceil(0.5 * d.nd) AS BIGINT))
), kept AS (
  SELECT pa.doc_id, pa.g, pa.p,
         count(*) OVER (PARTITION BY pa.doc_id) AS n_kept0
  FROM para pa ANTI JOIN bp
    ON pa.source = bp.source AND pa.p = bp.p
), npara AS (
  SELECT doc_id, count(*) AS n_para FROM para GROUP BY doc_id
)
SELECT k.doc_id,
       string_agg(k.p, ' ' ORDER BY k.g) AS clean_text,
       count(*)::BIGINT AS n_kept,
       any_value(n.n_para)::BIGINT AS n_para
FROM kept k JOIN npara n ON k.doc_id = n.doc_id
GROUP BY k.doc_id ORDER BY k.doc_id
"""


def q_hybrid_search(sf_dir: str) -> pd.DataFrame:
    """Hybrid retrieval: reciprocal-rank fusion (Cormack et al. 2009)
    of the BM25 keyword leg and the dense cosine-kNN leg. Each leg is
    its production distributed operator (shuffle-free block top-k +
    driver merge); fusion happens on the two k-row candidate lists —
    top-k-scale by construction. RRF uses INTEGER contributions
    ``10^9 // (60 + rank)`` so the fused scores are engine-exact
    (float 1/(60+r) sums would differ from the oracle in the last
    ulp)."""
    from . import similarity, textstats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sparse = textstats.bm25_search(docs, _BM25_TERMS, k=100)
    sparse = sparse[sparse["score"] > 0].reset_index(drop=True)
    sparse["r_sp"] = np.arange(1, len(sparse) + 1, dtype=np.int64)

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qv = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[0, "embedding"]
    dense = similarity.knn_brute(emb, np.asarray(qv), k=100)
    dense = dense.rename(columns={"vec_id": "doc_id"}).reset_index(drop=True)
    dense["r_dn"] = np.arange(1, len(dense) + 1, dtype=np.int64)

    f = sparse[["doc_id", "r_sp"]].merge(dense[["doc_id", "r_dn"]],
                                         on="doc_id", how="outer")
    contrib = np.zeros(len(f), dtype=np.int64)
    for col in ("r_sp", "r_dn"):
        r = f[col].to_numpy(dtype="float64")
        has = ~np.isnan(r)
        contrib[has] += (10**9 // (60 + r[has].astype(np.int64)))
    f["rrf_score"] = contrib
    f = f.sort_values(["rrf_score", "doc_id"],
                      ascending=[False, True]).head(10)
    return pd.DataFrame({"doc_id": f["doc_id"].astype("int64"),
                         "rrf_score": f["rrf_score"].astype("int64")}
                        ).reset_index(drop=True)


SQL_HYBRID_SEARCH = r"""
WITH c AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(text, '\s+', ' ', 'g')), ' ') AS l
  FROM documents
), tf AS (
  SELECT doc_id,
         len(list_filter(l, x -> x = 'spark'))  AS tf0,
         len(list_filter(l, x -> x = 'window')) AS tf1,
         len(list_filter(l, x -> x = 'merge'))  AS tf2
  FROM c
), g AS (
  SELECT count(*) AS n,
         sum((tf0 > 0)::INT) AS df0,
         sum((tf1 > 0)::INT) AS df1,
         sum((tf2 > 0)::INT) AS df2
  FROM tf
), s AS (
  SELECT doc_id,
         tf0 * ((n - df0 + 1) * 1000000 // (df0 + 1)) // (tf0 + 1)
       + tf1 * ((n - df1 + 1) * 1000000 // (df1 + 1)) // (tf1 + 1)
       + tf2 * ((n - df2 + 1) * 1000000 // (df2 + 1)) // (tf2 + 1)
           AS score
  FROM tf, g
), sp AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r
  FROM (SELECT doc_id, score FROM s WHERE score > 0
        ORDER BY score DESC, doc_id LIMIT 100)
), q AS (
  SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0
), dn AS (
  SELECT doc_id, row_number() OVER (ORDER BY cs DESC, doc_id) AS r
  FROM (SELECT vec_id AS doc_id,
               list_cosine_similarity(embedding::DOUBLE[],
                                      (SELECT qe FROM q)) AS cs
        FROM embeddings ORDER BY cs DESC, vec_id LIMIT 100)
), f AS (
  SELECT coalesce(sp.doc_id, dn.doc_id) AS doc_id,
         coalesce(1000000000 // (60 + sp.r), 0)
       + coalesce(1000000000 // (60 + dn.r), 0) AS rrf_score
  FROM sp FULL OUTER JOIN dn ON sp.doc_id = dn.doc_id
)
SELECT doc_id, rrf_score::BIGINT AS rrf_score
FROM f ORDER BY rrf_score DESC, doc_id LIMIT 10
"""


def q_cust_order_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER bucket_join: customers on a sparse predicate vs
    per-customer order counts with a HAVING floor — both sides carry
    keys the other lacks, so left-null AND right-null rows survive.
    The right side is a distributed groupby count (unbounded key
    cardinality: no driver combine); money rides as integer cents."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def lprep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b.c_custkey % 3 == 0]
        return pd.DataFrame({
            "c_custkey": b.c_custkey.astype("int64"),
            "acctbal_cents": np.round(
                b.c_acctbal.to_numpy(np.float64) * 100).astype(np.int64),
        })

    left = cust.map_batches(lprep, batch_format="pandas", batch_size=65536)

    orders = _read(sf_dir, "orders", ["o_custkey"])

    ones = orders.map_batches(
        lambda b: pd.DataFrame({
            "o_custkey": b["o_custkey"].astype("int64"),
            "n_orders": np.ones(len(b), dtype=np.int64)}),
        batch_format="pandas", batch_size=65536)
    right = keyed_combine(ones, "o_custkey", ["n_orders"]).map_batches(
        lambda b: b[b["n_orders"] >= 8].astype(
            {"o_custkey": "int64", "n_orders": "int64"}),
        batch_format="pandas")

    import pyarrow as pa

    lschema = pa.schema([("c_custkey", pa.int64()),
                         ("acctbal_cents", pa.int64())])
    rschema = pa.schema([("o_custkey", pa.int64()),
                         ("n_orders", pa.int64())])
    joined = bucket_join(left, right, "c_custkey", "o_custkey",
                         how="outer", left_schema=lschema,
                         right_schema=rschema).to_pandas()
    key = joined["c_custkey"].fillna(joined["o_custkey"])
    return (pd.DataFrame({
        "custkey": key.astype("int64"),
        "acctbal_cents": joined["acctbal_cents"].fillna(-1).astype("int64"),
        "n_orders": joined["n_orders"].fillna(0).astype("int64"),
    }).sort_values("custkey").reset_index(drop=True))


SQL_CUST_ORDER_OUTER = """
WITH l AS (
  SELECT c_custkey,
         CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_cents
  FROM customer WHERE c_custkey % 3 = 0
), r AS (
  SELECT o_custkey, count(*)::BIGINT AS n_orders
  FROM orders GROUP BY o_custkey HAVING count(*) >= 8
)
SELECT coalesce(l.c_custkey, r.o_custkey) AS custkey,
       coalesce(l.acctbal_cents, -1) AS acctbal_cents,
       coalesce(r.n_orders, 0) AS n_orders
FROM l FULL OUTER JOIN r ON l.c_custkey = r.o_custkey
ORDER BY custkey
"""


def q_event_paths(sf_dir: str) -> pd.DataFrame:
    """Per-user ordered event-type path (first 8 events joined with
    '>') — the behavioral-sequence extraction that feeds session-level
    n-gram / markov models.  ONE user-hash shuffle; inside each
    partition a single vectorized sort + per-user head(8), then the
    string join runs over <=8 already-colocated strings per user (no
    cross-partition state).  Scale: partitions hold disjoint users, the
    output is one metadata-width row per user."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        g = g.groupby("user_id", sort=False).head(8)
        grp = g.groupby("user_id", sort=False)["event_type"]
        path = grp.apply(">".join)
        n = grp.size()
        return pd.DataFrame({
            "user_id": path.index.to_numpy(np.int64),
            "path": path.to_numpy(object),
            "n_steps": n.to_numpy(np.int64),
        })

    out = partition_map(ev, "user_id", per_part).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


SQL_EVENT_PATHS = """
WITH o AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path,
       count(*)::BIGINT AS n_steps
FROM o WHERE rn <= 8 GROUP BY user_id ORDER BY user_id
"""


def q_trending_types(sf_dir: str) -> pd.DataFrame:
    """Day-over-day trending event types: per (day, type) counts with
    the previous day's count (LAG) and an integer permille growth
    ratio.  The count table is a bounded days x types combine
    (grouped_agg per-batch partials); the LAG runs on that group-scale
    result — nothing row-scale reaches the driver."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": (b["ts"].astype("datetime64[us]").astype("int64")
                    // 86_400_000_000),
            "event_type": b["event_type"],
        })

    base = grouped_agg(ev.map_batches(prep, batch_format="pandas"),
                       ["day", "event_type"])
    base = base.sort_values(["event_type", "day"]).reset_index(drop=True)
    prev = base.groupby("event_type", sort=False)["n"].shift(1)
    n = base["n"].astype("int64")
    prev_n = prev.fillna(-1).astype("int64")
    ratio = np.where(prev_n > 0, (n * 1000) // prev_n.where(prev_n > 0, 1),
                     -1)
    return pd.DataFrame({
        "day": base["day"].astype("int64"),
        "event_type": base["event_type"],
        "n": n,
        "prev_n": prev_n,
        "ratio_permille": ratio.astype("int64"),
    })


SQL_TRENDING_TYPES = """
WITH c AS (
  SELECT epoch_us(ts) // 86400000000 AS day, event_type,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
)
SELECT day, event_type, n,
       coalesce(LAG(n) OVER (PARTITION BY event_type ORDER BY day),
                -1)::BIGINT AS prev_n,
       (CASE WHEN LAG(n) OVER (PARTITION BY event_type ORDER BY day) > 0
             THEN (n * 1000) // LAG(n) OVER (PARTITION BY event_type
                                             ORDER BY day)
             ELSE -1 END)::BIGINT AS ratio_permille
FROM c ORDER BY event_type, day
"""


def q_vocab_growth(sf_dir: str) -> pd.DataFrame:
    """Heaps-law vocabulary growth curve: distinct words seen in the
    first k/10 of the corpus (by doc_id) for k = 1..10.  Per batch the
    token stream collapses to (word, min doc_id) partials BEFORE the
    exchange; ONE word-keyed exchange computes the global first
    occurrence per word; each partition then bins its first-occurrence
    positions against the 10 broadcast cutoffs — only 10-row partial
    histograms reach the driver.  No vocabulary-scale driver state."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    mx = int(docs.max("doc_id"))
    cutoffs = np.array([(mx * k) // 10 for k in range(1, 11)],
                       dtype=np.int64)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        ex = b["text"].fillna("").str.lower().str.split().explode()
        ex = ex[ex.notna()]
        if ex.empty:
            return pd.DataFrame({"word": pd.Series([], dtype=object),
                                 "first_doc": pd.Series([], dtype="int64")})
        df = pd.DataFrame({
            "word": ex.to_numpy(object),
            "first_doc": b["doc_id"].to_numpy(np.int64)[
                ex.index.to_numpy(np.int64)],
        })
        return (df.groupby("word", as_index=False, sort=False)["first_doc"]
                .min())

    def bin_part(g: pd.DataFrame, _cut=cutoffs) -> pd.DataFrame:
        first = g.groupby("word", sort=False)["first_doc"].min().to_numpy()
        idx = np.searchsorted(_cut, first, side="left")
        counts = np.bincount(idx, minlength=10)[:10]
        return pd.DataFrame({"bucket": np.arange(10, dtype=np.int64),
                             "n": counts.astype(np.int64)})

    parts = partition_map(docs.map_batches(partial, batch_format="pandas"),
                          "word", bin_part).to_pandas()
    hist = parts.groupby("bucket")["n"].sum().reindex(range(10),
                                                      fill_value=0)
    return pd.DataFrame({
        "decile": np.arange(1, 11, dtype=np.int64),
        "n_words": hist.cumsum().to_numpy(np.int64),
    })


SQL_VOCAB_GROWTH = r"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents
), f AS (
  SELECT word, min(doc_id) AS first_doc
  FROM w WHERE word <> '' GROUP BY word
), m AS (SELECT max(doc_id) AS mx FROM documents),
d AS (SELECT unnest(range(1, 11)) AS k)
SELECT d.k::BIGINT AS decile, count(*)::BIGINT AS n_words
FROM f, m, d
WHERE f.first_doc <= (m.mx * d.k) // 10
GROUP BY d.k ORDER BY d.k
"""


def q_user_lifecycle(sf_dir: str) -> pd.DataFrame:
    """Set-operation lifecycle report: users active in BOTH halves of
    the time range (INTERSECT), only the early half (EXCEPT), or only
    the late half.  One per-user min/max partial aggregation (bounded
    combine); the global midpoint derives from the same table's
    extrema, so the whole query is a single scan plus a group-scale
    classification."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].astype("int64"),
            "us": b["ts"].astype("datetime64[us]").astype("int64"),
        })

    per_user = grouped_agg(ev.map_batches(prep, batch_format="pandas"),
                           ["user_id"], mins=["us"], maxs=["us"])
    mid = (int(per_user["min_us"].min()) + int(per_user["max_us"].max())) // 2
    early = per_user["min_us"] < mid
    late = per_user["max_us"] >= mid
    status = np.where(early & late, "both",
                      np.where(early, "early_only", "late_only"))
    return (pd.DataFrame({
        "user_id": per_user["user_id"].astype("int64"),
        "status": status,
    }).sort_values("user_id").reset_index(drop=True))


SQL_USER_LIFECYCLE = """
WITH m AS (
  SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS mid FROM events
), u AS (
  SELECT user_id,
         max(CASE WHEN epoch_us(ts) < (SELECT mid FROM m)
                  THEN 1 ELSE 0 END) AS e,
         max(CASE WHEN epoch_us(ts) >= (SELECT mid FROM m)
                  THEN 1 ELSE 0 END) AS l
  FROM events GROUP BY user_id
)
SELECT user_id,
       CASE WHEN e = 1 AND l = 1 THEN 'both'
            WHEN e = 1 THEN 'early_only'
            ELSE 'late_only' END AS status
FROM u ORDER BY user_id
"""


def q_frontier_dedup(sf_dir: str) -> pd.DataFrame:
    """Crawl-frontier canonical dedup audit: per registered domain, raw
    URL count vs distinct NORMALIZED urls (functions/urlx.py — case,
    default ports, dot segments, utm_* params, fragments) — the
    dedup a frontier does before scheduling fetches.  Per batch the
    stream collapses to (domain, norm_url, n) partials, then ONE
    domain-keyed exchange computes exact distincts per partition-local
    domain.  The oracle rebuilds every normalized URL from the six
    hazard templates."""
    from .curate import url_table

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    tbl = url_table(docs)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b.groupby(["domain", "norm_url"], as_index=False,
                          sort=False)
                .agg(n=("doc_id", "size")))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("domain", sort=False).agg(
            n_urls=("n", "sum"), n_distinct=("norm_url", "nunique"))
        agg = agg.reset_index()
        return pd.DataFrame({
            "domain": agg["domain"],
            "n_urls": agg["n_urls"].astype("int64"),
            "n_distinct": agg["n_distinct"].astype("int64"),
            "n_dupes": (agg["n_urls"] - agg["n_distinct"]).astype("int64"),
        })

    out = partition_map(tbl.map_batches(partial, batch_format="pandas"),
                        "domain", per_part).to_pandas()
    return out.sort_values("domain").reset_index(drop=True)


SQL_FRONTIER_DEDUP = """
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t, doc_id::VARCHAR AS i,
         (doc_id % 4)::INT AS reps
  FROM documents
), u AS (
  SELECT
    CASE t WHEN 1 THEN source || '.co.uk' WHEN 2 THEN source || '.org'
           WHEN 3 THEN source || '.net' ELSE source || '.com'
    END AS domain,
    CASE t
      WHEN 0 THEN 'https://www.' || source || '.com/articles/' || i
      WHEN 1 THEN 'http://' || source || '.co.uk/a/news/' || i
                  || '?id=' || i
      WHEN 2 THEN 'https://blog.' || source || '.org/post/' || i || '/'
      WHEN 3 THEN 'http://ads.' || source || '.net/track/' || i
      WHEN 4 THEN 'https://' || source || '.com:8443/'
                  || repeat('x/', reps) || 'page'
      ELSE 'https://a.b.' || source || '.com/a%20b/?id=1&ref=2'
    END AS norm_url
  FROM f
)
SELECT domain, count(*)::BIGINT AS n_urls,
       count(DISTINCT norm_url)::BIGINT AS n_distinct,
       (count(*) - count(DISTINCT norm_url))::BIGINT AS n_dupes
FROM u GROUP BY domain ORDER BY domain
"""


def q_crawl_schedule(sf_dir: str) -> pd.DataFrame:
    """Politeness fetch scheduler: within each registered domain, order
    fetches by doc_id and space them by the domain's crawl delay
    (200ms x (1 + len(domain) % 4) — a stand-in for robots
    crawl-delay).  ONE domain-keyed exchange; each partition ranks its
    disjoint domains with a vectorized sort + cumcount.  The per-doc
    schedule stays distributed at web scale (this query collects it
    only for the oracle compare)."""
    from .curate import url_table

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    tbl = url_table(docs)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["domain", "doc_id"])
        slot = g.groupby("domain", sort=False).cumcount()
        delay = 200 * (1 + g["domain"].str.len() % 4)
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64").to_numpy(),
            "domain": g["domain"].to_numpy(object),
            "slot": slot.astype("int64").to_numpy(),
            "fetch_at_ms": (slot * delay).astype("int64").to_numpy(),
        })

    out = partition_map(tbl.select_columns(["doc_id", "domain"]), "domain",
                        per_part).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CRAWL_SCHEDULE = """
WITH f AS (
  SELECT doc_id, source, doc_id % 6 AS t FROM documents
), u AS (
  SELECT doc_id,
    CASE t WHEN 1 THEN source || '.co.uk' WHEN 2 THEN source || '.org'
           WHEN 3 THEN source || '.net' ELSE source || '.com'
    END AS domain
  FROM f
)
SELECT doc_id, domain,
       (row_number() OVER (PARTITION BY domain ORDER BY doc_id)
        - 1)::BIGINT AS slot,
       ((row_number() OVER (PARTITION BY domain ORDER BY doc_id) - 1)
        * 200 * (1 + length(domain) % 4))::BIGINT AS fetch_at_ms
FROM u ORDER BY doc_id
"""


def q_anchor_text(sf_dir: str) -> pd.DataFrame:
    """Anchor-text aggregation — the classic link-based search signal:
    for every link TARGET (href) across the corpus, how many pages link
    to it, with how many distinct anchor texts, and what the dominant
    anchor text is (highest count, lexicographically smallest on
    ties).  Per batch the link stream collapses to (href, text, n)
    partials; ONE href-keyed exchange, per-partition exact counts.
    Rows-only (the page chrome is PRNG-generated, so SQL cannot replay
    the hrefs); planted-corpus exactness + total-count parity vs
    outlink_stats are pinned in tests/test_sequence_queries.py."""
    from .extract import wrap_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return anchor_text_rollup(wrap_docs(ds)).sort_values(
        "href").reset_index(drop=True)


def anchor_text_rollup(pages: rd.Dataset) -> pd.DataFrame:
    """Per-href anchor rollup over a Dataset with an ``html`` column.
    Scale shape: partials are (href, text, n) — bounded by the anchor
    vocabulary, not the corpus; one href-keyed exchange; the driver sees
    one row per distinct href."""
    from ..functions.htmlx import extract_links

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hrefs: list[str] = []
        texts: list[str] = []
        for h in b["html"]:
            for link in extract_links(h):
                hrefs.append(link["href"])
                texts.append(link["text"])
        df = pd.DataFrame({"href": hrefs, "text": texts}, dtype=object)
        return df.groupby(["href", "text"], as_index=False, sort=False).agg(
            n=("text", "size"))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        full = (g.groupby(["href", "text"], as_index=False, sort=False)
                ["n"].sum())
        # dominant text: max n, ties -> lexicographically smallest text
        full = full.sort_values(["href", "n", "text"],
                                ascending=[True, False, True])
        top = full.groupby("href", sort=False).head(1)
        stats = full.groupby("href", sort=False).agg(
            n_links=("n", "sum"), n_texts=("text", "size"))
        out = stats.join(top.set_index("href")["text"]).reset_index()
        return pd.DataFrame({
            "href": out["href"],
            "n_links": out["n_links"].astype("int64"),
            "n_texts": out["n_texts"].astype("int64"),
            "top_text": out["text"],
        })

    return partition_map(pages.map_batches(partial, batch_format="pandas"),
                         "href", per_part).to_pandas()


def q_redirect_chains(sf_dir: str) -> pd.DataFrame:
    """Redirect-chain resolution (the crawl canonicalization step after
    fetching 3xx responses): every 'ads' doc (doc_id % 6 == 3)
    redirects to a strictly-smaller doc_id, so chains are acyclic and
    terminate; resolve each start to its FINAL landing doc and hop
    count.  Each round is one large x large bucket_join of the
    unresolved frontier against the redirect edge table (cur == src):
    a match advances the chain, a miss resolves the row — the
    iterative-join shape of Common Crawl's redirect resolution.  The
    chain length is bounded by construction (strictly decreasing ids);
    the loop asserts convergence instead of trusting it.  Oracle:
    recursive CTE walking the same edges."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(b: pd.DataFrame) -> pd.DataFrame:
        u = b["doc_id"].astype("int64")
        r = u[u % 6 == 3].to_numpy(np.int64)
        # every third redirect points at the PREVIOUS redirect node
        # (making real 2-hop chains); the rest exit to a content doc
        chain = (r // 6) % 3 == 0
        dst = np.where(chain, r - 6, r - 1 - (r % 5))
        return pd.DataFrame({
            "src": r,
            "dst": np.maximum(dst, 0).astype(np.int64),
        })

    edges = docs.map_batches(mk_edges, batch_format="pandas")
    state = edges.map_batches(
        lambda b: pd.DataFrame({"start": b["src"].astype("int64"),
                                "cur": b["dst"].astype("int64"),
                                "hops": np.int64(1)}),
        batch_format="pandas")

    resolved: list[pd.DataFrame] = []
    for _ in range(12):
        j = bucket_join(state, edges, "cur", "src", how="left")

        def split_done(b: pd.DataFrame) -> pd.DataFrame:
            done = b["dst"].isna()
            out = pd.DataFrame({
                "start": b["start"].astype("int64"),
                "cur": np.where(done, b["cur"],
                                b["dst"].fillna(-1)).astype(np.int64),
                "hops": np.where(done, b["hops"],
                                 b["hops"] + 1).astype(np.int64),
                "done": done.to_numpy(),
            })
            return out

        j = j.map_batches(split_done, batch_format="pandas").materialize()
        resolved.append(j.filter(expr="done == True").drop_columns(
            ["done"]).to_pandas())
        state = j.filter(expr="done == False").drop_columns(["done"])
        if state.count() == 0:
            break
    else:
        raise RuntimeError("redirect chains did not converge in 12 rounds")

    out = pd.concat(resolved, ignore_index=True)
    return (pd.DataFrame({
        "doc_id": out["start"].astype("int64"),
        "final_id": out["cur"].astype("int64"),
        "hops": out["hops"].astype("int64"),
    }).sort_values("doc_id").reset_index(drop=True))


SQL_REDIRECT_CHAINS = """
WITH RECURSIVE e AS (
  SELECT doc_id AS src,
         greatest(CASE WHEN (doc_id // 6) % 3 = 0 THEN doc_id - 6
                       ELSE doc_id - 1 - (doc_id % 5) END, 0) AS dst
  FROM documents WHERE doc_id % 6 = 3
), walk AS (
  SELECT src AS start, dst AS cur, 1 AS hops FROM e
  UNION ALL
  SELECT w.start, e.dst, w.hops + 1 FROM walk w JOIN e ON e.src = w.cur
)
SELECT start AS doc_id, cur AS final_id, hops::BIGINT AS hops
FROM walk w
WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = w.cur)
ORDER BY doc_id
"""


def q_scd2_history(sf_dir: str) -> pd.DataFrame:
    """Slowly-changing-dimension (type 2) history build from the SAME
    deterministic change log as merge_upsert: every upsert version gets
    its validity interval [seq, valid_to) — valid_to is the NEXT
    operation's seq (upsert or delete), -1 while still current.  ONE
    key-hash bucket shuffle; each partition sorts its disjoint keys
    once and derives valid_to with a vectorized shift — the lakehouse
    history-table companion to merge_upsert's latest-wins compaction.
    Oracle: LEAD window over the replayed log."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    out = _scd2_history_ds(docs).to_pandas()
    return out.sort_values(["doc_id", "seq"]).reset_index(drop=True)


def _scd2_history_ds(docs: "rd.Dataset") -> "rd.Dataset":
    """The SCD2 validity-interval build as a Dataset (doc_id, seq,
    valid_to, is_current) — shared by q_scd2_history and the temporal
    join q_scd2_join."""

    def ops_rows(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        m = i % 9
        frames = [
            pd.DataFrame({"doc_id": i, "seq": np.int64(0), "op": "upsert"}),
            pd.DataFrame({"doc_id": i[m == 0], "seq": np.int64(1),
                          "op": "delete"}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(1),
                          "op": "upsert"}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(2),
                          "op": "upsert"}),
            pd.DataFrame({"doc_id": i[m == 2], "seq": np.int64(1),
                          "op": "upsert"}),
            pd.DataFrame({"doc_id": i[m == 3] + 2_000_000,
                          "seq": np.int64(1), "op": "upsert"}),
        ]
        return pd.concat(frames, ignore_index=True)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "seq"])
        nxt = g.groupby("doc_id", sort=False)["seq"].shift(-1)
        keep = g["op"] == "upsert"
        return pd.DataFrame({
            "doc_id": g.loc[keep, "doc_id"].astype("int64").to_numpy(),
            "seq": g.loc[keep, "seq"].astype("int64").to_numpy(),
            "valid_to": nxt[keep].fillna(-1).astype("int64").to_numpy(),
            "is_current": nxt[keep].isna().to_numpy(),
        })

    return partition_map(docs.map_batches(ops_rows, batch_format="pandas"),
                         "doc_id", per_part)


SQL_SCD2_HISTORY = """
WITH a AS (
  SELECT doc_id, 0 AS seq, 'upsert' AS op FROM documents
  UNION ALL
  SELECT doc_id, 1, 'delete' FROM documents WHERE doc_id % 9 = 0
  UNION ALL
  SELECT doc_id, 1, 'upsert' FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 2, 'upsert' FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 1, 'upsert' FROM documents WHERE doc_id % 9 = 2
  UNION ALL
  SELECT doc_id + 2000000, 1, 'upsert' FROM documents WHERE doc_id % 9 = 3
), v AS (
  SELECT doc_id, seq, op,
         LEAD(seq) OVER (PARTITION BY doc_id ORDER BY seq) AS nxt
  FROM a
)
SELECT doc_id, seq::BIGINT AS seq,
       coalesce(nxt, -1)::BIGINT AS valid_to,
       (nxt IS NULL) AS is_current
FROM v WHERE op = 'upsert' ORDER BY doc_id, seq
"""


def q_unicode_clean(sf_dir: str) -> pd.DataFrame:
    """Unicode normalization cleanup (the mojibake/diacritics matching
    step of web-text canonicalization): odd docs get deterministic
    accent damage (e -> é, a -> à), then the vectorized NFD +
    combining-mark strip + NFC pipeline restores them; per-source
    report of damaged vs fully-restored docs.  Stateless pandas-string
    map (no per-row Python), one bounded per-source combine.  Oracle
    replays the damage and DuckDB's strip_accents/nfc_normalize."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        odd = (b["doc_id"].astype("int64") % 2 == 1).to_numpy()
        dirty = t.str.replace("e", "é", regex=False).str.replace(
            "a", "à", regex=False).where(odd, t)
        clean = (dirty.str.normalize("NFD")
                 .str.replace("[\u0300-\u036f]", "", regex=True)
                 .str.normalize("NFC"))
        df = pd.DataFrame({
            "source": b["source"],
            "is_dirty": (dirty != t).to_numpy(),
            "restored": (clean == t).to_numpy(),
        })
        g = df.groupby("source", as_index=False, sort=False).agg(
            n_docs=("source", "size"), n_dirty=("is_dirty", "sum"),
            n_restored=("restored", "sum"))
        return g

    parts = docs.map_batches(stage, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False).sum()
    return (pd.DataFrame({
        "source": out["source"],
        "n_docs": out["n_docs"].astype("int64"),
        "n_dirty": out["n_dirty"].astype("int64"),
        "n_restored": out["n_restored"].astype("int64"),
    }).sort_values("source").reset_index(drop=True))


SQL_UNICODE_CLEAN = """
WITH d AS (
  SELECT source, coalesce(text, '') AS t,
         CASE WHEN doc_id % 2 = 1
              THEN replace(replace(coalesce(text, ''), 'e', 'é'),
                           'a', 'à')
              ELSE coalesce(text, '') END AS dirty
  FROM documents
)
SELECT source, count(*)::BIGINT AS n_docs,
       sum(CASE WHEN dirty <> t THEN 1 ELSE 0 END)::BIGINT AS n_dirty,
       sum(CASE WHEN strip_accents(nfc_normalize(dirty)) = t
                THEN 1 ELSE 0 END)::BIGINT AS n_restored
FROM d GROUP BY source ORDER BY source
"""


def q_compression_ratio(sf_dir: str) -> pd.DataFrame:
    """Compression-ratio quality signal (RefinedWeb/Dolma-style
    repetition filter: highly compressible text is boilerplate or
    looped spam): per-source docs flagged at ratio <= 300 permille
    (DEFLATE level 6), plus mean permille.  zlib runs per doc inside
    the batch (a C call per row, bounded by doc length); only the
    bounded per-source combine leaves the stage.  Rows-only (SQL has
    no DEFLATE); planted repetitive/varied-text ordering and
    determinism are pinned in tests/test_sequence_queries.py."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return compression_ratio_stats(ds)


def compression_ratio_stats(docs: rd.Dataset,
                            flag_permille: int = 300) -> pd.DataFrame:
    import zlib

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        raw = t.str.encode("utf-8")
        ratio = np.array(
            [len(zlib.compress(x, 6)) * 1000 // len(x) if len(x) else 1000
             for x in raw], dtype=np.int64)
        df = pd.DataFrame({"source": b["source"],
                           "ratio": ratio,
                           "flagged": ratio <= flag_permille})
        return df.groupby("source", as_index=False, sort=False).agg(
            n_docs=("source", "size"), n_flagged=("flagged", "sum"),
            sum_ratio=("ratio", "sum"))

    parts = docs.map_batches(stage, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False).sum()
    return (pd.DataFrame({
        "source": out["source"],
        "n_docs": out["n_docs"].astype("int64"),
        "n_flagged": out["n_flagged"].astype("int64"),
        "mean_permille": (out["sum_ratio"] // out["n_docs"]).astype(
            "int64"),
    }).sort_values("source").reset_index(drop=True))


def q_knn_ivfpq(sf_dir: str) -> pd.DataFrame:
    """Composed IVF-PQ two-stage ANN (similarity.build_ivfpq_index /
    knn_ivfpq): coarse cells prune AT THE READ, uint8 residual PQ codes
    shrink the candidate scan payload, and the re-rank pass reads raw
    vectors of only the probed cells filtered to the candidate ids.
    Rows-only (PQ is approximate); the exhaustive-probe + lossless-
    codebook == brute force gate lives in
    tests/test_sequence_queries.py."""
    import hashlib
    import os

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qv = _read_pd(sf_dir, "embeddings").set_index("vec_id").loc[
        0, "embedding"]
    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    idx = f"/tmp/ivfpq_index_{key}"
    if not os.path.exists(os.path.join(idx, "_books.npy")):
        similarity.build_ivfpq_index(ds, idx, num_centroids=8, m=8,
                                     n_codes=32)
    return similarity.knn_ivfpq(idx, np.asarray(qv), k=10, nprobe=4,
                                rerank=40)


def q_balanced_shards(sf_dir: str) -> pd.DataFrame:
    """Token-balanced shard planner (the training-shard packing step):
    docs rank globally by (tokens DESC, doc_id) via the ordered_scan
    prefix-scan primitive (no driver sort), then SNAKE-assign to 8
    shards (rank j -> shard j%16 folded) so the heaviest docs spread
    evenly; per-shard doc and token totals.  Everything but the 8-row
    report stays distributed; the oracle replays the row_number + snake
    arithmetic."""
    from .windows import ordered_scan

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "toks": b["text"].fillna("").str.split().str.len().astype(
                "int64"),
        })

    t = docs.map_batches(toks, batch_format="pandas").materialize()
    tmax = int(t.max("toks"))
    umax = int(t.max("doc_id")) + 1
    if (tmax + 1) * umax >= 2**62:
        raise OverflowError("shard sort-key composition overflows int64")

    def key(b: pd.DataFrame, _tmax=tmax, _umax=umax) -> pd.DataFrame:
        b = b.copy()
        b["key"] = ((_tmax - b["toks"].to_numpy(np.int64)) * _umax
                    + b["doc_id"].to_numpy(np.int64))
        b["one"] = np.int64(1)
        return b

    scanned = ordered_scan(t.map_batches(key, batch_format="pandas"),
                           "key", sum_cols=("one",))
    nshards = 8

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        j = (b["run_one"].to_numpy(np.int64) - 1) % (2 * nshards)
        shard = np.where(j < nshards, j, 2 * nshards - 1 - j)
        g = pd.DataFrame({"shard": shard.astype(np.int64),
                          "toks": b["toks"].astype("int64")})
        return g.groupby("shard", as_index=False).agg(
            n_docs=("toks", "size"), total_tokens=("toks", "sum"))

    parts = scanned.map_batches(assign, batch_format="pandas").to_pandas()
    out = parts.groupby("shard", as_index=False).sum()
    return (pd.DataFrame({
        "shard": out["shard"].astype("int64"),
        "n_docs": out["n_docs"].astype("int64"),
        "total_tokens": out["total_tokens"].astype("int64"),
    }).sort_values("shard").reset_index(drop=True))


SQL_BALANCED_SHARDS = r"""
WITH t AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                               '\s+'),
                         w -> w <> '')) AS toks
  FROM documents
), r AS (
  SELECT toks, row_number() OVER (ORDER BY toks DESC, doc_id) AS rn
  FROM t
), s AS (
  SELECT toks, (rn - 1) % 16 AS j FROM r
)
SELECT (CASE WHEN j < 8 THEN j ELSE 15 - j END)::BIGINT AS shard,
       count(*)::BIGINT AS n_docs, sum(toks)::BIGINT AS total_tokens
FROM s GROUP BY 1 ORDER BY 1
"""


def q_domain_prior(sf_dir: str) -> pd.DataFrame:
    """Empirical-Bayes shrunk per-source quality prior (the URL/domain-
    level filter signal: small domains shrink toward the corpus rate
    instead of flapping on a handful of docs): flag = n_chars < 200,
    shrunk_permille = (flags*1000 + prior*50) // (n + 50) with the
    corpus-wide prior.  One bounded per-source combine + two scalars;
    integer arithmetic end-to-end so the oracle is exact."""
    docs = _read(sf_dir, "documents", ["source", "n_chars"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "flagged": (b["n_chars"].fillna(0).astype("int64")
                        < 200).astype("int64"),
        })

    g = grouped_agg(docs.map_batches(prep, batch_format="pandas"),
                    ["source"], sums=["flagged"])
    total_n = int(g["n"].sum())
    total_f = int(g["sum_flagged"].sum())
    prior = total_f * 1000 // total_n
    strength = 50
    shrunk = ((g["sum_flagged"].astype("int64") * 1000 + prior * strength)
              // (g["n"].astype("int64") + strength))
    return (pd.DataFrame({
        "source": g["source"],
        "n_docs": g["n"].astype("int64"),
        "n_flagged": g["sum_flagged"].astype("int64"),
        "raw_permille": (g["sum_flagged"] * 1000 // g["n"]).astype(
            "int64"),
        "shrunk_permille": shrunk.astype("int64"),
    }).sort_values("source").reset_index(drop=True))


SQL_DOMAIN_PRIOR = """
WITH d AS (
  SELECT source,
         CASE WHEN coalesce(n_chars, 0) < 200 THEN 1 ELSE 0 END AS f
  FROM documents
), g AS (
  SELECT source, count(*)::BIGINT AS n, sum(f)::BIGINT AS nf
  FROM d GROUP BY source
), p AS (
  SELECT sum(nf) * 1000 // sum(n) AS prior FROM g
)
SELECT source, n AS n_docs, nf AS n_flagged,
       (nf * 1000 // n)::BIGINT AS raw_permille,
       ((nf * 1000 + p.prior * 50) // (n + 50))::BIGINT AS shrunk_permille
FROM g, p ORDER BY source
"""


def q_epoch_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic epoch resampling with fractional per-source
    weights (the mixture-upsampling step of training-data assembly):
    weight w permille = 500 * (1 + len(source) % 3) — so one source
    class downsamples (0-or-1 copies), one passes through, one
    upsamples (1-or-2) — with the fractional part decided by the
    Knuth-hash membership rule the engine uses everywhere.  The
    replicated rows are ACTUALLY materialized by a vectorized
    np.repeat flat-map (not just counted), then roll up per source.
    The oracle recomputes expected copies analytically."""
    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def rep(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].to_numpy(np.int64)
        w = (500 * (1 + b["source"].str.len() % 3)).to_numpy(np.int64)
        extra = ((i * 2654435761 % 2**32) % 1000 < (w % 1000))
        n = (w // 1000 + extra).astype(np.int64)
        idx = np.repeat(np.arange(len(b)), n)
        out = b.iloc[idx][["doc_id", "source"]].reset_index(drop=True)
        return out

    reps = docs.map_batches(rep, batch_format="pandas")
    copies = grouped_agg(reps, ["source"])
    base = grouped_agg(docs, ["source"])
    out = base.merge(copies, on="source", how="left",
                     suffixes=("_in", "_out"))
    return (pd.DataFrame({
        "source": out["source"],
        "n_docs": out["n_in"].astype("int64"),
        "n_copies": out["n_out"].fillna(0).astype("int64"),
    }).sort_values("source").reset_index(drop=True))


SQL_EPOCH_SAMPLE = """
WITH d AS (
  SELECT source, 500 * (1 + length(source) % 3) AS w,
         (doc_id * 2654435761) % 4294967296 % 1000 AS h
  FROM documents
)
SELECT source, count(*)::BIGINT AS n_docs,
       sum(w // 1000 + CASE WHEN h < w % 1000 THEN 1 ELSE 0 END
           )::BIGINT AS n_copies
FROM d GROUP BY source ORDER BY source
"""


def q_range_shards(sf_dir: str) -> pd.DataFrame:
    """Sort-free RANGE partition planner (the step before writing
    range-bucketed output or feeding a merge-sorted consumer): 7
    interior split points come from the distributed exact-quantile
    quickselect (relational.exact_quantile — histogram-narrowing
    rounds, NO global sort, no sampling bias), then one stateless pass
    assigns each order to its (b_i, b_{i+1}] range; per-shard count +
    min/max.  Only the 7 boundaries and the 8-row report touch the
    driver.  Ties at a boundary all land on its lower side
    (quantile_disc boundaries are data elements), so shard sizes are
    balanced up to tie mass — exactly what the SQL twin replays."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])
    nshards = 8
    qs = tuple(i / nshards for i in range(1, nshards))
    b = relational.exact_quantile(ds, "o_totalprice", qs=qs)
    bounds = np.sort(b["value"].to_numpy(np.float64))

    def assign(t: pd.DataFrame) -> pd.DataFrame:
        v = t["o_totalprice"].to_numpy(np.float64)
        # shard = #boundaries strictly below v (ties -> lower shard)
        shard = np.searchsorted(bounds, v, side="left")
        g = pd.DataFrame({"shard": shard.astype(np.int64), "v": v})
        return g.groupby("shard", as_index=False).agg(
            n_orders=("v", "size"), min_price=("v", "min"),
            max_price=("v", "max"))

    parts = (ds.map_batches(assign, batch_format="pandas",
                            batch_size=65536).to_pandas())
    out = parts.groupby("shard", as_index=False).agg(
        n_orders=("n_orders", "sum"), min_price=("min_price", "min"),
        max_price=("max_price", "max"))
    return (pd.DataFrame({
        "shard": out["shard"].astype("int64"),
        "n_orders": out["n_orders"].astype("int64"),
        "min_price": out["min_price"].astype("float64"),
        "max_price": out["max_price"].astype("float64"),
    }).sort_values("shard").reset_index(drop=True))


SQL_RANGE_SHARDS = """
WITH b AS (
  SELECT quantile_disc(o_totalprice, 0.125) AS b1,
         quantile_disc(o_totalprice, 0.250) AS b2,
         quantile_disc(o_totalprice, 0.375) AS b3,
         quantile_disc(o_totalprice, 0.500) AS b4,
         quantile_disc(o_totalprice, 0.625) AS b5,
         quantile_disc(o_totalprice, 0.750) AS b6,
         quantile_disc(o_totalprice, 0.875) AS b7
  FROM orders
), s AS (
  SELECT o_totalprice AS v,
         ((o_totalprice > b1)::INT + (o_totalprice > b2)::INT
          + (o_totalprice > b3)::INT + (o_totalprice > b4)::INT
          + (o_totalprice > b5)::INT + (o_totalprice > b6)::INT
          + (o_totalprice > b7)::INT)::BIGINT AS shard
  FROM orders, b
)
SELECT shard, count(*)::BIGINT AS n_orders,
       min(v) AS min_price, max(v) AS max_price
FROM s GROUP BY shard ORDER BY shard
"""


def q_mojibake_repair(sf_dir: str) -> pd.DataFrame:
    """ftfy-core mojibake repair (UTF-8 bytes mis-decoded as latin-1 —
    the classic crawl encoding damage): deterministic non-ASCII
    suffixes are planted per doc, docs with doc_id%5==0 are DAMAGED by
    the utf-8-then-latin-1 double-decode, and the repair stage must
    restore the original exactly.  Repair rule: if the WHOLE string
    survives s.encode('latin-1').decode('utf-8') strictly, it was
    double-decoded — undo it (up to 2 rounds); anything else is
    untouched.  Vectorized prefilter: only rows containing a mojibake
    marker (any char in U+0080-U+00FF) attempt the per-row round-trip,
    so clean ASCII text never enters the Python path.  The oracle
    hashes the EXPECTED repaired text (original + suffix) —
    value-exact."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def damage_and_repair(b: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        ids = b["doc_id"].astype("int64")
        planted = (b["text"].fillna("") + " café №"
                   + ids.astype(str))
        damaged = planted.copy()
        hit = (ids % 5 == 0).to_numpy()
        # damage only the planted fifth — running the round-trip over
        # every row and discarding 4/5 via where() is 5x the Python work
        damaged[hit] = planted[hit].map(
            lambda s: s.encode("utf-8").decode("latin-1"))

        sus = damaged.str.contains("[\x80-\xff]", regex=True)

        def fix(s: str) -> str:
            for _ in range(2):
                try:
                    t = s.encode("latin-1").decode("utf-8")
                except (UnicodeEncodeError, UnicodeDecodeError):
                    return s
                if t == s:
                    return s
                s = t
            return s

        repaired = damaged.copy()
        repaired[sus] = damaged[sus].map(fix)
        return pd.DataFrame({
            "doc_id": ids,
            "was_damaged": (ids % 5 == 0).astype("int64"),
            "repaired_md5": repaired.map(
                lambda s: hashlib.md5(s.encode()).hexdigest()),
        })

    out = (docs.map_batches(damage_and_repair, batch_format="pandas",
                            batch_size=8192).to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_MOJIBAKE_REPAIR = """
SELECT doc_id,
       (CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END)::BIGINT AS was_damaged,
       md5(coalesce(text, '') || ' café №' || doc_id
           ) AS repaired_md5
FROM documents ORDER BY doc_id
"""


def q_source_overlap(sf_dir: str) -> pd.DataFrame:
    """Cross-source contamination matrix (the audit run before mixing
    corpora into a training blend): for every source pair, how many
    DISTINCT 5-grams they share.  One gram-keyed exchange: per-batch
    (source, gram) distincting first (the combiner that keeps the
    exchange near gram-vocabulary scale), then each gram partition
    self-joins its <=n_sources rows and emits per-pair partials; only
    the n_sources^2-bounded pair table reaches the driver."""
    from ..functions import hashing

    docs = _read(sf_dir, "documents", ["text", "source"])

    def grams(b: pd.DataFrame) -> pd.DataFrame:
        g, d, _ = hashing.batch_word_grams(
            b["text"].fillna("").tolist(), 5)
        return pd.DataFrame({"source": b["source"].to_numpy(object)[d],
                             "gram": g}).drop_duplicates()

    rows = docs.map_batches(grams, batch_format="pandas",
                            batch_size=2048)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["source", "gram"])
        m = g.merge(g, on="gram")
        m = m[m["source_x"] < m["source_y"]]
        return (m.groupby(["source_x", "source_y"], as_index=False)
                .size().rename(columns={
                    "source_x": "source_a", "source_y": "source_b",
                    "size": "n_shared_grams"}))

    parts = partition_map(rows, "gram", pairs).to_pandas()
    out = (parts.groupby(["source_a", "source_b"], as_index=False)
           ["n_shared_grams"].sum())
    out["n_shared_grams"] = out["n_shared_grams"].astype("int64")
    return (out.sort_values(["source_a", "source_b"])
            .reset_index(drop=True))


SQL_SOURCE_OVERLAP = r"""
WITH w AS (
  SELECT source,
         list_filter(regexp_split_to_array(trim(coalesce(text, '')),
                                           '\s+'),
                     x -> x <> '') AS ws
  FROM documents
), g AS (
  SELECT DISTINCT source, array_to_string(ws[i:i+4], ' ') AS gram
  FROM w, UNNEST(generate_series(1, len(ws) - 4)) AS t(i)
)
SELECT a.source AS source_a, b.source AS source_b,
       count(*)::BIGINT AS n_shared_grams
FROM g a JOIN g b USING (gram)
WHERE a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_unigram_lm(sf_dir: str) -> pd.DataFrame:
    """SentencePiece-style unigram-LM tokenizer (textstats.
    unigram_lm_train, Kudo'18 hard-EM): train a 200-piece vocabulary
    over the corpus word table, then tokenize the corpus with it
    (unigram_lm_apply) and report corpus totals + the top-20 learned
    multi-char pieces.  Rows-only (EM is not SQL-expressible); the
    coverage/monotonicity/determinism gates live in
    tests/test_bpe_train.py."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pieces = textstats.unigram_lm_train(docs, vocab_size=200,
                                        em_iters=3, seed_keep=1000)
    enc = textstats.unigram_lm_apply(docs, pieces).to_pandas()
    top = (pieces[pieces["piece"].str.len() > 1]
           .head(20).reset_index(drop=True))
    return pd.DataFrame({
        "rank": np.arange(len(top), dtype=np.int64),
        "piece": top["piece"],
        "count": top["count"].astype("int64"),
        "corpus_pieces": np.int64(enc["n_pieces"].sum()),
        "corpus_words": np.int64(enc["n_words"].sum()),
        "corpus_chars": np.int64(enc["n_chars"].sum()),
    })


def q_range_write(sf_dir: str) -> pd.DataFrame:
    """Range-partitioned parquet SINK (relational.
    write_range_partitioned): orders actually WRITTEN to a hive
    ``shard=K/`` layout under /tmp (atomic tmp+rename publication,
    _bounds.json manifest), then the report is computed by READING THE
    FILES BACK — shard membership comes from the directory names, so
    the oracle (shared with range_shards) checks the physical layout,
    not just the plan."""
    import glob as _glob
    import hashlib
    import os

    ds = _read(sf_dir, "orders", ["o_totalprice"])
    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = f"/tmp/range_write_{key}"
    relational.write_range_partitioned(ds, "o_totalprice", out,
                                       nshards=8)
    rows = []
    for d in sorted(_glob.glob(os.path.join(out, "shard=*"))):
        shard = int(d.rsplit("=", 1)[1])
        part = rd.read_parquet(d, columns=["o_totalprice"]).to_pandas()
        rows.append({"shard": shard, "n_orders": len(part),
                     "min_price": float(part["o_totalprice"].min()),
                     "max_price": float(part["o_totalprice"].max())})
    return (pd.DataFrame(rows).astype({"shard": "int64",
                                       "n_orders": "int64"})
            .sort_values("shard").reset_index(drop=True))


# --------------------------------------------------------- csv ingestion


def q_csv_read(sf_dir: str) -> pd.DataFrame:
    """Splittable distributed CSV ingestion (sources/csvgen.py): the
    documents table is rendered once into a dirty CSV whose payload
    field embeds quotes, commas and NEWLINES, then read back with the
    two-pass quote-parity split planner at 16 byte ranges.  The SQL
    twin recomputes the payload from the source table, so a hash match
    proves quoting, record-aligned splitting and parsing are all
    byte-lossless.  Reference analogue: ocropy's file-list ingestion
    (ocrolib/common.py glob helpers), engine-shaped."""
    from ..sources.csvgen import build_csv_corpus, read_csv_dist

    path = build_csv_corpus(sf_dir)
    out = read_csv_dist(path, num_splits=16).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return (out[["doc_id", "payload", "source", "n_chars"]]
            .sort_values("doc_id").reset_index(drop=True))


SQL_CSV_READ = r"""
SELECT doc_id,
       'q="' || substr(coalesce(text, ''), 1, 40) || '", nl:' || chr(10)
            || source AS payload,
       source,
       length(coalesce(text, ''))::BIGINT AS n_chars
FROM documents ORDER BY doc_id
"""


# --------------------------------------------------------- z-order layout


def q_zorder_layout(sf_dir: str) -> pd.DataFrame:
    """Z-order (Morton) layout planner over lineitem on the 2-D key
    (quantity, partkey%64): rows are clustered along the Z-curve and
    the report is each 2048-row block's min/max envelope on BOTH
    dimensions — the pruning statistics that justify Z-order layout for
    multi-dimensional scans. Exact global ranks via the ordered_scan
    prefix-scan; the oracle replays the identical curve with
    row_number()."""
    from .relational import zorder_blocks

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_partkey"])

    def add_dims(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "bx": b["l_quantity"].to_numpy(np.float64).astype(np.int64) & 63,
            "by": b["l_partkey"].to_numpy(np.int64) % 64,
            "l_orderkey": b["l_orderkey"].to_numpy(np.int64),
            "l_linenumber": b["l_linenumber"].to_numpy(np.int64),
        })
        return out

    def key_expr(b: pd.DataFrame, z: np.ndarray) -> np.ndarray:
        # unique: (z, orderkey, linenumber) lex order composed into one
        # int64 — orderkey < 2^36, linenumber < 2^8
        return ((z << np.int64(44))
                | (b["l_orderkey"].to_numpy(np.int64) << np.int64(8))
                | b["l_linenumber"].to_numpy(np.int64))

    return zorder_blocks(
        ds.map_batches(add_dims, batch_format="pandas", batch_size=65536),
        "bx", "by", key_expr, bits=6, block_size=2048)


def _sql_zorder_layout() -> str:
    from .relational import sql_morton2

    z = sql_morton2("bx", "by", bits=6)
    return f"""
WITH t AS (
  SELECT l_orderkey, l_linenumber,
         (l_quantity::BIGINT & 63) AS bx,
         (l_partkey % 64)::BIGINT AS by
  FROM lineitem
), tz AS (
  SELECT *, {z}::BIGINT AS z FROM t
), r AS (
  SELECT *, row_number() OVER (ORDER BY z, l_orderkey, l_linenumber) AS rn
  FROM tz
)
SELECT ((rn - 1) // 2048)::BIGINT AS block,
       count(*)::BIGINT AS n_rows,
       min(bx)::BIGINT AS min_bx, max(bx)::BIGINT AS max_bx,
       min(by)::BIGINT AS min_by, max(by)::BIGINT AS max_by,
       min(z)::BIGINT AS min_z, max(z)::BIGINT AS max_z
FROM r GROUP BY block ORDER BY block
"""


SQL_ZORDER_LAYOUT = _sql_zorder_layout()


# ------------------------------------------------------------ time travel


def q_time_travel(sf_dir: str) -> pd.DataFrame:
    """Lakehouse TIME TRAVEL: reconstruct the table state AS OF each
    commit version of merge_upsert's deterministic change log (v0 =
    base load, v1 = deletes + first upserts + inserts, v2 = second
    upsert wave) and report per-version table statistics.

    Distributed shape: base+log union rides ONE key-hash bucket
    shuffle (the same exchange merge_upsert uses); each partition
    resolves latest-wins AS OF every version in one pass and emits a
    3-row partial (version, n_rows, sum_len, sum_key) — the driver
    combine is versions x partitions rows, never table-scale. At 100 TB
    this is how snapshot reads work off a compacted log: no per-version
    rescan of the base."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def base_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "seq": np.int64(0), "op": "upsert",
                             "text": b["text"].fillna("")})

    def log_rows(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].astype("int64")
        t = b["text"].fillna("")
        m = i % 9
        return pd.concat([
            pd.DataFrame({"doc_id": i[m == 0], "seq": np.int64(1),
                          "op": "delete", "text": ""}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(1),
                          "op": "upsert", "text": t[m == 1] + " v1"}),
            pd.DataFrame({"doc_id": i[m == 1], "seq": np.int64(2),
                          "op": "upsert", "text": t[m == 1] + " v2"}),
            pd.DataFrame({"doc_id": i[m == 2], "seq": np.int64(1),
                          "op": "upsert",
                          "text": "rewrite " + i[m == 2].astype(str)}),
            pd.DataFrame({"doc_id": i[m == 3] + 2_000_000,
                          "seq": np.int64(1), "op": "upsert",
                          "text": "inserted " + i[m == 3].astype(str)}),
        ], ignore_index=True)

    union = (docs.map_batches(base_rows, batch_format="pandas")
             .union(docs.map_batches(log_rows, batch_format="pandas")))

    def asof_partials(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        srt = g.sort_values(["doc_id", "seq"], ascending=[True, False])
        for v in (0, 1, 2):
            live = (srt[srt["seq"] <= v]
                    .groupby("doc_id", as_index=False).head(1))
            live = live[live["op"] != "delete"]
            rows.append({
                "version": v, "n_rows": len(live),
                "sum_len": int(live["text"].str.len().sum()),
                "sum_key": int(live["doc_id"].sum()),
            })
        return pd.DataFrame(rows)

    parts = partition_map(union, "doc_id", asof_partials).to_pandas()
    out = (parts.groupby("version", as_index=False)
           .agg(n_rows=("n_rows", "sum"), sum_len=("sum_len", "sum"),
                sum_key=("sum_key", "sum")))
    return (out.astype("int64").sort_values("version")
            .reset_index(drop=True))


SQL_TIME_TRAVEL = r"""
WITH base AS (
  SELECT doc_id, 0 AS seq, 'upsert' AS op, coalesce(text, '') AS text
  FROM documents
), log AS (
  SELECT doc_id, 1 AS seq, 'delete' AS op, '' AS text
  FROM documents WHERE doc_id % 9 = 0
  UNION ALL
  SELECT doc_id, 1, 'upsert', coalesce(text, '') || ' v1'
  FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 2, 'upsert', coalesce(text, '') || ' v2'
  FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 1, 'upsert', 'rewrite ' || doc_id::VARCHAR
  FROM documents WHERE doc_id % 9 = 2
  UNION ALL
  SELECT doc_id + 2000000, 1, 'upsert', 'inserted ' || doc_id::VARCHAR
  FROM documents WHERE doc_id % 9 = 3
), u AS (
  SELECT * FROM base UNION ALL SELECT * FROM log
), versions AS (SELECT unnest([0, 1, 2]) AS version),
snap AS (
  SELECT v.version, u.*,
         row_number() OVER (PARTITION BY v.version, u.doc_id
                            ORDER BY u.seq DESC) AS rn
  FROM versions v JOIN u ON u.seq <= v.version
)
SELECT version::BIGINT AS version,
       count(*)::BIGINT AS n_rows,
       sum(length(text))::BIGINT AS sum_len,
       sum(doc_id)::BIGINT AS sum_key
FROM snap WHERE rn = 1 AND op <> 'delete'
GROUP BY version ORDER BY version
"""


# ------------------------------------------------------- expectations gate


def q_expectations(sf_dir: str) -> pd.DataFrame:
    """Data-quality EXPECTATIONS gate (Delta constraints / Great
    Expectations shape): validate orders against a constraint suite —
    three row-local predicates plus one referential-integrity check
    into customer — and report per-constraint violation counts and the
    quarantine size (rows failing ANY constraint).

    Distributed shape: the FK flag rides ONE left bucket_join against
    the distinct customer keys (large x large safe — no broadcast of
    the dimension table); every row-local predicate and the OR-fold
    are vectorized in the same pass; only the fixed-size per-batch
    count partials reach the driver."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderstatus",
                    "o_totalprice", "o_orderpriority"])
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def mark(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_exists"] = np.int64(1)
        return b

    joined = bucket_join(orders, cust.map_batches(mark,
                                                  batch_format="pandas"),
                         "o_custkey", "c_custkey", how="left")

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        status_bad = ~b["o_orderstatus"].isin(["O", "F"]).to_numpy()
        prio_bad = ~b["o_orderpriority"].isin(
            ["1-URGENT", "2-HIGH", "3-MEDIUM"]).to_numpy()
        price_bad = (b["o_totalprice"].to_numpy(np.float64) > 300000.0)
        fk_bad = b["_exists"].isna().to_numpy()
        any_bad = status_bad | prio_bad | price_bad | fk_bad
        return pd.DataFrame({
            "constraint": ["status_known", "priority_high",
                           "price_le_300k", "custkey_exists",
                           "any_violation"],
            "n_violations": np.array(
                [status_bad.sum(), prio_bad.sum(), price_bad.sum(),
                 fk_bad.sum(), any_bad.sum()], dtype="int64"),
        })

    parts = joined.map_batches(counts, batch_format="pandas").to_pandas()
    out = (parts.groupby("constraint", as_index=False)
           .agg(n_violations=("n_violations", "sum")))
    out["n_violations"] = out["n_violations"].astype("int64")
    return out.sort_values("constraint").reset_index(drop=True)


SQL_EXPECTATIONS = r"""
WITH flags AS (
  SELECT (o.o_orderstatus NOT IN ('O', 'F'))::INT AS status_bad,
         (o.o_orderpriority NOT IN
            ('1-URGENT', '2-HIGH', '3-MEDIUM'))::INT AS prio_bad,
         (o.o_totalprice > 300000.0)::INT AS price_bad,
         (c.c_custkey IS NULL)::INT AS fk_bad
  FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
), counts AS (
  SELECT 'status_known' AS constraint, sum(status_bad) AS n FROM flags
  UNION ALL
  SELECT 'priority_high', sum(prio_bad) FROM flags
  UNION ALL
  SELECT 'price_le_300k', sum(price_bad) FROM flags
  UNION ALL
  SELECT 'custkey_exists', sum(fk_bad) FROM flags
  UNION ALL
  SELECT 'any_violation',
         sum(greatest(status_bad, prio_bad, price_bad, fk_bad)) FROM flags
)
SELECT "constraint", n::BIGINT AS n_violations
FROM counts ORDER BY "constraint"
"""


# ------------------------------------- incremental aggregate maintenance


def q_incremental_agg(sf_dir: str) -> pd.DataFrame:
    """Incremental MATERIALIZED-VIEW maintenance: a per-event_type
    (count, sum-of-cents) aggregate is refreshed from a CDC change log
    (deletes of event_id % 13 == 0, inserts derived from
    event_id % 17 == 0 with value + 1) by merging the base aggregate
    with a SIGNED delta aggregate computed from the log ALONE — the
    base table is never rescanned for the refresh.

    Distributed shape: both the base aggregate and the delta aggregate
    are per-batch partial combines (grouped_agg) — the driver merge is
    event-type-cardinality sized. The oracle recomputes the refreshed
    table from scratch; equality proves the delta algebra. Cents are
    floor(value * 100) so every sum is integer-exact."""
    events = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].astype("int64"),
            "event_type": b["event_type"],
            "cents": np.floor(b["value"].to_numpy(np.float64)
                              * 100).astype("int64"),
        })

    base = grouped_agg(events.map_batches(cents, batch_format="pandas"),
                       ["event_type"], sums=["cents"])

    def log_delta(b: pd.DataFrame) -> pd.DataFrame:
        i = b["event_id"].astype("int64")
        c = np.floor(b["value"].to_numpy(np.float64) * 100).astype("int64")
        dele = i % 13 == 0
        ins = i % 17 == 0
        return pd.concat([
            pd.DataFrame({"event_type": b["event_type"][dele],
                          "d_n": np.int64(-1),
                          "d_cents": -c[dele.to_numpy()]}),
            pd.DataFrame({"event_type": b["event_type"][ins],
                          "d_n": np.int64(1),
                          "d_cents": (c + 100)[ins.to_numpy()]}),
        ], ignore_index=True)

    delta = grouped_agg(events.map_batches(log_delta,
                                           batch_format="pandas"),
                        ["event_type"], sums=["d_n", "d_cents"],
                        counts=False)

    m = base.merge(delta, on="event_type", how="outer").fillna(0)
    out = pd.DataFrame({
        "event_type": m["event_type"],
        "n_events": (m["n"] + m["sum_d_n"]).astype("int64"),
        "sum_cents": (m["sum_cents"] + m["sum_d_cents"]).astype("int64"),
    })
    # group-deletion rule: a group whose maintained count reaches 0 has
    # no surviving rows and must vanish from the view (a full recompute
    # has no such group; without this the refresh emits a phantom
    # zero row when every event of some type is CDC-deleted)
    out = out[out["n_events"] > 0]
    return out.sort_values("event_type").reset_index(drop=True)


SQL_INCREMENTAL_AGG = r"""
WITH modified AS (
  SELECT event_type, floor(value * 100)::BIGINT AS cents
  FROM events WHERE event_id % 13 <> 0
  UNION ALL
  SELECT event_type, floor(value * 100)::BIGINT + 100
  FROM events WHERE event_id % 17 = 0
)
SELECT event_type,
       count(*)::BIGINT AS n_events,
       sum(cents)::BIGINT AS sum_cents
FROM modified GROUP BY event_type ORDER BY event_type
"""


# ------------------------------------------------------------ attribution


def q_attribution(sf_dir: str) -> pd.DataFrame:
    """First-touch / last-touch conversion attribution: every purchase
    credits the earliest and the latest click/view of the same user in
    the 7-day lookback window (ties at equal timestamps broken by
    event_id). One user-hash shuffle; per partition both models come
    from two searchsorted calls on the composed (user-rank, ts) key —
    no touches x conversions pair table (the SQL twin has to build
    one)."""
    from .windows import attribution_credit

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])
    return attribution_credit(ds)


SQL_ATTRIBUTION = r"""
WITH conv AS (
  SELECT user_id, ts, event_id FROM events WHERE event_type = 'purchase'
), touch AS (
  SELECT user_id, ts, event_id, event_type FROM events
  WHERE event_type IN ('click', 'view')
), pairs AS (
  SELECT c.event_id AS conv_id, t.event_type, t.ts, t.event_id AS tid
  FROM conv c JOIN touch t
    ON t.user_id = c.user_id
   AND t.ts <= c.ts
   AND t.ts >= c.ts - INTERVAL 7 DAY
), ranked AS (
  SELECT conv_id, event_type,
         row_number() OVER (PARTITION BY conv_id
                            ORDER BY ts ASC, tid ASC) AS rf,
         row_number() OVER (PARTITION BY conv_id
                            ORDER BY ts DESC, tid DESC) AS rl
  FROM pairs
)
SELECT * FROM (
  SELECT 'first' AS model, event_type AS channel,
         count(*)::BIGINT AS n_conversions
  FROM ranked WHERE rf = 1 GROUP BY event_type
  UNION ALL
  SELECT 'last', event_type, count(*)::BIGINT
  FROM ranked WHERE rl = 1 GROUP BY event_type
) ORDER BY model, channel
"""


def q_percentile_cont(sf_dir: str) -> pd.DataFrame:
    """Per-event-type INTERPOLATED quantiles (quantile_cont rule:
    linear interpolation between the two bracketing order statistics,
    replicated in DuckDB's exact IEEE evaluation order) — the
    continuous-domain sibling of quantiles_by_type."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = relational.grouped_quantiles(
        ds, "event_type", "value", qs=(0.25, 0.5, 0.75, 0.9),
        rule="cont")
    return out


SQL_PERCENTILE_CONT = """
WITH q AS (
  SELECT event_type,
         quantile_cont(value, 0.25) AS q25,
         quantile_cont(value, 0.5)  AS q50,
         quantile_cont(value, 0.75) AS q75,
         quantile_cont(value, 0.9)  AS q90
  FROM events GROUP BY event_type
)
SELECT event_type, u.q, u.value
FROM q, LATERAL (VALUES (0.25, q25), (0.5, q50),
                        (0.75, q75), (0.9, q90)) u(q, value)
ORDER BY event_type, q
"""


# -------------------------------------------------------- weighted sample


def q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis A-Res
    with deterministic pseudo-randomness): each doc gets priority
    w / u where w = n_chars + 1 and u = (Knuth-hash(doc_id) % 2^32) + 1,
    and the global top-20 priorities win — longer docs are
    proportionally likelier but the draw is reproducible and
    SQL-replicable (one IEEE double division on both sides; division
    is exactly rounded, so the twins agree bit-for-bit). Twin-contract
    envelope: doc_id * 2654435761 must fit BIGINT on the DuckDB side
    (doc_id < ~3.4e9 — the same bound as every hash-twin query in this
    registry); the numpy side wraps mod 2^64 and keeps working past it.

    Distributed shape: per-block top-k partials -> driver merge of
    k x blocks rows (relational.topk) — no global sort, no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def prio(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].to_numpy(np.int64)
        u = ((i * 2654435761) % 4294967296 + 1).astype(np.float64)
        w = (b["n_chars"].to_numpy(np.int64) + 1).astype(np.float64)
        return pd.DataFrame({
            "doc_id": i,
            "n_chars": b["n_chars"].to_numpy(np.int64),
            "priority": w / u,
        })

    out = topk(ds.map_batches(prio, batch_format="pandas",
                              batch_size=65536),
               ["priority", "doc_id"], 20, ascending=[False, True])
    return out.reset_index(drop=True)


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, n_chars,
       (n_chars + 1)::DOUBLE
         / ((doc_id * 2654435761) % 4294967296 + 1)::DOUBLE AS priority
FROM documents
ORDER BY priority DESC, doc_id ASC
LIMIT 20
"""


# ----------------------------------------------------- interval coalescing


def q_coalesce_intervals(sf_dir: str) -> pd.DataFrame:
    """Per-user interval coalescing: each event opens an interval of
    (event_id % 300) seconds; overlapping-or-touching intervals merge
    into islands (the classic gaps-and-islands shape — uptime windows,
    ad-exposure spans). Reports per user the island count and covered
    microseconds. One user-hash shuffle + one vectorized cummax pass
    per partition; the twin replays it with a running-max window."""
    from .windows import coalesce_intervals

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def durs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].astype("int64"),
            "ts": b["ts"],
            "dur_us": (b["event_id"].to_numpy(np.int64) % 300)
            * np.int64(1_000_000),
        })

    return coalesce_intervals(
        ds.map_batches(durs, batch_format="pandas"))


SQL_COALESCE_INTERVALS = r"""
WITH iv AS (
  SELECT user_id, ts AS s,
         ts + (event_id % 300) * INTERVAL 1 SECOND AS e
  FROM events
), m AS (
  SELECT user_id, s, e,
         max(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING) AS prev_max
  FROM iv
), isl AS (
  SELECT user_id, s, e,
         sum(CASE WHEN prev_max IS NULL OR s > prev_max
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS UNBOUNDED PRECEDING) AS island
  FROM m
), agg AS (
  SELECT user_id, island,
         date_diff('microsecond', min(s), max(e)) AS covered
  FROM isl GROUP BY user_id, island
)
SELECT user_id,
       count(*)::BIGINT AS n_islands,
       sum(covered)::BIGINT AS covered_us
FROM agg GROUP BY user_id ORDER BY user_id
"""


# ------------------------------------------------------------- typo pairs


def q_typo_pairs(sf_dir: str) -> pd.DataFrame:
    """Edit-distance-1 similarity JOIN (FastSS deletion neighborhoods —
    the spelling-variant / entity-blocking shape): over the corpus's
    distinct words of length >= 4 plus a deterministic planted variant
    of each (middle character deleted), find every unordered pair
    within one edit. The term table is distinct after ONE term-keyed
    exchange; candidates come from typo_pairs' variant-keyed exchange
    (no all-pairs scan); a vectorized-DP Levenshtein verify on the
    deduped pair stream kills the rule's false positives. The twin
    brute-forces the same term table with DuckDB's levenshtein()."""
    from .dedup import typo_pairs

    docs = _read(sf_dir, "documents", ["text"])

    def local_terms(b: pd.DataFrame) -> pd.DataFrame:
        w = b["text"].fillna("").str.split().explode().dropna()
        w = w[w.str.len() >= 4].unique()
        terms = set(w)
        for t in w:
            p = len(t) // 2
            terms.add(t[:p] + t[p + 1:])
        return pd.DataFrame({"term": np.asarray(sorted(terms), dtype=object)})

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates("term")

    terms = partition_map(docs.map_batches(local_terms,
                                           batch_format="pandas"),
                          "term", distinct)
    return typo_pairs(terms)


SQL_TYPO_PAIRS = r"""
WITH w AS (
  SELECT DISTINCT unnest(regexp_split_to_array(
           trim(coalesce(text, '')), '\s+')) AS w
  FROM documents
), ws AS (
  SELECT w FROM w WHERE length(w) >= 4
), terms AS (
  SELECT DISTINCT t FROM (
    SELECT w AS t FROM ws
    UNION
    SELECT substr(w, 1, length(w) // 2)
           || substr(w, length(w) // 2 + 2) FROM ws
  )
)
SELECT a.t AS a, b.t AS b, levenshtein(a.t, b.t)::BIGINT AS dist
FROM terms a JOIN terms b ON a.t < b.t AND levenshtein(a.t, b.t) <= 1
ORDER BY a, b
"""


# ---------------------------------------------------------------- skyline


def q_skyline(sf_dir: str) -> pd.DataFrame:
    """Pareto SKYLINE (maximize both l_quantity and l_extendedprice):
    the points no other point weakly dominates with at least one strict
    excess. Distributed shape: ONE grouped-max pass collapses the
    corpus to qty-cardinality rows (per-batch partial combine), and the
    monotone strictly-decreasing-price filter runs on that bounded
    frontier — at any corpus size the driver sees |distinct qty| rows,
    never points. Twin replays with a running-max window."""
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "qty": np.floor(
                b["l_quantity"].to_numpy(np.float64)).astype(np.int64),
            "cents": np.floor(b["l_extendedprice"].to_numpy(np.float64)
                              * 100).astype(np.int64),
        })

    m = grouped_agg(li.map_batches(prep, batch_format="pandas"),
                    ["qty"], maxs=("cents",), counts=False)
    m = m.sort_values("qty", ascending=False).reset_index(drop=True)
    price = m["max_cents"].to_numpy(np.int64)
    run = np.maximum.accumulate(price)
    keep = np.empty(len(m), dtype=bool)
    if len(m):
        keep[0] = True
        keep[1:] = price[1:] > run[:-1]
    out = pd.DataFrame({"qty": m["qty"].astype("int64")[keep],
                        "price_cents": price[keep]})
    return out.sort_values("qty").reset_index(drop=True)


SQL_SKYLINE = """
WITH m AS (
  SELECT floor(l_quantity)::BIGINT AS qty,
         max(floor(l_extendedprice * 100)::BIGINT) AS price_cents
  FROM lineitem GROUP BY 1
), s AS (
  SELECT qty, price_cents,
         max(price_cents) OVER (ORDER BY qty DESC
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                         AND 1 PRECEDING) AS pm
  FROM m
)
SELECT qty, price_cents FROM s
WHERE pm IS NULL OR price_cents > pm
ORDER BY qty
"""


# ------------------------------------------------------ transition matrix


def q_transition_matrix(sf_dir: str) -> pd.DataFrame:
    """First-order Markov TRANSITION counts between consecutive event
    types per user (ordered by ts, ties by event_id): the behavioral
    sequence model behind next-event prediction and anomaly scoring.
    One user-hash shuffle; per partition one lexsort + shifted compare
    (no per-user loop); driver sees types x types x partitions rows."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": b["user_id"].to_numpy(np.int64),
            "ts": b["ts"],
            "eid": b["event_id"].to_numpy(np.int64),
            "et": b["event_type"],
        })

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy(np.int64)
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["eid"].to_numpy(np.int64)
        et = g["et"].to_numpy(object)
        order = np.lexsort((eid, ts, k))
        ks, ets = k[order], et[order]
        same = ks[1:] == ks[:-1]
        src, dst = ets[:-1][same], ets[1:][same]
        df = pd.DataFrame({"src": src, "dst": dst})
        out = df.groupby(["src", "dst"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    parts = partition_map(ds.map_batches(project, batch_format="pandas"),
                          "k", per_part).to_pandas()
    out = (parts.groupby(["src", "dst"], as_index=False)
           .agg(n=("n", "sum")))
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


SQL_TRANSITION_MATRIX = """
WITH seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS src, nxt AS dst, count(*)::BIGINT AS n
FROM seq WHERE nxt IS NOT NULL
GROUP BY src, dst ORDER BY src, dst
"""


# ---------------------------------------------------------- Benford audit


def q_benford_digits(sf_dir: str) -> pd.DataFrame:
    """Benford first-significant-digit audit over o_totalprice (the
    fraud/data-entry anomaly screen): counts and integer permille per
    leading digit. Pure per-batch partial combine — the driver reduce
    is 9 x batches rows."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def digits(b: pd.DataFrame) -> pd.DataFrame:
        v = np.floor(b["o_totalprice"].to_numpy(np.float64)).astype(np.int64)
        v = v[v > 0]
        # leading digit: strip trailing decades with log10-free integer
        # division via string length (exact; no float log edge cases)
        d = v.astype("U").astype("U1").astype(np.int64)  # first character
        cnt = np.bincount(d, minlength=10)[1:]
        return pd.DataFrame({"digit": np.arange(1, 10, dtype=np.int64),
                             "n": cnt.astype("int64")})

    parts = ds.map_batches(digits, batch_format="pandas").to_pandas()
    out = parts.groupby("digit", as_index=False).agg(n=("n", "sum"))
    out = out[out["n"] > 0]  # SQL twin never emits an absent digit
    total = int(out["n"].sum())
    if total == 0:  # no positive values: the twin returns zero rows
        return pd.DataFrame({"digit": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64"),
                             "permille": pd.Series([], dtype="int64")})
    out["permille"] = (out["n"] * 1000 // total).astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("digit").reset_index(drop=True)


SQL_BENFORD_DIGITS = """
WITH v AS (
  SELECT floor(o_totalprice)::BIGINT AS x FROM orders
  WHERE floor(o_totalprice) > 0
), d AS (
  SELECT substr(x::VARCHAR, 1, 1)::BIGINT AS digit FROM v
), c AS (
  SELECT digit, count(*)::BIGINT AS n FROM d GROUP BY digit
)
SELECT digit, n, (n * 1000 // sum(n) OVER ())::BIGINT AS permille
FROM c ORDER BY digit
"""


# --------------------------------------------------------- grouped trend


def q_trend_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source OLS trend of document length over doc_id, as an EXACT
    RATIONAL: slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2) reported as
    integer (numerator, denominator) — distributed regression by
    sufficient statistics (one per-batch partial-combine pass; the
    driver reduce is sources x batches rows; float slopes would be
    summation-order-dependent, integers are exact). Also emits the
    slope in integer permille for readability."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["doc_id"].to_numpy(np.int64)
        y = b["n_chars"].to_numpy(np.int64)
        d = pd.DataFrame({"source": b["source"], "x": x, "y": y,
                          "xx": x * x, "xy": x * y})
        g = d.groupby("source", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxx=("xx", "sum"), sxy=("xy", "sum"))
        return g

    parts = ds.map_batches(moments, batch_format="pandas",
                           batch_size=65536).to_pandas()
    g = parts.groupby("source", as_index=False).agg(
        n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
        sxx=("sxx", "sum"), sxy=("sxy", "sum"))
    g = g[g["n"] >= 2].reset_index(drop=True)  # slope undefined for n=1
    # int64 envelope guard: n*sxx ~ n^4/3 for dense ids — raise loudly
    # (as DuckDB's BIGINT multiply does) instead of wrapping silently
    if len(g) and (g["n"].astype("float64")
                   * g["sxx"].astype("float64")).max() >= float(2**62):
        raise OverflowError(
            "trend_by_source: n*sxx exceeds the int64 envelope "
            "(~70k dense doc_ids per source); center x per source first")
    n = g["n"].astype("int64")
    num = (n * g["sxy"] - g["sx"] * g["sy"]).astype("int64")
    den = (n * g["sxx"] - g["sx"] * g["sx"]).astype("int64")
    # DuckDB's integer // truncates toward zero, numpy's floors —
    # truncate explicitly (den is a scaled variance, always > 0)
    num1000 = num * 1000
    permille = np.sign(num1000) * (np.abs(num1000) // den)
    out = pd.DataFrame({
        "source": g["source"],
        "n": n,
        "slope_num": num,
        "slope_den": den,
        "slope_permille": permille.astype("int64"),
    })
    return out.sort_values("source").reset_index(drop=True)


SQL_TREND_BY_SOURCE = """
WITH m AS (
  SELECT source,
         count(*)::BIGINT AS n,
         sum(doc_id)::BIGINT AS sx,
         sum(n_chars)::BIGINT AS sy,
         sum(doc_id * doc_id)::BIGINT AS sxx,
         sum(doc_id * n_chars)::BIGINT AS sxy
  FROM documents GROUP BY source
  HAVING count(*) >= 2
)
SELECT source, n,
       (n * sxy - sx * sy)::BIGINT AS slope_num,
       (n * sxx - sx * sx)::BIGINT AS slope_den,
       ((n * sxy - sx * sy) * 1000 // (n * sxx - sx * sx))::BIGINT
         AS slope_permille
FROM m ORDER BY source
"""


# ----------------------------------------------------- interval overlap join


def q_interval_join(sf_dir: str) -> pd.DataFrame:
    """Interval-OVERLAP join (windows.interval_overlap_join): even
    event_ids open [ts, ts+(id%120+1)s) "exposure" intervals, odd ids
    open [ts, ts+(id%90+1)s) "session" intervals; per exposure, the
    count of same-type overlapping sessions plus the sum of their ids
    (a value witness that the exact pair set was found). Chunked-range
    replication + one (key,bucket) shuffle + canonical-bucket dedup —
    no all-pairs scan; the twin evaluates the raw overlap predicate."""
    from .windows import interval_overlap_join
    from ..functions import hashing

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def both(b: pd.DataFrame) -> pd.DataFrame:
        # one scan emits both sides (side = event_id parity); the core's
        # single-dataset form then needs one replicate stage, no union
        eid = b["event_id"].to_numpy(np.int64)
        s = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        key = hashing.hash_strings(
            b["event_type"].to_numpy(str)).astype(np.int64)
        side = (eid % 2).astype(np.int8)
        mod = np.where(side == 0, 120, 90)
        return pd.DataFrame({
            "id": eid, "key": key, "s": s,
            "e": s + (eid % mod + 1) * np.int64(1_000_000),
            "side": side})

    out = interval_overlap_join(
        ds.map_batches(both, batch_format="pandas")).to_pandas()
    return out.sort_values("a_id").reset_index(drop=True)


SQL_INTERVAL_JOIN = r"""
WITH a AS (
  SELECT event_id AS a_id, event_type, ts AS s,
         ts + ((event_id % 120) + 1) * INTERVAL 1 SECOND AS e
  FROM events WHERE event_id % 2 = 0
), b AS (
  SELECT event_id AS b_id, event_type, ts AS s,
         ts + ((event_id % 90) + 1) * INTERVAL 1 SECOND AS e
  FROM events WHERE event_id % 2 = 1
)
SELECT a.a_id, count(*)::BIGINT AS n_overlap, sum(b.b_id)::BIGINT AS sum_b
FROM a JOIN b ON a.event_type = b.event_type
            AND a.s < b.e AND b.s < a.e
GROUP BY a.a_id ORDER BY a.a_id
"""


# ------------------------------------------------------- gap fill / resample


def q_gapfill_hourly(sf_dir: str) -> pd.DataFrame:
    """Dense hourly RESAMPLE with gap fill (windows.gapfill_hourly):
    per event_type, every hour between its first and last event —
    missing hours as explicit zero rows — with integer-cent value sums
    and a forward-filled last-non-empty-hour staleness column. The twin
    rebuilds the grid with generate_series + a running-max window."""
    from .windows import gapfill_hourly

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "ts": b["ts"],
            "cents": np.floor(
                b["value"].to_numpy(np.float64) * 100).astype(np.int64)})

    return gapfill_hourly(ds.map_batches(prep, batch_format="pandas"))


SQL_GAPFILL_HOURLY = r"""
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hr,
         count(*)::BIGINT AS n,
         sum(floor(value * 100)::BIGINT)::BIGINT AS cents
  FROM events GROUP BY 1, 2
), bounds AS (
  SELECT event_type, min(hr) AS lo, max(hr) AS hi FROM h GROUP BY 1
), grid AS (
  SELECT b.event_type, g.hr
  FROM bounds b, unnest(generate_series(b.lo, b.hi, INTERVAL 1 HOUR))
       AS g(hr)
), j AS (
  SELECT g.event_type, g.hr,
         coalesce(h.n, 0)::BIGINT AS n_events,
         coalesce(h.cents, 0)::BIGINT AS sum_cents
  FROM grid g LEFT JOIN h ON g.event_type = h.event_type AND g.hr = h.hr
)
SELECT event_type, hr, n_events, sum_cents,
       max(CASE WHEN n_events > 0 THEN hr END)
         OVER (PARTITION BY event_type ORDER BY hr
               ROWS UNBOUNDED PRECEDING) AS last_seen
FROM j ORDER BY event_type, hr
"""


# ---------------------------------------------------------- max concurrency


def q_max_concurrency(sf_dir: str) -> pd.DataFrame:
    """Peak-concurrency sweep line (windows.max_concurrency): each event
    opens [ts, ts+(id%300+1)s); per event_type, the maximum number of
    simultaneously-open intervals and the first instant it is reached.
    Distributed segmented prefix scan over (key, day-bucket) groups —
    only bucket summaries reach the driver. The twin replays the ±1
    sweep with a running-sum window."""
    from .windows import max_concurrency

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        s = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = b["event_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "event_type": b["event_type"].astype(str),
            "s": s, "e": s + (eid % 300 + 1) * np.int64(1_000_000)})

    out = max_concurrency(ds.map_batches(prep, batch_format="pandas"),
                          key_col="event_type")
    return out


SQL_MAX_CONCURRENCY = r"""
WITH iv AS (
  SELECT event_type, ts AS s,
         ts + ((event_id % 300) + 1) * INTERVAL 1 SECOND AS e
  FROM events
), pts AS (
  SELECT event_type, s AS t, 1 AS d FROM iv
  UNION ALL
  SELECT event_type, e AS t, -1 AS d FROM iv
), g AS (
  SELECT event_type, t, sum(d)::BIGINT AS dd FROM pts GROUP BY 1, 2
), c AS (
  SELECT event_type, t,
         sum(dd) OVER (PARTITION BY event_type ORDER BY t
                       ROWS UNBOUNDED PRECEDING) AS conc
  FROM g
)
SELECT c.event_type, c.conc::BIGINT AS max_concurrent,
       min(c.t) AS first_at
FROM c JOIN (SELECT event_type, max(conc) AS m FROM c GROUP BY 1) mx
  ON c.event_type = mx.event_type AND c.conc = mx.m
GROUP BY 1, 2 ORDER BY 1
"""


# ----------------------------------------------------- file compaction


def q_compact_files(sf_dir: str) -> pd.DataFrame:
    """Lakehouse small-file COMPACTION (relational.compact_parquet):
    the documents table is first fragmented into 24 small parquet
    files (the many-small-files state a streaming writer leaves
    behind), then bin-packed and rewritten into ~4 target-size files
    by parallel group tasks with a resumable plan + manifest. The
    report is computed by READING THE COMPACTED FILES BACK — a value
    hash against the source table proves the rewrite was lossless."""
    import glob as _glob
    import hashlib
    import os
    import shutil

    from .relational import compact_parquet

    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    src = f"/tmp/compact_src_{key}"
    if not os.path.isdir(src):
        tmp = src + f".tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        (_read(sf_dir, "documents", ["doc_id", "text", "source"])
         .repartition(24).write_parquet(tmp))
        try:
            os.rename(tmp, src)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    total = sum(os.path.getsize(p)
                for p in _glob.glob(os.path.join(src, "*.parquet")))
    out = f"/tmp/compact_out_{key}"
    manifest = compact_parquet(src, out, target_bytes=max(total // 4, 1))
    assert manifest["n_files_after"] < manifest["n_files_before"]
    back = rd.read_parquet(
        sorted(_glob.glob(os.path.join(out, "part-*.parquet"))))

    def report(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "n_chars": b["text"].fillna("").str.len().to_numpy(np.int64),
            "source": b["source"].astype(str)})

    res = back.map_batches(report, batch_format="pandas").to_pandas()
    return res.sort_values("doc_id").reset_index(drop=True)


SQL_COMPACT_FILES = r"""
SELECT doc_id, length(coalesce(text, ''))::BIGINT AS n_chars, source
FROM documents ORDER BY doc_id
"""


# -------------------------------------------------------- change point


def q_changepoint(sf_dir: str) -> pd.DataFrame:
    """CHANGE-POINT detection per event_type (CUSUM shape): over the
    ordered hourly count series, the split hour maximizing the
    integer-exact scaled CUSUM statistic |n*P_k - k*T| (P_k = prefix
    sum, T = total, n = hours) — the hour where the mean level shifts
    most. All-integer so the twin matches bit-for-bit; ties take the
    earliest hour. One metadata-scale shuffle: per-batch partial
    (type, hour) counts, then the series statistic vectorized per
    partition via one segmented prefix sum. Monitoring shape for drift
    in a streaming ingest (events/hour regime changes)."""
    from .windows import HOUR_US as HOUR
    from .windows import hourly_partials, merge_hour_partials

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return hourly_partials(b, "event_type", "ts")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        keys, kid, hr, merged, gstart = merge_hour_partials(g, ("n",))
        cnt = merged["n"]
        cs = np.cumsum(cnt)
        base = np.concatenate([[0], cs[gstart[1:] - 1]])[kid]
        pk = cs - base
        gl = np.diff(np.concatenate([gstart, [len(kid)]]))
        tt = pk[np.concatenate([gstart[1:], [len(kid)]]) - 1][kid]
        nn = gl[kid]
        rk = np.arange(len(kid), dtype=np.int64) - gstart[kid] + 1
        d = np.abs(nn * pk - rk * tt)
        # exclude the last row of each series (k = n is not a split)
        last = np.concatenate([gstart[1:], [len(kid)]]) - 1
        d[last] = -1
        dmax = np.maximum.reduceat(d, gstart)
        hit = d == dmax[kid]
        first = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, kid[hit], np.flatnonzero(hit))
        # a single-hour series has no valid split (every row excluded,
        # dmax stays -1): omit it, matching the twin's rk < nn filter
        keep = dmax >= 0
        return pd.DataFrame({
            "event_type": keys[keep],
            "split_hour": (hr[first[keep]] * HOUR).astype("datetime64[us]"),
            "d_stat": dmax[keep].astype("int64")})

    out = partition_map(ds.map_batches(partial, batch_format="pandas"),
                        "k", per_part).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CHANGEPOINT = r"""
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hr, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), s AS (
  SELECT event_type, hr,
         sum(n) OVER (PARTITION BY event_type ORDER BY hr
                      ROWS UNBOUNDED PRECEDING) AS pk,
         row_number() OVER (PARTITION BY event_type ORDER BY hr) AS rk,
         sum(n) OVER (PARTITION BY event_type) AS tt,
         count(*) OVER (PARTITION BY event_type) AS nn
  FROM h
), d AS (
  SELECT event_type, hr, abs(nn * pk - rk * tt) AS d
  FROM s WHERE rk < nn
)
SELECT d.event_type, min(d.hr) AS split_hour, d.d::BIGINT AS d_stat
FROM d JOIN (SELECT event_type, max(d) AS m FROM d GROUP BY 1) mx
  ON d.event_type = mx.event_type AND d.d = mx.m
GROUP BY 1, 3 ORDER BY 1
"""


# ------------------------------------------------------ evolving schema read


def q_evolving_read(sf_dir: str) -> pd.DataFrame:
    """Schema-EVOLUTION read (sources/evolving.py): the documents table
    is rendered once as three generation files — gen0 (doc_id:int32,
    text), gen1 (+source), gen2 (+quality:float32) — then read back as
    ONE Dataset via the unified-schema scan (footer-only driver scan,
    int32->int64 promotion, missing columns null-filled inside the read
    tasks). The twin recomputes every generation's view from the source
    table, so a hash match proves promotion and null-fill are lossless."""
    import hashlib
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..sources.evolving import read_parquet_evolving

    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    d = f"/tmp/evolving_{key}"
    if not os.path.isdir(d):
        tmp = d + f".tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        docs = _read_pd(sf_dir, "documents", ["doc_id", "text", "source"])
        docs["text"] = docs["text"].fillna("")
        g = docs["doc_id"].to_numpy(np.int64) % 3
        g0 = docs[g == 0]
        pq.write_table(pa.table({
            "doc_id": pa.array(g0["doc_id"].to_numpy(np.int32)),
            "text": pa.array(g0["text"])}), os.path.join(tmp, "gen0.parquet"))
        g1 = docs[g == 1]
        pq.write_table(pa.table({
            "doc_id": pa.array(g1["doc_id"].to_numpy(np.int64)),
            "text": pa.array(g1["text"]),
            "source": pa.array(g1["source"].astype(str))}),
            os.path.join(tmp, "gen1.parquet"))
        g2 = docs[g == 2]
        qual = (g2["text"].str.len().to_numpy(np.float32)
                / np.float32(100.0))
        pq.write_table(pa.table({
            "doc_id": pa.array(g2["doc_id"].to_numpy(np.int64)),
            "text": pa.array(g2["text"]),
            "source": pa.array(g2["source"].astype(str)),
            "quality": pa.array(qual, pa.float32())}),
            os.path.join(tmp, "gen2.parquet"))
        try:
            os.rename(tmp, d)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)

    ds = read_parquet_evolving(d, columns=["doc_id", "source", "quality"])

    def report(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "source": b["source"].fillna("").astype(str),
            "quality": b["quality"].astype(np.float64).fillna(-1.0)})

    return (ds.map_batches(report, batch_format="pandas").to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


SQL_EVOLVING_READ = r"""
SELECT doc_id,
       CASE WHEN doc_id % 3 = 1 OR doc_id % 3 = 2
            THEN source ELSE '' END AS source,
       CASE WHEN doc_id % 3 = 2
            THEN (length(coalesce(text, ''))::FLOAT
                  / 100.0::FLOAT)::DOUBLE
            ELSE -1.0 END AS quality
FROM documents ORDER BY doc_id
"""


def q_vacuum_audit(sf_dir: str) -> pd.DataFrame:
    """VACUUM audit (relational.vacuum_dir) over the compacted table
    from q_compact_files: a stale non-manifest file is planted beside
    the published parts (the debris a killed writer leaves), then a
    dry-run vacuum classifies every file against the manifest's
    referenced set — referenced parts kept, the old orphan eligible,
    anything young kept for the retention window. Driver-only metadata
    pass; rows-only (filesystem maintenance, not SQL-expressible)."""
    import glob as _glob
    import hashlib
    import os
    import time

    import pyarrow.parquet as _pq

    from .relational import vacuum_dir

    # ensure the compacted fixture exists (shared cache key)
    q_compact_files(sf_dir)
    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = f"/tmp/compact_out_{key}"
    orphan = os.path.join(out, "leftover-000.parquet")
    if not os.path.exists(orphan):
        _pq.write_table(pa.table({"x": pa.array([1])}), orphan)
        old = time.time() - 30 * 86400
        os.utime(orphan, (old, old))
    referenced = sorted(_glob.glob(os.path.join(out, "part-*.parquet")))
    rep = vacuum_dir(out, referenced, grace_sec=7 * 86400, apply=False)
    agg = (rep.groupby("status", as_index=False)
           .agg(n_files=("file", "count")))
    return (agg.astype({"n_files": "int64"})
            .sort_values("status").reset_index(drop=True))


# -------------------------------------------------------- streaming windows


def q_stream_windows(sf_dir: str) -> pd.DataFrame:
    """Streaming event-time window aggregation
    (state/stream_window.py): the events table is replayed as a stream
    in ARRIVAL order (arrival = ts + a deterministic jitter strictly
    below the 30-min lateness bound, so out-of-order rows always land
    in their window — provably no late drops), micro-batched through
    the sharded watermark aggregator; the result is every FINALIZED
    hourly window. The twin recomputes windows whose end clears the
    final watermark cut. The driver-side replay loop is the stream
    SIMULATION harness, not the operator — the aggregator itself only
    ever sees micro-batches."""
    from ..state.stream_window import StreamWindowAgg

    LATE = 1_800_000_000
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = b["event_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "key": b["event_type"].astype(str),
            "ts": ts,
            "arrival": ts + (eid % 1500) * np.int64(1_000_000),
            "value": np.floor(
                b["value"].to_numpy(np.float64) * 100).astype(np.int64)})

    stream = ds.map_batches(prep, batch_format="pandas").sort("arrival")
    agg = StreamWindowAgg(window_us=3_600_000_000,
                          allowed_lateness_us=LATE, num_shards=4)
    for b in stream.iter_batches(batch_size=2048, batch_format="pandas"):
        agg.ingest(b)
    out = agg.finalize_ready()
    assert len(agg.late_rows()) == 0  # jitter < lateness by construction
    return pd.DataFrame({
        "event_type": out["key"].astype(str),
        "window_start": out["window_start"].to_numpy(np.int64)
        .astype("datetime64[us]"),
        "n_events": out["n_events"],
        "sum_value": out["sum_value"],
    }).sort_values(["event_type", "window_start"]).reset_index(drop=True)


SQL_STREAM_WINDOWS = r"""
WITH t AS (
  SELECT event_type, date_trunc('hour', ts) AS window_start,
         count(*)::BIGINT AS n_events,
         sum(floor(value * 100)::BIGINT)::BIGINT AS sum_value
  FROM events GROUP BY 1, 2
), wm AS (SELECT max(ts) AS m FROM events)
SELECT event_type, window_start, n_events, sum_value
FROM t, wm
WHERE window_start + INTERVAL 1 HOUR <= m - INTERVAL 30 MINUTE
ORDER BY event_type, window_start
"""


BLOCKLIST_PATTERNS = ["the table", "slow scan", "a a", "spark"]


def q_blocklist_scan(sf_dir: str) -> pd.DataFrame:
    """Multi-pattern blocklist scan (curate.blocklist_scan): exact
    all-starts occurrence counting of a bad-words list per (source,
    pattern) — the C4-style blocklist filter signal. The twin
    enumerates every start position with a static range cross join and
    substr equality, so overlapping starts ('a a' in 'a a a') count on
    both sides."""
    from .curate import blocklist_scan

    ds = _read(sf_dir, "documents", ["source", "text"])
    return blocklist_scan(ds, BLOCKLIST_PATTERNS)


SQL_BLOCKLIST_SCAN = """
WITH pats AS (
  SELECT * FROM (VALUES ('the table'), ('slow scan'), ('a a'), ('spark'))
  p(pat)
), idx AS (
  SELECT unnest(range(1, (SELECT max(length(text))::BIGINT + 1
                          FROM documents))) AS i
), occ AS (
  SELECT d.doc_id, d.source, p.pat, count(*) AS n
  FROM documents d, pats p, idx g
  WHERE g.i + length(p.pat) - 1 <= length(d.text)
    AND substr(d.text, g.i::INTEGER, length(p.pat)) = p.pat
  GROUP BY 1, 2, 3
)
SELECT source, pat, count(*)::BIGINT AS docs_hit, sum(n)::BIGINT AS n_occ
FROM occ GROUP BY 1, 2 ORDER BY source, pat
"""


PHRASE_QUERY = "table hash"


def q_phrase_search(sf_dir: str) -> pd.DataFrame:
    """Exact phrase retrieval over the POSITIONAL inverted index
    (textstats.build_text_index + phrase_search_index): build the
    hive-bucketed posting layout, then answer a 2-word phrase query by
    reading ONLY the phrase terms' buckets and intersecting
    offset-shifted position keys. The twin enumerates every token
    start with a list_filter lambda, so occurrence counts (not just
    membership) match value-for-value."""
    import shutil
    import tempfile

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    idx = tempfile.mkdtemp(prefix="phraseidx_", dir="/tmp")
    try:
        textstats.build_text_index(ds, idx, num_buckets=32)
        return textstats.phrase_search_index(idx, PHRASE_QUERY)
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def _sql_phrase_search(phrase: str) -> str:
    words = phrase.split()
    m = len(words)
    conds = " AND ".join(
        f"toks[i+{j}] = '{w}'" if j else f"toks[i] = '{w}'"
        for j, w in enumerate(words))
    return f"""
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text,''), '\\s+'),
                     w -> w <> '') AS toks
  FROM documents
), c AS (
  SELECT doc_id,
         len(list_filter(range(1, greatest(len(toks) - {m} + 2, 1)),
             i -> {conds}))::BIGINT AS n_matches
  FROM t)
SELECT doc_id, n_matches FROM c WHERE n_matches > 0 ORDER BY doc_id
"""


SQL_PHRASE_SEARCH = _sql_phrase_search(PHRASE_QUERY)


def q_cooccurrence(sf_dir: str) -> pd.DataFrame:
    """Windowed co-occurrence top-50 (textstats.cooccurrence, window
    3): the GloVe-statistics pass. Twin: positional self-join on the
    zipped UNNEST stream with the same canonical pair order and the
    same deterministic (n desc, wa, wb) cut."""
    ds = _read(sf_dir, "documents", ["text"])
    return textstats.cooccurrence(ds, window=3, k=50)


SQL_COOCCURRENCE = """
WITH t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text,''), '\\s+'),
                     w -> w <> '') AS toks
  FROM documents
), p AS (
  SELECT doc_id, unnest(toks) AS w,
         unnest(range(1, len(toks) + 1)) AS i
  FROM t
), pairs AS (
  SELECT CASE WHEN a.w <= b.w THEN a.w ELSE b.w END AS wa,
         CASE WHEN a.w <= b.w THEN b.w ELSE a.w END AS wb
  FROM p a JOIN p b ON a.doc_id = b.doc_id
   AND b.i - a.i BETWEEN 1 AND 3
)
SELECT wa, wb, count(*)::BIGINT AS n
FROM pairs GROUP BY 1, 2
ORDER BY n DESC, wa, wb LIMIT 50
"""


def q_scd2_join(sf_dir: str) -> pd.DataFrame:
    """Temporal dimension join (the warehouse 'AS OF event time' join):
    probe facts — one per doc at time n_chars % 4 — join the SCD2
    history to the version whose validity interval covers the probe
    (seq <= t < valid_to, open-ended current rows; deleted keys simply
    have no covering interval and drop from the inner join). ONE
    key-hash bucket_join co-locates facts with their <= 3 dimension
    versions, then a vectorized interval filter — the standard
    fact x SCD2 enrichment at lakehouse scale."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def probes(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "probe_seq": (b["n_chars"].to_numpy(np.int64) % 4),
        })

    facts = docs.map_batches(probes, batch_format="pandas")
    hist = _scd2_history_ds(_read(sf_dir, "documents", ["doc_id"]))
    # static schemas: without them bucket_join's .schema() probe would
    # execute the whole lazy history build a second time
    fact_schema = pa.schema([("doc_id", pa.int64()),
                             ("probe_seq", pa.int64())])
    hist_schema = pa.schema([("doc_id", pa.int64()), ("seq", pa.int64()),
                             ("valid_to", pa.int64()),
                             ("is_current", pa.bool_())])
    j = bucket_join(facts, hist, "doc_id", "doc_id", suffix="_h",
                    left_schema=fact_schema, right_schema=hist_schema)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        t = b["probe_seq"].to_numpy(np.int64)
        s = b["seq"].to_numpy(np.int64)
        e = b["valid_to"].to_numpy(np.int64)
        keep = (s <= t) & ((e == -1) | (t < e))
        out = b.loc[keep]
        return pd.DataFrame({
            "doc_id": out["doc_id"].astype("int64"),
            "probe_seq": out["probe_seq"].astype("int64"),
            "version_seq": out["seq"].astype("int64"),
        })

    out = j.map_batches(pick, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SCD2_JOIN = """
WITH a AS (
  SELECT doc_id, 0 AS seq, 'upsert' AS op FROM documents
  UNION ALL
  SELECT doc_id, 1, 'delete' FROM documents WHERE doc_id % 9 = 0
  UNION ALL
  SELECT doc_id, 1, 'upsert' FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 2, 'upsert' FROM documents WHERE doc_id % 9 = 1
  UNION ALL
  SELECT doc_id, 1, 'upsert' FROM documents WHERE doc_id % 9 = 2
  UNION ALL
  SELECT doc_id + 2000000, 1, 'upsert' FROM documents WHERE doc_id % 9 = 3
), v AS (
  SELECT doc_id, seq, op,
         LEAD(seq) OVER (PARTITION BY doc_id ORDER BY seq) AS nxt
  FROM a
), hist AS (
  SELECT doc_id, seq::BIGINT AS seq, coalesce(nxt, -1)::BIGINT AS valid_to
  FROM v WHERE op = 'upsert'
), probes AS (
  SELECT doc_id, (n_chars % 4)::BIGINT AS probe_seq FROM documents
)
SELECT p.doc_id, p.probe_seq, h.seq AS version_seq
FROM probes p JOIN hist h ON p.doc_id = h.doc_id
WHERE h.seq <= p.probe_seq
  AND (h.valid_to = -1 OR p.probe_seq < h.valid_to)
ORDER BY p.doc_id
"""


def q_incremental_join(sf_dir: str) -> pd.DataFrame:
    """Incremental maintenance of a JOIN view (the hard half of MV
    maintenance, beyond q_incremental_agg's single-table case): the
    per-nation order-revenue view V = gamma(orders JOIN customer) is
    refreshed from CDC deltas on BOTH inputs — order deletes
    (o_orderkey % 13 == 0) and inserts (% 17 == 0, price + 10), and
    customer nation UPDATES (c_custkey % 11 == 0 moves to
    (c_nationkey + 1) % 25) — without recomputing the join.

    Delta algebra: with signed relations, V_new - V = gamma(dO x C_new)
    + gamma(O x dC). The first term touches only order deltas (the
    fact-side base is NEVER rescanned); the second probes the fact
    base only on the changed dimension keys — here via one broadcast
    of the customer-scale dC/new-nation maps into the same single
    orders scan that derives dO, so the whole refresh is ONE pass over
    the log-bearing scan plus driver merges at nation cardinality.
    The oracle recomputes the view from the modified inputs from
    scratch; equality proves the algebra, including sign cancellation
    on updated dimensions. Cents are floor(price * 100), integer-exact.
    """
    import ray

    cust = _read_pd(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    changed = cust["c_custkey"] % 11 == 0
    new_nat = np.where(changed, (cust["c_nationkey"] + 1) % 25,
                       cust["c_nationkey"]).astype(np.int64)
    cnew = dict(zip(cust["c_custkey"].astype("int64"), new_nat))
    cold = dict(zip(cust["c_custkey"].astype("int64"),
                    cust["c_nationkey"].astype("int64")))
    dc_keys = set(cust.loc[changed, "c_custkey"].astype("int64"))
    cnew_ref = ray.put(cnew)
    cold_ref = ray.put(cold)
    dc_ref = ray.put(dc_keys)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def base_rows(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(cold_ref)
        return pd.DataFrame({
            "nationkey": b["o_custkey"].astype("int64").map(m)
            .astype("int64"),
            "w": np.int64(1),
            "wc": np.floor(b["o_totalprice"].to_numpy(np.float64)
                           * 100).astype("int64"),
        })

    def wagg(rows: rd.Dataset) -> pd.DataFrame:
        out = grouped_agg(rows, ["nationkey"], sums=["w", "wc"],
                          counts=False)
        return out.rename(columns={"sum_w": "n", "sum_wc": "cents"})

    base = wagg(orders.map_batches(base_rows, batch_format="pandas"))

    def delta_rows(b: pd.DataFrame) -> pd.DataFrame:
        mnew = ray.get(cnew_ref)
        mold = ray.get(cold_ref)
        dck = ray.get(dc_ref)
        k = b["o_orderkey"].astype("int64")
        cu = b["o_custkey"].astype("int64")
        cents = np.floor(b["o_totalprice"].to_numpy(np.float64)
                         * 100).astype("int64")
        dele = (k % 13 == 0).to_numpy()
        ins = (k % 17 == 0).to_numpy()
        # dO x C_new: deletes at weight -1, inserts (price+10) at +1,
        # both landing in the customer's NEW nation assignment
        frames = [
            pd.DataFrame({"nationkey": cu[dele].map(mnew).astype("int64"),
                          "w": np.int64(-1), "wc": -cents[dele]}),
            pd.DataFrame({"nationkey": cu[ins].map(mnew).astype("int64"),
                          "w": np.int64(1), "wc": cents[ins] + 1000}),
        ]
        # O x dC: base orders of changed customers move nations
        ch = cu.isin(dck).to_numpy()
        frames.append(pd.DataFrame({
            "nationkey": cu[ch].map(mold).astype("int64"),
            "w": np.int64(-1), "wc": -cents[ch]}))
        frames.append(pd.DataFrame({
            "nationkey": cu[ch].map(mnew).astype("int64"),
            "w": np.int64(1), "wc": cents[ch]}))
        return pd.concat(frames, ignore_index=True)

    delta = wagg(orders.map_batches(delta_rows, batch_format="pandas"))

    m = base.merge(delta, on="nationkey", how="outer", suffixes=("", "_d"))
    for c in ("n", "cents", "n_d", "cents_d"):
        m[c] = m[c].fillna(0).astype("int64")
    out = pd.DataFrame({
        "nationkey": m["nationkey"].astype("int64"),
        "n_orders": m["n"] + m["n_d"],
        "sum_cents": m["cents"] + m["cents_d"],
    })
    out = out[out["n_orders"] > 0]  # group-deletion rule
    return out.sort_values("nationkey").reset_index(drop=True)


SQL_INCREMENTAL_JOIN = r"""
WITH o2 AS (
  SELECT o_custkey, floor(o_totalprice * 100)::BIGINT AS cents
  FROM orders WHERE o_orderkey % 13 <> 0
  UNION ALL
  SELECT o_custkey, floor(o_totalprice * 100)::BIGINT + 1000
  FROM orders WHERE o_orderkey % 17 = 0
), c2 AS (
  SELECT c_custkey,
         CASE WHEN c_custkey % 11 = 0 THEN (c_nationkey + 1) % 25
              ELSE c_nationkey END AS nat
  FROM customer
)
SELECT c2.nat::BIGINT AS nationkey,
       count(*)::BIGINT AS n_orders,
       sum(cents)::BIGINT AS sum_cents
FROM o2 JOIN c2 ON o2.o_custkey = c2.c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_drift_emd(sf_dir: str) -> pd.DataFrame:
    """Distribution-drift monitor: integer-exact Wasserstein-1 (earth
    mover's) distance between each source's doc-length histogram
    (bucket = n_chars // 100) and the whole corpus. Cross-multiplied
    cumulative counts keep it exact: with per-source total n_s and
    corpus total N,

        emd_scaled(s) = sum_b | cum_s(b) * N  -  cum_all(b) * n_s |

    is the EMD of the normalized distributions scaled by n_s * N — all
    int64. One per-batch (source, bucket) partial combine; the driver
    reduce is sources x buckets rows; the EMD fold is a vectorized
    cumsum over that bounded table."""
    docs = _read(sf_dir, "documents", ["source", "n_chars"])

    def hist_part(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "source": b["source"],
            "bucket": (b["n_chars"].to_numpy(np.int64) // 100),
        }).groupby(["source", "bucket"], as_index=False, sort=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": "int64"})

    h = (docs.map_batches(hist_part, batch_format="pandas").to_pandas()
         .groupby(["source", "bucket"], as_index=False)["n"].sum())
    # SPARSE evaluation on the observed buckets only (a single
    # pathological 100 MB doc must not allocate a dense max-bucket
    # spine): both cumulative step functions are constant between
    # consecutive observed buckets, so each |.| term is weighted by
    # the bucket-gap width; below the first and above the last
    # observed bucket every term is zero.
    gb = np.sort(h["bucket"].unique())
    widths = np.diff(gb)  # gap to the next observed bucket
    gcum = (h.groupby("bucket", sort=True)["n"].sum()
            .cumsum().to_numpy(np.int64))
    tot = h.groupby("source", sort=False)["n"].sum()
    N = int(tot.sum())
    rows = []
    for src, g in h.sort_values("bucket").groupby("source", sort=True):
        # cum_s evaluated at every globally-observed bucket
        csum = np.concatenate(
            [np.zeros(1, np.int64), g["n"].cumsum().to_numpy(np.int64)])
        cum_s = csum[np.searchsorted(g["bucket"].to_numpy(np.int64),
                                     gb, "right")]
        n_s = int(tot[src])
        term = np.abs(cum_s * N - gcum * n_s)
        rows.append((src, n_s, int((term[:-1] * widths).sum())))
    out = pd.DataFrame(rows, columns=["source", "n_docs", "emd_scaled"])
    out["n_docs"] = out["n_docs"].astype("int64")
    out["emd_scaled"] = out["emd_scaled"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


SQL_DRIFT_EMD = """
WITH d AS (
  SELECT source, (n_chars // 100)::BIGINT AS bucket FROM documents
), spine AS (
  SELECT s.source, b.bucket
  FROM (SELECT DISTINCT source FROM d) s,
       (SELECT unnest(range(0, (SELECT max(bucket) + 1 FROM d)))
        AS bucket) b
), h AS (
  SELECT sp.source, sp.bucket, count(d.source)::BIGINT AS n
  FROM spine sp LEFT JOIN d
    ON d.source = sp.source AND d.bucket = sp.bucket
  GROUP BY 1, 2
), c AS (
  SELECT source, bucket, n,
         sum(n) OVER (PARTITION BY source ORDER BY bucket) AS cum_s,
         sum(n) OVER (PARTITION BY source) AS n_s
  FROM h
), g AS (
  SELECT bucket, sum(n) AS bn FROM h GROUP BY bucket
), gc AS (
  SELECT bucket, sum(bn) OVER (ORDER BY bucket) AS cum_all FROM g
), tot AS (SELECT sum(n)::BIGINT AS N FROM h)
SELECT c.source,
       sum(c.n)::BIGINT AS n_docs,
       sum(abs(c.cum_s * tot.N - gc.cum_all * c.n_s))::BIGINT
         AS emd_scaled
FROM c JOIN gc ON c.bucket = gc.bucket, tot
GROUP BY c.source ORDER BY c.source
"""


def q_containment(sf_dir: str) -> pd.DataFrame:
    """N-gram containment join (dedup.containment_pairs, 5-word grams,
    tau 60%): one-sided near-dup/quote detection the symmetric Jaccard
    misses. Twin: DISTINCT-gram self-join + both-direction integer
    threshold."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.containment_pairs(ds, window=5, tau_pct=60)


SQL_CONTAINMENT = r"""
WITH words AS (
  SELECT doc_id, list_filter(regexp_split_to_array(trim(text), '\s+'),
                             x -> x <> '') AS w FROM documents
), grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+4], ' ') AS gram
  FROM words,
       LATERAL (SELECT unnest(generate_series(1, len(w)-4)) AS i) t
), sizes AS (
  SELECT doc_id, count(*)::BIGINT AS g FROM grams GROUP BY doc_id
), common AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id, count(*)::BIGINT AS c
  FROM grams a JOIN grams b
    ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), both_dirs AS (
  SELECT c.a_id AS inner_id, c.b_id AS outer_id, c.c, s.g
  FROM common c JOIN sizes s ON s.doc_id = c.a_id
  UNION ALL
  SELECT c.b_id, c.a_id, c.c, s.g
  FROM common c JOIN sizes s ON s.doc_id = c.b_id
)
SELECT inner_id, outer_id, c AS n_common, (100 * c) // g AS pct
FROM both_dirs WHERE 100 * c >= 60 * g
ORDER BY inner_id, outer_id
"""


def q_suffix_array(sf_dir: str) -> pd.DataFrame:
    """Distributed suffix array (pipelines/suffix.py, prefix doubling —
    the exact index behind Lee et al. substring dedup) over the corpus
    token stream; returns the first 100 suffixes in lexicographic
    order as (rank, pos). Not SQL-expressible (DuckDB cannot sort
    suffixes without materializing them); correctness is pinned by
    exact equality against a serial numpy doubling reference and the
    planted 'banana' fixture in tests/test_suffix.py."""
    from .suffix import suffix_array

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ranks, n = suffix_array(docs)
    head = (ranks.filter(expr="rank < 100").to_pandas()
            .sort_values("rank").reset_index(drop=True))
    return pd.DataFrame({"rank": head["rank"].astype("int64"),
                         "pos": head["pos"].astype("int64")})
