"""Relational building blocks on Ray Data, scale-first:

- ``grouped_agg``: partial aggregation inside map_batches (one row per key
  per batch) before the shuffle — the groupby exchanges pre-aggregated
  partials, not raw rows (ray_guide "Aggregation at scale").
- ``broadcast_join``: small side ``ray.put`` once, pandas merge per batch
  in an actor pool — no shuffle (ray_guide "Joins and lookups").
- ``topk``: per-block top-k then a tiny driver-side final merge — the
  global sort never happens.
- ``partition_map``: the one keyed exchange every co-locating operator
  in the package runs on (hash tag, sort shuffle, one UDF call per
  partition).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


PART_COL = "_part"


def partition_tags(frame: "pd.DataFrame | pa.Table", keys: "list[str]",
                   num_partitions: int) -> np.ndarray:
    """THE partition hash of the package: int64
    ``hash_pandas_object(frame[keys], index=False) % num_partitions``.
    Arrow tables hash through their key columns' pandas form. Integer
    and bool key columns hash as float64: an int column is float64 in
    any pandas block that holds one of its nulls, so without this the
    same key would hash two ways across blocks. Equal keys always get
    equal tags; unequal keys may share one."""
    if isinstance(frame, pa.Table):
        frame = frame.select(keys).to_pandas()
    kf = frame[keys]
    ints = [c for c in keys if kf[c].dtype.kind in "biu"]
    if ints:
        kf = kf.astype(dict.fromkeys(ints, "float64"))
    h = pd.util.hash_pandas_object(kf, index=False).to_numpy(np.uint64)
    return (h % np.uint64(num_partitions)).astype(np.int64)


def partition_map(ds: rd.Dataset, keys: "str | Sequence[str]", fn, *,
                  num_partitions: "int | None" = None,
                  batch_format: str = "pandas") -> rd.Dataset:
    """THE keyed exchange: every row is tagged ``_part =
    partition_tags(block, keys, n)``, ONE ``groupby("_part").map_groups``
    runs on Ray's default sort shuffle, and ``fn`` is called once per
    partition with all of that partition's rows (``_part`` dropped).
    ``n`` is ``num_partitions`` or, by default,
    ``tuning.suggested_partitions()``. Partitions and not
    ``groupby(key)``: per-group UDF overhead measured 4-5x (see
    ``windows.asof_join_aggregate``), so ``fn`` handles many keys at
    once, vectorized. Ray calls ``fn`` for non-empty partitions only.

    Key contract: every side of a union that must co-locate carries its
    key under the same column names with the same dtypes (int widths
    and nulls in int columns aside, see ``partition_tags``). The tag
    runs with ``batch_format=None``, so each block keeps its format:
    Arrow rows stay Arrow, pandas rows never round-trip through Arrow.
    So the sides of a union must also share one block format (Ray's
    sort cannot sample a mix of pandas and Arrow blocks).
    The tag operator is named ``tag_<fn name>`` and the map operator
    keeps ``fn``'s name in ``Dataset.stats()``."""
    from ..tuning import suggested_partitions

    keys = [keys] if isinstance(keys, str) else list(keys)
    n = num_partitions or suggested_partitions()

    def tag(block):
        part = partition_tags(block, keys, n)
        if isinstance(block, pa.Table):
            return block.append_column(PART_COL, pa.array(part))
        return block.assign(**{PART_COL: part})

    def run(g):
        if isinstance(g, pa.Table):
            return fn(g.drop_columns([PART_COL]))
        return fn(g.drop(columns=PART_COL))

    tag.__name__ = f"tag_{fn.__name__}"
    run.__name__ = fn.__name__
    return (ds.map_batches(tag, batch_format=None)
            .groupby(PART_COL).map_groups(run, batch_format=batch_format))


def keyed_combine(ds: rd.Dataset, keys: "str | list[str]",
                  cols: "list[str]", op: str = "sum",
                  num_partitions: "int | None" = None) -> rd.Dataset:
    """THE keyed-combine shape for unbounded key cardinality, as a
    Dataset (contrast grouped_agg, whose result lands on the driver):
    per-batch pandas partial + ONE ``partition_map`` exchange on the
    keys + per-partition final. Column names are preserved (no
    ``sum(col)`` renames). The native Dataset groupby aggregator
    measured ~12 s per round on a 500-key table at 32 CPUs (the
    order_ntile pathology in the round-3 notes); this form runs the
    identical reduction in ~0.2 s. ``op`` must be
    associative-idempotent-safe for re-applying to partials
    (sum/min/max)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        return getattr(b.groupby(keys, as_index=False, sort=False)[cols],
                       op)()

    def fin(g: pd.DataFrame) -> pd.DataFrame:
        return getattr(g.groupby(keys, as_index=False, sort=False)[cols],
                       op)()

    return partition_map(
        ds.map_batches(part, batch_format="pandas", batch_size=65536),
        keys, fin, num_partitions=num_partitions)


def grouped_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    sums: Sequence[str] = (),
    counts: bool = True,
    mins: Sequence[str] = (),
    maxs: Sequence[str] = (),
) -> pd.DataFrame:
    """Group-by aggregate with per-batch partial combine.

    Returns a pandas DataFrame with columns: keys + sum_<c> + n (+
    min_<c>/max_<c>). Caller derives averages etc. from sums and n.
    The final combine runs on the driver, so key cardinality must be
    bounded; for unbounded keys use ``keyed_combine``, which keeps the
    result a Dataset.
    """
    keys = list(keys)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys, as_index=False, sort=False, dropna=False)
        parts = []
        agg_spec = {}
        for c in sums:
            agg_spec[f"sum_{c}"] = (c, "sum")
        for c in mins:
            agg_spec[f"min_{c}"] = (c, "min")
        for c in maxs:
            agg_spec[f"max_{c}"] = (c, "max")
        if counts:
            agg_spec["n"] = (keys[0], "size")
        return g.agg(**agg_spec)

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    # bounded key cardinality (the common analytic case): the partial
    # output is <= distinct_keys x blocks rows — a tiny driver-side final
    # combine, the same mergeability argument as sketch aggregation. This
    # avoids the all-to-all Aggregate op entirely.
    pdf = partials.to_pandas()
    spec = {f"sum_{c}": (f"sum_{c}", "sum") for c in sums}
    spec |= {f"min_{c}": (f"min_{c}", "min") for c in mins}
    spec |= {f"max_{c}": (f"max_{c}", "max") for c in maxs}
    if counts:
        spec["n"] = ("n", "sum")
    if len(pdf) == 0:
        # zero input batches yield a column-less frame (e.g. an anti-join
        # that filtered everything) — return the empty result WITH the
        # contract columns instead of KeyError'ing downstream
        return pd.DataFrame({c: pd.Series(dtype="object") for c in keys}
                            | {c: pd.Series(dtype="float64") for c in spec})
    return pdf.groupby(keys, as_index=False, dropna=False).agg(**spec)


def _broadcast_merge(batch: pd.DataFrame, small_ref=None, on=None,
                     how="inner") -> pd.DataFrame:
    # ray.get of a ray.put'd object is a zero-copy local read after the
    # first fetch per node — never re-shipped per batch
    return batch.merge(ray.get(small_ref), on=on, how=how)


def broadcast_join(
    ds: rd.Dataset,
    small: pd.DataFrame,
    on: Sequence[str] | str,
    how: str = "inner",
) -> rd.Dataset:
    """Join a Dataset against a small dimension table without a shuffle.
    Elastic TASK pool (no concurrency cap): any idle CPU picks up batches,
    so the stage never starves a big node or cluster the way a fixed
    2-actor pool did."""
    import functools

    ref = ray.put(small)
    return ds.map_batches(
        functools.partial(_broadcast_merge, small_ref=ref, on=on, how=how),
        batch_format="pandas",
        batch_size=65536,
    )


def topk(ds: rd.Dataset, by: Sequence[str] | str, k: int,
         ascending: bool = False) -> pd.DataFrame:
    """Global top-k without a global sort: block-local top-k, tiny final
    merge on the driver."""
    by = [by] if isinstance(by, str) else list(by)

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(by, ascending=ascending).head(k)

    parts = ds.map_batches(block_topk, batch_format="pandas", batch_size=262144)
    merged = parts.to_pandas()
    return merged.sort_values(by, ascending=ascending).head(k).reset_index(drop=True)


def grouped_topk(
    ds: rd.Dataset,
    group_keys: Sequence[str] | str,
    by: Sequence[str] | str,
    k: int,
    ascending: bool | Sequence[bool] = False,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Top-k rows PER GROUP without a global sort: each batch prunes to
    at most k rows per group it sees (vectorized sort + groupby-head),
    then ONE group-keyed ``partition_map`` merges the prunes — exact,
    because a row in a group's true top-k survives every local prune.
    Shuffle traffic is O(k x groups-per-batch x batches), not corpus
    rows; include a tie-break column in ``by`` for a deterministic
    result. Unlike ``topk``, nothing lands on the driver — the merged
    result is a Dataset (per-group output can be corpus-scale when the
    group count is)."""
    group_keys = [group_keys] if isinstance(group_keys, str) else list(group_keys)
    by = [by] if isinstance(by, str) else list(by)

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.sort_values(by, ascending=ascending, kind="stable")
                .groupby(group_keys, sort=False, dropna=False).head(k))

    return partition_map(
        ds.map_batches(prune, batch_format="pandas", batch_size=262144),
        group_keys, prune, num_partitions=num_partitions)


def bucket_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    num_partitions: int | None = None,
    suffix: str = "_r",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
    how: str = "inner",
    hot_keys: Sequence | None = None,
    salt: int = 8,
) -> rd.Dataset:
    """Large x large join on the repo's fixed-bucket shuffle
    pattern: both sides are tagged into ONE union keyed by
    ``partition_tags`` of the key, and each partition runs a single
    C-level pandas merge (its own tag rather than ``partition_map``,
    because hot keys are salted onto partitions of their own).
    Functionally the same exchange as a native hash join, but with NO
    aggregator actor pool — per-partition work is plain tasks, so wall
    time stays flat in long-lived sessions where actor-pool startup
    competes with accumulated workers
    (measured: the native ``Dataset.join`` queries are bimodal 3s/30s+
    late in a bench session; this stays ~1-2s).

    Right columns colliding with left names (other than the keys) get
    ``suffix``. Sides are split INSIDE each partition as Arrow (null
    int columns never pass through pandas, so dtypes survive).

    ``hot_keys`` turns on HOT-KEY SALTING (the skew lever: one key with
    10% of the corpus would otherwise serialize 10% of the join on one
    partition). Each hot key gets ``salt`` dedicated partitions; LEFT
    rows on a hot key spread round-robin across its salts, RIGHT rows
    on it are REPLICATED to every salt — each left row still meets each
    matching right row exactly once, so inner/left/semi/anti results
    are unchanged. Use ``detect_hot_keys`` for the candidate list (it
    is hot-key-count sized — broadcastable by definition). Cold keys
    take the normal hash route.

    ``how`` extends the same exchange to the other relational shapes —
    ``"inner"`` (default), ``"left"`` (unmatched left rows survive with
    nulls in the right columns), ``"semi"``/``"anti"`` (left columns
    only, filtered by match-existence; right-side key duplicates cannot
    multiply rows), ``"outer"`` (full outer: unmatched rows of BOTH
    sides survive with nulls — incompatible with hot-key salting, which
    replicates right rows). All five run on the identical ONE-shuffle plan:
    because both sides hash on the join key, every row that could match
    a given left row lands in the same partition, so per-partition
    left/semi/anti is globally exact.

    Pass ``left_schema``/``right_schema`` when a side ends in a lazy
    shuffle (groupby.map_groups / another bucket_join): ``.schema()``
    on such a plan EXECUTES it, and the union then executes it again —
    the same double-execution connected_components had to guard
    against. With explicit schemas no plan runs early."""
    import pyarrow.compute as pc

    from ..tuning import suggested_partitions

    if how not in ("inner", "left", "semi", "anti", "outer"):
        raise ValueError(f"bucket_join: unsupported how={how!r}")
    if how == "outer" and hot_keys:
        # salting replicates hot RIGHT rows across salt partitions;
        # inner/left/semi/anti never emit an unmatched right row, so the
        # copies collapse — a FULL OUTER would emit one unmatched row
        # per salt. Keep the two features apart.
        raise ValueError("bucket_join: hot_keys is incompatible with "
                         "how='outer'")
    if num_partitions is None:
        num_partitions = suggested_partitions()
    def _pa_type(t) -> pa.DataType:
        # pandas-block datasets report numpy dtypes here, not Arrow types
        if isinstance(t, pa.DataType):
            return t
        dt = np.dtype(t)
        if dt == np.dtype(object):
            # pandas object columns are (in this engine) always strings;
            # lists/structs arrive as real Arrow types above, never as a
            # numpy dtype, so object -> string is the one safe coercion.
            return pa.string()
        try:
            return pa.from_numpy_dtype(dt)
        except (pa.ArrowNotImplementedError, TypeError):
            raise TypeError(
                f"bucket_join: unsupported column dtype {t!r}; pass Arrow "
                f"blocks (batch_format='pyarrow') for list/struct columns")

    ls = left_schema if left_schema is not None else left.schema()
    rs = right_schema if right_schema is not None else right.schema()
    lcols = list(ls.names)
    rcols = list(rs.names)
    ren = {c: (c + suffix if c in lcols else c) for c in rcols}
    ltypes = {n: _pa_type(t) for n, t in zip(ls.names, ls.types)}
    rtypes = {ren[n]: _pa_type(t) for n, t in zip(rs.names, rs.types)}
    fields = ([("_part", pa.int64()), ("_side", pa.int8())]
              + [(n, ltypes[n]) for n in lcols]
              + [(n, rtypes[n]) for n in (ren[c] for c in rcols)])
    target = pa.schema(fields)

    hot_list = list(hot_keys) if hot_keys is not None else []
    # sorted array + searchsorted: the per-batch hot lookup is one
    # C-level binary search, not a per-element dict map
    hot_arr = np.sort(np.asarray(hot_list)) if hot_list else None

    def _hot_lookup(keys: np.ndarray):
        """(hot_mask, dense_hot_index) for a key array."""
        idx = np.searchsorted(hot_arr, keys)
        idx = np.minimum(idx, len(hot_arr) - 1)
        mask = hot_arr[idx] == keys
        return mask, idx

    def _tag(side: int, key_col: str, rename: dict | None):
        def f(t: pa.Table) -> pa.Table:
            part = partition_tags(t.select([key_col]), [key_col],
                                  num_partitions)
            cols = {}
            present = {(rename or {}).get(c, c): t.column(c)
                       for c in t.column_names}
            for name, typ in zip(target.names, target.types):
                if name == "_part":
                    cols[name] = pa.array(part, pa.int64())
                elif name == "_side":
                    cols[name] = pa.nulls(len(t), pa.int8()).fill_null(side)
                elif name in present:
                    cols[name] = present[name].cast(typ)
                else:
                    cols[name] = pa.nulls(len(t), typ)
            out = pa.Table.from_arrays(
                [cols[n] for n in target.names], schema=target)
            if not hot_list:
                return out
            hot, idx_all = _hot_lookup(
                t.column(key_col).to_pandas().to_numpy())
            if not hot.any():
                return out
            base = np.int64(num_partitions)
            hidx = idx_all[hot].astype(np.int64)
            cold_t = out.filter(pa.array(~hot))
            hot_t = out.filter(pa.array(hot))
            if side == 0:
                # split: round-robin the hot left rows across the salts
                sid = (np.arange(len(hidx), dtype=np.int64)
                       % np.int64(salt))
                new_part = base + hidx * np.int64(salt) + sid
                hot_t = hot_t.set_column(
                    0, "_part", pa.array(new_part, pa.int64()))
                return pa.concat_tables([cold_t, hot_t])
            # replicate: one copy of each hot right row per salt
            pieces = [cold_t]
            for s in range(salt):
                new_part = base + hidx * np.int64(salt) + np.int64(s)
                pieces.append(hot_t.set_column(
                    0, "_part", pa.array(new_part, pa.int64())))
            return pa.concat_tables(pieces)

        return f

    tagged = (left.map_batches(_tag(0, left_on, None),
                               batch_format="pyarrow", batch_size=65536)
              .union(right.map_batches(_tag(1, right_on, ren),
                                       batch_format="pyarrow",
                                       batch_size=65536)))
    rkey = ren[right_on]
    rout = [ren[c] for c in rcols]

    lonly_schema = pa.schema([(n, ltypes[n]) for n in lcols])
    join_schema = pa.schema([(n, ltypes[n]) for n in lcols]
                            + [(n, rtypes[n]) for n in rout])

    def per_part(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            # Ray passes empty blocks through without running the _tag
            # UDF, so an all-empty input block arrives here with its
            # ORIGINAL (possibly null-typed, pandas-inferred) schema —
            # emit a correctly-typed empty table instead of joining it
            return (lonly_schema if how in ("semi", "anti")
                    else join_schema).empty_table()
        if g.schema != target:
            # an empty passthrough block unified into this partition
            # can degrade column types to null (its pandas-inferred
            # schema never went through _tag); all such columns hold
            # only null values here, so casting back is lossless
            cols = []
            for name, typ in zip(target.names, target.types):
                if name in g.column_names:
                    c = g.column(name)
                    cols.append(c.cast(typ) if c.type != typ else c)
                else:
                    cols.append(pa.nulls(len(g), typ))
            g = pa.Table.from_arrays(cols, schema=target)
        side = g.column("_side")
        if how in ("semi", "anti"):
            # membership, not merge: right key duplicates must not
            # multiply left rows, and no right columns are emitted.
            # Arrow out with an explicit schema (Ray drops empty
            # schemaless blocks -> 0-column to_pandas). SQL match
            # semantics: a NULL key matches nothing, so semi drops
            # null-key left rows and anti keeps them (NOT EXISTS) —
            # same rule as the DuckDB oracles.
            lt = g.filter(pc.equal(side, 0)).select(lcols)
            rkeys = pc.drop_null(g.filter(pc.equal(side, 1)).column(rkey))
            if rkeys.type != ltypes[left_on]:
                rkeys = rkeys.cast(ltypes[left_on])
            hit = pc.is_in(lt.column(left_on),
                           value_set=pc.unique(rkeys))
            if how == "anti":
                hit = pc.invert(hit)
            return lt.filter(hit)
        lt = g.filter(pc.equal(side, 0)).select(lcols)
        rt = g.filter(pc.equal(side, 1)).select(rout)
        # Acero joins ROW INDICES only; values come back via Arrow
        # `take` with null indices. A whole-frame pandas merge would
        # NaN-coerce int columns to float64 in any partition holding an
        # unmatched row (left/outer), emitting blocks with INCONSISTENT
        # schemas across partitions and losing int64 exactness past
        # 2^53; index-take keeps every value in its exact Arrow type.
        # use_threads=False: partitions already run ~num_cpus wide, a
        # per-task Acero pool would oversubscribe the host.
        rk = rt.column(rkey)
        if rk.type != ltypes[left_on]:
            rk = rk.cast(ltypes[left_on])
        ml = pa.table({"k": lt.column(left_on),
                       "_li": np.arange(len(lt), dtype=np.int64)})
        mr = pa.table({"k": rk,
                       "_ri": np.arange(len(rt), dtype=np.int64)})
        mg = ml.join(mr, keys="k",
                     join_type={"left": "left outer",
                                "outer": "full outer"}.get(how, "inner"),
                     use_threads=False)
        li, ri = mg.column("_li"), mg.column("_ri")
        arrs = ([lt.column(c).take(li) for c in lcols]
                + [rt.column(c).take(ri) for c in rout])
        return pa.Table.from_arrays(arrs, schema=pa.schema(
            [(n, ltypes[n]) for n in lcols]
            + [(n, rtypes[n]) for n in rout]))

    return tagged.groupby("_part").map_groups(
        per_part, batch_format="pyarrow")


def grouped_quantiles(ds: rd.Dataset, key: str, val: str,
                      qs: Sequence[float] = (0.5, 0.9, 0.99),
                      num_partitions: int | None = None,
                      rule: str = "disc") -> pd.DataFrame:
    """EXACT per-group quantiles (telemetry p50/p90/p99): one
    ``partition_map`` exchange on the key co-locates each group, then a
    single in-partition sort + index selection per group.
    ``rule="disc"`` is DuckDB's ``quantile_disc`` —
    sorted[max(ceil(q*n) - 1, 0)]; ``rule="cont"`` is
    ``quantile_cont``'s linear interpolation — with h = q*(n-1),
    (ceil(h)-h)*v[floor(h)] + (h-floor(h))*v[ceil(h)] in that exact
    IEEE evaluation order, so either SQL twin matches value-for-value.
    Driver sees groups x quantiles rows.

    Scale note: a group's values must fit one partition (same contract
    as every keyed map_groups here); for heavy-hitter keys switch to
    the mergeable sampled_quantiles sketch (pipelines/sketches.py)."""
    import math

    if rule not in ("disc", "cont"):
        raise ValueError(f"grouped_quantiles: unknown rule {rule!r}")

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key, val]]

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        rows = {key: [], "q": [], "value": []}
        for k_, sub in g.groupby(key, sort=False):
            v = np.sort(sub[val].to_numpy(np.float64))
            n = len(v)
            for q in qs:
                if rule == "disc":
                    out = float(v[max(int(math.ceil(q * n)) - 1, 0)])
                else:
                    h = q * (n - 1)
                    frn, crn = int(math.floor(h)), int(math.ceil(h))
                    out = (float(v[frn]) if crn == frn
                           else (crn - h) * v[frn] + (h - frn) * v[crn])
                rows[key].append(k_)
                rows["q"].append(float(q))
                rows["value"].append(float(out))
        return pd.DataFrame(rows)

    out = partition_map(
        ds.map_batches(project, batch_format="pandas", batch_size=65536),
        key, per_part, num_partitions=num_partitions).to_pandas()
    return out.sort_values([key, "q"]).reset_index(drop=True)


def detect_hot_keys(ds: rd.Dataset, col: str, frac: float = 0.01,
                    topm: int = 64) -> list:
    """Candidate hot keys for salted joins: keys holding more than
    ``frac`` of the rows. Per-batch local top-``topm`` value counts ->
    driver recombine (the heavy_hitters candidate bound: any key with
    global share > 1/topm appears in some batch's top-m, and frac is
    far above that for practical topm). Returns a plain list — hot-key
    lists are small by definition (at most 1/frac entries)."""

    def local_counts(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[col].value_counts().head(topm)
        # one null-key row per batch carries the batch total, so the
        # corpus never needs a second counting pass (ds.count() would
        # re-execute a derived pipeline)
        return pd.DataFrame({
            "k": np.append(vc.index.to_numpy(object), [None]),
            "c": np.append(vc.to_numpy(np.int64), [np.int64(len(b))]),
        })

    parts = ds.map_batches(local_counts, batch_format="pandas",
                           batch_size=65536).to_pandas()
    if len(parts) == 0:
        return []
    isnull = parts["k"].isna()
    total = int(parts.loc[isnull, "c"].sum())
    g = parts[~isnull].groupby("k", as_index=False)["c"].sum()
    hot = g[g["c"] > frac * total].sort_values("c", ascending=False)
    return hot["k"].tolist()


def profile_table(ds: rd.Dataset, columns: Sequence[str],
                  num_partitions: int | None = None) -> pd.DataFrame:
    """Column-level data profiling (the ingest data-quality gate):
    per column — row count, null count, EXACT distinct count, and
    lexicographic min/max of the string form (string form unifies
    numeric/date/text columns into one output schema; the SQL twin
    casts the same way).

    Scale shape: counts and min/max come from per-batch partials (one
    row per batch, driver-tiny reduce). Exact distincts need a global
    dedup — per batch each column emits its LOCAL distinct string
    values tagged (col, value), then ONE ``partition_map`` on the value
    co-locates duplicates across batches and each partition counts its
    distinct survivors; the caller sums columns x partitions cell
    counts. The exchanged rows are per-batch-distinct only — a
    low-cardinality column ships a handful of values per batch
    regardless of row count. (At text-scale cardinalities swap in the
    HLL sketch from sketches.py; exactness here keeps the oracle
    value-for-value.)"""
    cols = list(columns)

    def stats_part(b: pd.DataFrame) -> pd.DataFrame:
        rows = {"column": [], "n": [], "n_null": [],
                "min_s": [], "max_s": []}
        for c in cols:
            s = b[c]
            nn = int(s.isna().sum())
            sv = s.dropna().astype(str)
            rows["column"].append(c)
            rows["n"].append(np.int64(len(s)))
            rows["n_null"].append(np.int64(nn))
            rows["min_s"].append(sv.min() if len(sv) else None)
            rows["max_s"].append(sv.max() if len(sv) else None)
        return pd.DataFrame(rows)

    def _skipna_min(s: pd.Series):
        # pandas groupby.min raises on object columns mixing str and
        # None (a column all-null in one batch, non-null in another)
        s = s.dropna()
        return s.min() if len(s) else None

    def _skipna_max(s: pd.Series):
        s = s.dropna()
        return s.max() if len(s) else None

    base = (ds.map_batches(stats_part, batch_format="pandas",
                           batch_size=65536).to_pandas()
            .groupby("column", as_index=False)
            .agg(n=("n", "sum"), n_null=("n_null", "sum"),
                 min_s=("min_s", _skipna_min), max_s=("max_s", _skipna_max)))

    def distinct_part(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for j, c in enumerate(cols):
            u = b[c].dropna().astype(str).unique()
            outs.append(pd.DataFrame({
                "cid": np.full(len(u), j, dtype=np.int64), "v": u}))
        return pd.concat(outs, ignore_index=True)

    def count_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["cid", "v"]).groupby(
            "cid", sort=False).size().reset_index(name="nd")
        return d

    nd = (partition_map(ds.map_batches(distinct_part, batch_format="pandas",
                                       batch_size=65536),
                        "v", count_shard, num_partitions=num_partitions)
          .to_pandas()
          .groupby("cid", as_index=False)["nd"].sum())
    nd["column"] = nd["cid"].map(dict(enumerate(cols)))
    out = base.merge(nd[["column", "nd"]], on="column", how="left")
    return (pd.DataFrame({
        "column": out["column"],
        "n": out["n"].astype("int64"),
        "n_null": out["n_null"].astype("int64"),
        "n_distinct": out["nd"].fillna(0).astype("int64"),
        "min_s": out["min_s"],
        "max_s": out["max_s"],
    }).sort_values("column").reset_index(drop=True))


def corr_pairs(ds: rd.Dataset, columns: Sequence[str]) -> pd.DataFrame:
    """Pairwise Pearson correlations over numeric columns in TWO
    streaming passes: pass 1 per-pair means over pairwise-complete rows
    (NaN/NULL in either column drops the row for that pair only — SQL
    corr() semantics), pass 2 per-pair CENTERED co-moment partials.
    Centering before summing avoids the catastrophic cancellation of
    the raw-moment formula (q - s²/n loses all significant digits on a
    large-mean/low-variance column); each pass's partials are O(d²)
    floats per block, reduced on the driver in a stable sorted order.
    The EDA companion to profile_table. Returns (col_a, col_b, corr)
    rounded to 6 decimals (the knn cos_sim convention)."""
    cols = list(columns)
    d = len(cols)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    npair = len(pairs)

    def sums_part(batch: pd.DataFrame) -> pd.DataFrame:
        X = np.column_stack([batch[c].to_numpy(dtype="float64")
                             for c in cols])
        fin = np.isfinite(X)
        row = {}
        for i, (a, b) in enumerate(pairs):
            m = fin[:, a] & fin[:, b]
            row[f"n{i}"] = [np.int64(m.sum())]
            row[f"sa{i}"] = [X[m, a].sum()]
            row[f"sb{i}"] = [X[m, b].sum()]
        row["k"] = [float(X[0, 0]) if len(X) else 0.0]
        return pd.DataFrame(row)

    p1 = (ds.map_batches(sums_part, batch_format="pandas",
                         batch_size=65536).to_pandas().sort_values("k"))
    n = np.array([float(p1[f"n{i}"].sum()) for i in range(npair)])
    mu_a = np.array([p1[f"sa{i}"].sum() for i in range(npair)])
    mu_b = np.array([p1[f"sb{i}"].sum() for i in range(npair)])
    nz = n > 0
    mu_a[nz] = mu_a[nz] / n[nz]
    mu_b[nz] = mu_b[nz] / n[nz]

    def cm_part(batch: pd.DataFrame, mu_a_=mu_a, mu_b_=mu_b
                ) -> pd.DataFrame:
        X = np.column_stack([batch[c].to_numpy(dtype="float64")
                             for c in cols])
        fin = np.isfinite(X)
        row = {}
        for i, (a, b) in enumerate(pairs):
            m = fin[:, a] & fin[:, b]
            ca = X[m, a] - mu_a_[i]
            cb = X[m, b] - mu_b_[i]
            row[f"aa{i}"] = [(ca * ca).sum()]
            row[f"bb{i}"] = [(cb * cb).sum()]
            row[f"ab{i}"] = [(ca * cb).sum()]
        row["k"] = [float(X[0, 0]) if len(X) else 0.0]
        return pd.DataFrame(row)

    p2 = (ds.map_batches(cm_part, batch_format="pandas",
                         batch_size=65536).to_pandas().sort_values("k"))
    out_a, out_b, out_c = [], [], []
    for i, (a, b) in enumerate(pairs):
        denom = np.sqrt(float(p2[f"aa{i}"].sum())
                        * float(p2[f"bb{i}"].sum()))
        out_a.append(cols[a])
        out_b.append(cols[b])
        out_c.append(round(float(p2[f"ab{i}"].sum()) / denom, 6)
                     if denom > 0 else np.nan)
    return (pd.DataFrame({"col_a": out_a, "col_b": out_b, "corr": out_c})
            .sort_values(["col_a", "col_b"]).reset_index(drop=True))


def exact_quantile(ds: rd.Dataset, col: str, qs: Sequence[float] = (0.5,),
                   nbins: int = 2048, max_collect: int = 65536,
                   max_rounds: int = 8) -> pd.DataFrame:
    """EXACT quantiles of an unbounded CONTINUOUS column by distributed
    quickselect: no sort, no sampling, no value-domain assumption (the
    complement to q_value_quantiles' counting histograms, which need a
    discretized domain). Selection returns an actual data element —
    DuckDB's ``quantile_disc`` rule sorted[ceil(q*n)-1] — so the oracle
    compare is bit-exact with no rounding. NaNs are dropped (SQL NULL
    semantics); an empty/all-NaN column yields NaN values.

    Per quantile: each round scans the column once, every block emits a
    ``nbins``-bucket count partial over the current range (driver state
    = nbins ints), the driver walks the cumulative counts to the bucket
    containing the target rank and narrows the range; when the in-range
    population is <= ``max_collect`` the survivors are collected and
    selected exactly. Converges in 2-3 rounds on float data.

    Bucket membership is PURE COMPARISON against a shared edge array
    (np.searchsorted side='right'), and the next round's range filter
    uses the same closed-open interval [edges[b], edges[b+1]) (closed-
    closed only while the range still ends at the global max) — a
    floor((v-lo)/width) histogram paired with a >=/<= filter disagrees
    near bucket edges by one ulp and silently shifts the selection."""
    import math

    def mm_part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype="float64")
        v = v[np.isfinite(v)]
        return pd.DataFrame({"n": [np.int64(len(v))],
                             "lo": [v.min() if len(v) else np.inf],
                             "hi": [v.max() if len(v) else -np.inf]})

    mm = ds.map_batches(mm_part, batch_format="pandas",
                        batch_size=262144).to_pandas()
    n = int(mm["n"].sum())
    if n == 0:
        return pd.DataFrame({"q": list(qs),
                             "value": [np.nan] * len(qs)})
    lo0, hi0 = float(mm["lo"].min()), float(mm["hi"].max())
    out_q, out_v = [], []
    for q in qs:
        k = max(int(math.ceil(q * n)), 1)  # 1-based target rank
        lo, hi, closed = lo0, hi0, True
        rank = k
        for _ in range(max_rounds):
            if lo == hi:
                break
            edges = np.linspace(lo, hi, nbins + 1)
            edges[0], edges[-1] = lo, hi

            def hist_part(b: pd.DataFrame, lo_=lo, hi_=hi,
                          closed_=closed, edges_=edges) -> pd.DataFrame:
                v = b[col].to_numpy(dtype="float64")
                v = v[np.isfinite(v)]
                v = v[(v >= lo_) & ((v <= hi_) if closed_ else (v < hi_))]
                idx = np.clip(
                    np.searchsorted(edges_, v, side="right") - 1,
                    0, nbins - 1)
                cnt = np.bincount(idx, minlength=nbins)
                return pd.DataFrame({"b": np.arange(nbins, dtype=np.int64),
                                     "c": cnt.astype(np.int64)})

            h = (ds.map_batches(hist_part, batch_format="pandas",
                                batch_size=262144).to_pandas()
                 .groupby("b")["c"].sum().reindex(range(nbins),
                                                  fill_value=0))
            cum = h.cumsum()
            b = int(np.searchsorted(cum.to_numpy(), rank))
            in_bucket = int(h.iloc[b])
            rank = rank - (int(cum.iloc[b - 1]) if b > 0 else 0)
            lo, hi = float(edges[b]), float(edges[b + 1])
            closed = closed and (b == nbins - 1)
            if in_bucket <= max_collect:
                break

        def collect_part(b: pd.DataFrame, lo_=lo, hi_=hi,
                         closed_=closed) -> pd.DataFrame:
            v = b[col].to_numpy(dtype="float64")
            v = v[np.isfinite(v)]
            return pd.DataFrame({
                "v": v[(v >= lo_)
                       & ((v <= hi_) if closed_ else (v < hi_))]})

        vals = np.sort(ds.map_batches(
            collect_part, batch_format="pandas",
            batch_size=262144).to_pandas()["v"].to_numpy())
        out_q.append(q)
        out_v.append(float(vals[rank - 1]) if len(vals) else np.nan)
    return pd.DataFrame({"q": out_q, "value": out_v})


def write_range_partitioned(ds: rd.Dataset, col: str, out_dir: str,
                            nshards: int = 8,
                            columns: "Sequence[str] | None" = None
                            ) -> dict:
    """Range-partitioned parquet SINK — the resumable-output layout the
    100 TB contract asks for: one hive directory per key range
    (``shard=K/``), so a consumer can prune at the read on the range
    column and a failed downstream job can re-run per range.

    Split points come from the distributed exact-quantile quickselect
    (no global sort — the whole point); rows are assigned in one
    stateless pass and written with ``partition_cols``.  Publication is
    atomic (per-process tmp dir + rename, the builder pattern shared
    with build_warc_corpus/build_ivfpq_index), and a ``_bounds.json``
    manifest records the split points + total rows for the reader.

    Returns the manifest dict."""
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    manifest_path = os.path.join(out_dir, "_bounds.json")
    if os.path.exists(manifest_path):
        # cache check FIRST: the exact-quantile pass below is the
        # dominant cost and must not run for an already-published dir
        with open(manifest_path) as f:
            return json.load(f)

    qs = tuple(i / nshards for i in range(1, nshards))
    b = exact_quantile(ds, col, qs=qs)
    bounds = np.sort(b["value"].to_numpy(np.float64))

    if columns is not None:
        ds = ds.select_columns(list(columns))

    def assign(t: pd.DataFrame) -> pd.DataFrame:
        t = t.copy()
        t["shard"] = np.searchsorted(
            bounds, t[col].to_numpy(np.float64), side="left"
        ).astype(np.int64)
        return t

    tmp_dir = out_dir + f".tmp.{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shaded = ds.map_batches(assign, batch_format="pandas",
                            batch_size=65536)
    shaded.write_parquet(tmp_dir, partition_cols=["shard"])
    n = sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _, fs in os.walk(tmp_dir)
        for f in fs if f.endswith(".parquet"))
    manifest = {"col": col, "bounds": bounds.tolist(),
                "nshards": int(nshards), "rows": int(n)}
    with open(os.path.join(tmp_dir, "_bounds.json"), "w") as f:
        json.dump(manifest, f)
    if not os.path.exists(manifest_path):
        try:
            os.rename(tmp_dir, out_dir)
        except OSError:
            pass
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return manifest


def morton2(bx: np.ndarray, by: np.ndarray, bits: int = 6) -> np.ndarray:
    """Interleave the low ``bits`` of two int64 arrays into a Z-order
    (Morton) code: bit i of bx lands at 2i, bit i of by at 2i+1."""
    z = np.zeros_like(bx, dtype=np.int64)
    for i in range(bits):
        z |= ((bx >> i) & 1) << (2 * i)
        z |= ((by >> i) & 1) << (2 * i + 1)
    return z


def zorder_blocks(ds: rd.Dataset, xcol: str, ycol: str,
                  key_expr, bits: int = 6,
                  block_size: int = 2048) -> pd.DataFrame:
    """Z-order data-layout planner: cluster rows along a 2-D Morton
    curve and report per-block min/max envelopes of BOTH dimensions —
    the pruning statistics a multi-dimensional-filter scan would use.
    (Sorting by either single column gives tight ranges on that column
    and useless ones on the other; the Z-curve bounds both, which is
    the point of Z-order table layout at 100 TB.)

    Distributed shape: one map_batches computes the Morton code and a
    composed UNIQUE int64 sort key (``key_expr(batch) -> int64`` must
    inject a per-row tiebreak, e.g. (z<<44)|(orderkey<<8)|linenumber),
    then the global rank rides the ordered_scan prefix-scan primitive
    (range sort + metadata-scale block-prefix combine), and the block
    report is a bounded grouped_agg — rows-on-driver = n_blocks.

    Scale note: ``block_size`` is the PHYSICAL clustering unit — at
    10^12 rows set it to the row-group/file size (10^6+) so the block
    report stays manifest-scale (n_blocks ≈ file count), exactly like
    a lakehouse OPTIMIZE ZORDER manifest; the 2048 here is fixture
    granularity for the oracle.

    ``xcol``/``ycol`` must already be int64 in [0, 2^bits)."""
    from .windows import ordered_scan

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        bx = b[xcol].to_numpy(np.int64)
        by = b[ycol].to_numpy(np.int64)
        z = morton2(bx, by, bits)
        return pd.DataFrame({
            "bx": bx, "by": by, "z": z,
            "k": key_expr(b, z),
            "one": np.ones(len(b), dtype="int64"),
        })

    scanned = ordered_scan(
        ds.map_batches(prep, batch_format="pandas", batch_size=65536),
        "k", sum_cols=("one",))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "block": (b["run_one"].to_numpy(np.int64) - 1) // block_size,
            "bx": b["bx"], "by": b["by"], "z": b["z"],
        })

    agg = grouped_agg(scanned.map_batches(assign, batch_format="pandas",
                                          batch_size=65536),
                      ["block"], mins=("bx", "by", "z"),
                      maxs=("bx", "by", "z"))
    agg = agg.rename(columns={"n": "n_rows"})
    cols = ["block", "n_rows", "min_bx", "max_bx", "min_by", "max_by",
            "min_z", "max_z"]
    return (agg[cols].astype({c: "int64" for c in cols})
            .sort_values("block").reset_index(drop=True))


def sql_morton2(bx_expr: str, by_expr: str, bits: int = 6) -> str:
    """DuckDB expression computing the same Morton code as morton2."""
    terms = []
    for i in range(bits):
        terms.append(f"((({bx_expr}) >> {i}) & 1) * {1 << (2 * i)}")
        terms.append(f"((({by_expr}) >> {i}) & 1) * {1 << (2 * i + 1)}")
    return "(" + " + ".join(terms) + ")"


def compaction_plan(files: "Sequence[tuple[str, int]]",
                    target_bytes: int) -> list[list[str]]:
    """Deterministic bin-packing plan for small-file compaction:
    first-fit-decreasing over (size desc, path) with bin capacity
    ``target_bytes``. Every bin holds at least one file (a single file
    larger than the target gets its own bin untouched-in-spirit — it is
    still rewritten so the output layout is uniform). Pure metadata —
    no file contents are read."""
    order = sorted(files, key=lambda fs: (-fs[1], fs[0]))
    bins: list[list[str]] = []
    loads: list[int] = []
    for path, size in order:
        placed = False
        for i, load in enumerate(loads):
            if load + size <= target_bytes:
                bins[i].append(path)
                loads[i] += size
                placed = True
                break
        if not placed:
            bins.append([path])
            loads.append(size)
    # stable group ordering + stable member ordering for resumability
    for b in bins:
        b.sort()
    bins.sort()
    return bins


@ray.remote(num_cpus=1)
def _compact_group(paths: list[str], out_path: str) -> dict:
    """Rewrite one planned group of parquet files as a single file.
    Atomic per group (tmp + rename): a killed run leaves either the
    finished file or nothing, never a torn one."""
    import os
    import time

    import pyarrow.parquet as pq

    t0 = time.monotonic()
    tables = [pq.read_table(p) for p in paths]
    schema = tables[0].schema
    for t, p in zip(tables[1:], paths[1:]):
        if t.schema != schema:
            raise ValueError(
                f"compact_parquet: schema mismatch in group ({paths[0]} "
                f"vs {p}); compaction requires a uniform table schema")
    merged = pa.concat_tables(tables)
    tmp = out_path + f".tmp.{os.getpid()}"
    pq.write_table(merged, tmp)
    os.replace(tmp, out_path)
    return {"rows": merged.num_rows,
            "bytes": os.path.getsize(out_path),
            "n_inputs": len(paths),
            "wall_sec": round(time.monotonic() - t0, 3)}


def compact_parquet(in_dir: str, out_dir: str,
                    target_bytes: int = 128 << 20) -> dict:
    """Small-file COMPACTION (the lakehouse OPTIMIZE step): bin-pack a
    directory of parquet files into ~``target_bytes`` outputs, one Ray
    task per output file, resumable.

    100 TB shape: the plan is pure file metadata on the driver (names +
    sizes, never contents); each group rewrite is an independent remote
    task reading only its own inputs, so the cluster compacts every
    group in parallel and a killed run resumes by skipping groups whose
    output already exists. Guards mirror the checkpoint jobs: the plan
    is persisted up front (``_plan.json``) and a resume REFUSES to reuse
    a directory planned over a different input set or target — silent
    mixing of two plans is how compactions lose rows. The final
    ``_compaction.json`` manifest (written last, so its presence means
    complete) carries per-group rows/bytes/wall lineage.

    Reference analogue: none in ocropy (single-node files); this is the
    maintenance operator a 10^12-row Lance/parquet table needs so read
    parallelism units stay ~target-sized."""
    import glob as _glob
    import hashlib
    import json
    import os

    from ..state.checkpoint import write_json_atomic

    manifest_path = os.path.join(out_dir, "_compaction.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    files = sorted(
        (p, os.path.getsize(p))
        for p in _glob.glob(os.path.join(in_dir, "**", "*.parquet"),
                            recursive=True))
    if not files:
        raise FileNotFoundError(f"compact_parquet: no parquet under {in_dir}")
    groups = compaction_plan(files, target_bytes)
    plan_key = hashlib.md5(json.dumps(
        {"groups": groups, "target": int(target_bytes)},
        sort_keys=True).encode()).hexdigest()

    os.makedirs(out_dir, exist_ok=True)
    plan_path = os.path.join(out_dir, "_plan.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            prior = json.load(f)
        if prior.get("plan_key") != plan_key:
            raise RuntimeError(
                "compact_parquet: existing partial output was planned "
                "over a different input set or target size; remove "
                f"{out_dir} or compact to a fresh directory")
    else:
        write_json_atomic(plan_path, {"plan_key": plan_key, "in_dir": in_dir,
                                      "target_bytes": int(target_bytes),
                                      "groups": groups})

    outs = [os.path.join(out_dir, f"part-{i:05d}.parquet")
            for i in range(len(groups))]
    pending = [(g, o) for g, o in zip(groups, outs)
               if not os.path.exists(o)]
    stats = ray.get([_compact_group.remote(g, o) for g, o in pending])
    done = {o: s for (_, o), s in zip(pending, stats)}
    import pyarrow.parquet as pq

    per_group = []
    for i, o in enumerate(outs):
        s = done.get(o) or {
            "rows": pq.read_metadata(o).num_rows,
            "bytes": os.path.getsize(o),
            "n_inputs": len(groups[i]), "wall_sec": 0.0,
        }
        per_group.append({"part": i, **s})
    manifest = {
        "plan_key": plan_key,
        "n_files_before": len(files),
        "n_files_after": len(groups),
        "bytes_before": int(sum(sz for _, sz in files)),
        "bytes_after": int(sum(g["bytes"] for g in per_group)),
        "rows": int(sum(g["rows"] for g in per_group)),
        "target_bytes": int(target_bytes),
        "groups": per_group,
    }
    write_json_atomic(manifest_path, manifest)
    return manifest


def vacuum_dir(data_dir: str, referenced: "Sequence[str]",
               grace_sec: float = 7 * 86400.0,
               apply: bool = False) -> pd.DataFrame:
    """VACUUM — orphan-file garbage collection for a published table
    directory: every ``*.parquet`` under ``data_dir`` that is not in
    the ``referenced`` set (the current manifest's files) and is older
    than ``grace_sec`` is eligible for removal; ``apply=True`` deletes
    eligible files, the default is a dry run. Referenced files and
    young orphans (possibly a concurrent writer's unpublished output —
    the reason every lakehouse vacuum has a retention window) are never
    touched.

    Driver-only metadata pass (names + mtimes; file COUNT scale, no
    data bytes) — correct at any table size because the manifest, not
    the data, defines liveness. Returns the per-file audit report
    (path, bytes, status in referenced / orphan_kept_young /
    orphan_removed / orphan_eligible)."""
    import glob as _glob
    import os
    import time

    ref = {os.path.abspath(p) for p in referenced}
    now = time.time()
    rows = []
    for p in sorted(_glob.glob(os.path.join(data_dir, "**", "*.parquet"),
                               recursive=True)):
        ap = os.path.abspath(p)
        st = os.stat(ap)
        if ap in ref:
            status = "referenced"
        elif now - st.st_mtime < grace_sec:
            status = "orphan_kept_young"
        elif apply:
            os.unlink(ap)
            status = "orphan_removed"
        else:
            status = "orphan_eligible"
        rows.append({"file": os.path.relpath(ap, data_dir),
                     "bytes": int(st.st_size), "status": status})
    return pd.DataFrame(rows, columns=["file", "bytes", "status"])


# ---------------------------------------------- Bloom semi-join filter


def bloom_semi_filter(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    num_bits: int = 1 << 20,
    num_hashes: int = 4,
) -> rd.Dataset:
    """Semi-join REDUCTION by Bloom filter pushdown (the classic
    distributed-join optimization): build a ``num_bits``-bit Bloom
    filter of the right side's int64 keys — per-block bit arrays OR'd
    on the driver (blocks x bits/8 bytes, ~128 KB each at the default;
    never the keys themselves) — broadcast it once via ray.put, and
    drop left rows whose key cannot be on the right BEFORE any
    shuffle. False positives pass through (and must be eliminated by
    the exact join downstream); false negatives are impossible, so
    ``exact_join(bloom_semi_filter(L, R), R) == exact_join(L, R)``.

    Contrast broadcast_join (ships the TABLE; right must fit in one
    heap) — the Bloom ships only bits, so it applies at any right-side
    cardinality, trading a downstream exact join for an upstream
    shuffle-volume cut of (1 - selectivity)."""
    import ray

    mask = np.int64(num_bits - 1)
    if num_bits & (num_bits - 1):
        raise ValueError("bloom_semi_filter: num_bits must be a power of 2")

    def _idx(keys: np.ndarray, i: int) -> np.ndarray:
        # double hashing: two independent Knuth/Fibonacci multipliers
        h1 = (keys * np.int64(-7046029254386353131)) >> np.int64(13)
        h2 = (keys * np.int64(2654435761) + np.int64(0x9E3779B9)) >> np.int64(7)
        return ((h1 + np.int64(i) * h2) & mask).astype(np.int64)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        arr = np.zeros(num_bits // 8, dtype=np.uint8)
        keys = b[right_on].to_numpy(np.int64)
        for i in range(num_hashes):
            idx = _idx(keys, i)
            np.bitwise_or.at(arr, idx >> 3,
                             (np.uint8(1) << (idx & 7)).astype(np.uint8))
        return pd.DataFrame({"bloom": [arr.tobytes()]})

    parts = right.map_batches(partial, batch_format="pandas",
                              batch_size=65536).to_pandas()
    agg = np.zeros(num_bits // 8, dtype=np.uint8)
    for blob in parts["bloom"]:
        agg |= np.frombuffer(blob, dtype=np.uint8)
    bloom_ref = ray.put(agg)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        arr = ray.get(bloom_ref)  # zero-copy shared read per task
        keys = b[left_on].to_numpy(np.int64)
        ok = np.ones(keys.shape[0], dtype=bool)
        for i in range(num_hashes):
            idx = _idx(keys, i)
            ok &= (arr[idx >> 3] & (np.uint8(1) << (idx & 7))) != 0
        return b[ok]

    return left.map_batches(keep, batch_format="pandas")


# --------------------------------------------- targeted purge (GDPR)


def purge_rows(in_dir: str, out_dir: str, key_col: str,
               keys) -> dict:
    """Targeted row DELETION across a parquet table directory (the
    right-to-be-forgotten / retention-enforcement rewrite): every input
    file is rewritten WITHOUT rows whose ``key_col`` is in ``keys``,
    one independent Ray task per file — resumable (a rerun skips files
    whose output exists), guarded (a resume refuses a directory
    planned over a different input set or key set), and audited (the
    ``_purge.json`` manifest, written last, carries per-file rows_in /
    rows_removed lineage — the deletion evidence a compliance review
    asks for).

    100 TB shape: the key set is broadcast ONCE via ray.put (ids are
    request-scale, not corpus-scale); each task reads only its own
    file; the driver holds file names and count rows only."""
    import glob as _glob
    import hashlib
    import json
    import os
    import time as _t

    import ray

    from ..state.checkpoint import write_json_atomic

    manifest_path = os.path.join(out_dir, "_purge.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    files = sorted(_glob.glob(os.path.join(in_dir, "**", "*.parquet"),
                              recursive=True))
    if not files:
        raise FileNotFoundError(f"purge_rows: no parquet under {in_dir}")
    key_list = sorted(int(k) for k in keys)
    plan_key = hashlib.md5(json.dumps(
        {"files": files, "key_col": key_col, "keys": key_list},
        sort_keys=True).encode()).hexdigest()

    os.makedirs(out_dir, exist_ok=True)
    plan_path = os.path.join(out_dir, "_plan.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            if json.load(f).get("plan_key") != plan_key:
                raise RuntimeError(
                    "purge_rows: existing partial output was planned "
                    "over a different input or key set; purge to a "
                    "fresh directory")
    else:
        write_json_atomic(plan_path, {"plan_key": plan_key, "in_dir": in_dir,
                                      "key_col": key_col,
                                      "n_keys": len(key_list)})

    keys_ref = ray.put(np.asarray(key_list, dtype=np.int64))

    @ray.remote
    def _purge_file(src: str, dst: str) -> dict:
        import pyarrow.compute as pc
        import pyarrow.parquet as pq_

        t0 = _t.time()
        t = pq_.read_table(src)
        ks = ray.get(keys_ref)
        drop = pc.is_in(t.column(key_col),
                        value_set=pa.array(ks, pa.int64()))
        keep = pc.invert(pc.fill_null(drop, False))
        out = t.filter(keep)
        tmp_dst = dst + f".tmp.{os.getpid()}"
        pq_.write_table(out, tmp_dst)
        os.replace(tmp_dst, dst)
        return {"rows_in": t.num_rows,
                "rows_removed": t.num_rows - out.num_rows,
                "wall_sec": round(_t.time() - t0, 3)}

    outs = [os.path.join(out_dir, f"part-{i:05d}.parquet")
            for i in range(len(files))]
    pending = [(s, d) for s, d in zip(files, outs)
               if not os.path.exists(d)]
    stats = ray.get([_purge_file.remote(s, d) for s, d in pending])
    done = {d: st for (_, d), st in zip(pending, stats)}

    import pyarrow.parquet as pq_

    per_file = []
    for i, (src, dst) in enumerate(zip(files, outs)):
        st = done.get(dst) or {
            "rows_in": pq_.read_metadata(src).num_rows,
            "rows_removed": (pq_.read_metadata(src).num_rows
                             - pq_.read_metadata(dst).num_rows),
            "wall_sec": 0.0}
        per_file.append({"part": i, "src": os.path.basename(src), **st})
    manifest = {"plan_key": plan_key, "key_col": key_col,
                "n_keys": len(key_list),
                "rows_in": int(sum(f["rows_in"] for f in per_file)),
                "rows_removed": int(sum(f["rows_removed"]
                                        for f in per_file)),
                "files": per_file}
    write_json_atomic(manifest_path, manifest)
    return manifest
