"""Distributed link-graph analytics on Ray Data.

Web-scale curation pipelines carry a link graph next to the document
corpus: PageRank-style centrality is a standard document-quality prior
(the shape of Common Crawl's harmonic-centrality ranks), degree
distributions drive spam heuristics, and triangle counts measure local
clustering. These operators run them as streaming Dataset stages:

- ``synth_edges`` derives a deterministic pseudo-random k-out-regular
  edge set from the documents table with pure int64 arithmetic, so the
  DuckDB oracles can rebuild the *identical* graph in SQL. In
  production the edge source is a real ``(src, dst)`` table; every
  operator below takes the edge-expansion as a parameter-free batch
  transform and works unchanged on a materialized edge Dataset.
- ``pagerank`` is power iteration with EXACT integer arithmetic: with
  damping d = 17/20 and uniform out-degree k, the scaled rank
  ``R_t = r_t * N * (20k)^t`` satisfies the integer recurrence

      R_0 = 1;   R_{t+1}(v) = 3 * 20^t * k^(t+1) + 17 * sum_{u->v} R_t(u)

  so distributed summation order cannot perturb the result and the
  SQL twin matches bit-for-bit (float PageRank would diverge from any
  oracle in the last ulps). int64 headroom: R grows ~ (17 * indeg)^t;
  5 iterations hold to max-indegree ~ 200. For deeper runs switch the
  contribution column to float64 and drop the exact-oracle claim.
- Each iteration is ONE hash shuffle of node-scale pre-aggregated
  partials (``sum`` combines inside the map tasks first) and the rank
  vector is re-materialized per round to keep lineage flat — the
  standard bulk-synchronous PageRank schedule; nothing ever lands on
  the driver except the final top-k merge.
- ``triangle_count`` is the edge-iterator algorithm as two large x
  large ``bucket_join``s: orient edges u<v, join wedges on the middle
  vertex, probe the closing edge by a packed pair key. At web scale
  orient by (degree, id) instead of raw id to bound the wedge fan-out
  of hub vertices (documented, not needed for the synthetic graph's
  bounded degrees).

Reference analogue: the reference engine has no graph stage — this is
part of the §2.8 training-data-pipeline surface (link-prior quality
scoring), same contract style as pipelines/textstats.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from .relational import bucket_join, grouped_agg, keyed_combine, partition_map

# Multiplicative-congruential link synthesis: dst_j(src) =
# ((src * MULT + j * INC) mod 2^32) mod N for j in 1..k. MULT is
# Knuth's 2^32 golden-ratio multiplier, INC the Numerical Recipes LCG
# increment; the double mod makes in-degree non-uniform (a permutation
# would give every node in-degree exactly k — no skew to exercise).
MULT = 2654435761
INC = 1013904223
MOD = 2**32


def out_links(src: np.ndarray, n_nodes: int, k: int) -> np.ndarray:
    """(len(src), k) int64 matrix of link targets — pure int64 ops,
    reproducible verbatim in SQL. src * MULT stays under 2^63 for
    n_nodes < 3.4e9; at trillion-node scale widen to uint64 (and move
    the oracle to hash parity like doc_dup_spans)."""
    s = src.astype(np.int64)
    js = np.arange(1, k + 1, dtype=np.int64)
    return ((s[:, None] * MULT + js[None, :] * INC) % MOD) % n_nodes


def synth_edges(nodes: rd.Dataset, n_nodes: int, k: int = 4,
                id_col: str = "doc_id") -> rd.Dataset:
    """(src, dst) edge Dataset, k out-links per node, self-loops kept
    (PageRank treats them as ordinary edges; triangle_count filters)."""

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        src = b[id_col].to_numpy(np.int64)
        dst = out_links(src, n_nodes, k)
        return pd.DataFrame({"src": np.repeat(src, k), "dst": dst.ravel()})

    return nodes.map_batches(expand, batch_format="pandas", batch_size=65536)


def pagerank(nodes: rd.Dataset, n_nodes: int, k: int = 4, iters: int = 5,
             id_col: str = "doc_id") -> rd.Dataset:
    """Integer-exact PageRank over the synthesized graph. Returns a
    Dataset (id:int64, r:int64) of scaled ranks R_iters.

    The out-links are recomputed from the node id inside the expansion
    map (the graph is functional), so an iteration is map_batches ->
    groupby.sum -> map_batches: one shuffle, no edge-table join. With a
    materialized edge table, replace the expansion with a bucket_join
    of ranks onto edges by src — the shuffle count is identical."""
    ranks = nodes.map_batches(
        lambda b: pd.DataFrame({"id": b[id_col].astype(np.int64),
                                "r": np.ones(len(b), dtype=np.int64)}),
        batch_format="pandas", batch_size=65536)

    for t in range(iters):
        def expand(b: pd.DataFrame, _k=k, _n=n_nodes) -> pd.DataFrame:
            src = b["id"].to_numpy(np.int64)
            r = b["r"].to_numpy(np.int64)
            dst = out_links(src, _n, _k)
            # contribution rows to each target, plus a zero row for the
            # source itself so zero-in-degree nodes still surface with
            # the injection term after the groupby
            node = np.concatenate([dst.ravel(), src])
            contrib = np.concatenate(
                [np.repeat(17 * r, _k), np.zeros(len(src), dtype=np.int64)])
            return pd.DataFrame({"node": node, "contrib": contrib})

        inj = 3 * 20**t * k ** (t + 1)
        summed = keyed_combine(
            ranks.map_batches(expand, batch_format="pandas",
                              batch_size=65536), "node", ["contrib"])

        def finish(b: pd.DataFrame, _inj=inj) -> pd.DataFrame:
            return pd.DataFrame(
                {"id": b["node"].astype(np.int64),
                 "r": (_inj + b["contrib"]).astype(np.int64)})

        # materialize per round: keeps the plan flat (re-execution of a
        # t-deep lineage would recompute all prior shuffles) and the
        # rank vector is node-scale — the object store holds it
        ranks = summed.map_batches(finish, batch_format="pandas",
                                   batch_size=65536).materialize()
    return ranks


def pagerank_topk(sf_dir: str, k: int = 4, iters: int = 5,
                  topn: int = 20) -> pd.DataFrame:
    """Top-n documents by PageRank: (doc_id, rank_num), rank desc then
    doc_id asc. Block-local top-n then a tiny driver merge — no global
    sort. The per-block cut sorts by BOTH columns so ties at the k-th
    rank cannot drop the lexicographically-first candidate."""
    from . import queries as q

    nodes = q._read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()
    ranks = pagerank(nodes, n, k=k, iters=iters)

    def block_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["r", "id"],
                             ascending=[False, True]).head(topn)

    cand = ranks.map_batches(block_topk, batch_format="pandas",
                             batch_size=262144).to_pandas()
    cand = cand.sort_values(["r", "id"], ascending=[False, True]).head(topn)
    return pd.DataFrame({"doc_id": cand["id"].to_numpy(np.int64),
                         "rank_num": cand["r"].to_numpy(np.int64)})


def indegree_hist(sf_dir: str, k: int = 4) -> pd.DataFrame:
    """In-degree distribution of the link graph: (indeg, n_nodes).
    One node-scale shuffle (pre-aggregated partial counts), then a
    bounded histogram combine — the degree support is tiny."""
    from . import queries as q

    nodes = q._read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        src = b["doc_id"].to_numpy(np.int64)
        dst = out_links(src, n, k)
        node = np.concatenate([dst.ravel(), src])
        one = np.concatenate([np.ones(dst.size, dtype=np.int64),
                              np.zeros(len(src), dtype=np.int64)])
        g = (pd.DataFrame({"node": node, "one": one})
             .groupby("node", as_index=False, sort=False)["one"].sum())
        return g

    indeg = (keyed_combine(
        nodes.map_batches(partial, batch_format="pandas",
                          batch_size=65536), "node", ["one"])
             .map_batches(lambda b: pd.DataFrame(
                 {"indeg": b["one"].astype(np.int64)}),
                 batch_format="pandas", batch_size=65536))
    g = grouped_agg(indeg, ["indeg"], counts=True)
    out = pd.DataFrame({"indeg": g["indeg"].astype(np.int64),
                        "n_nodes": g["n"].astype(np.int64)})
    return out.sort_values("indeg").reset_index(drop=True)


def triangle_count(sf_dir: str, k: int = 4) -> pd.DataFrame:
    """Exact triangle count of the undirected link graph (self-loops
    dropped, edges deduped to u<v). Edge-iterator algorithm: wedges by
    joining the oriented edge list with itself on the middle vertex,
    then probing the closing (lo, hi) edge by a packed pair key —
    two bucket_joins, one (u, v)-keyed distinct pass, zero driver
    state.

    Pair keys pack as u * n + w (exact while n^2 < 2^63; hash-pack at
    larger scale). Orientation is by raw id; at web scale orient by
    (degree, id) so hub vertices don't own quadratic wedge sets."""
    from . import queries as q

    nodes = q._read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()

    def make_edges(b: pd.DataFrame) -> pd.DataFrame:
        src = b["doc_id"].to_numpy(np.int64)
        dst = out_links(src, n, k)
        s = np.repeat(src, k)
        d = dst.ravel()
        keep = s != d
        s, d = s[keep], d[keep]
        return pd.DataFrame({"u": np.minimum(s, d),
                             "v": np.maximum(s, d)}).drop_duplicates()

    def distinct_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["u", "v"])

    ue = partition_map(nodes.map_batches(make_edges, batch_format="pandas",
                                         batch_size=65536),
                       ["u", "v"], distinct_edges)
    ue_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    # wedges: (u, v, w) with u < v < w via e1.v == e2.u
    e2 = ue.map_batches(lambda b: b.rename(columns={"u": "mid", "v": "w"}),
                        batch_format="pandas", batch_size=65536)
    e2_schema = pa.schema([("mid", pa.int64()), ("w", pa.int64())])
    e1 = ue.map_batches(lambda b: b.rename(columns={"v": "mid"}),
                        batch_format="pandas", batch_size=65536)
    e1_schema = pa.schema([("u", pa.int64()), ("mid", pa.int64())])
    wedges = bucket_join(e1, e2, "mid", "mid",
                         left_schema=e1_schema, right_schema=e2_schema)

    def wedge_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"pk": b["u"].to_numpy(np.int64) * n + b["w"].to_numpy(np.int64)})

    def edge_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"pk": b["u"].to_numpy(np.int64) * n + b["v"].to_numpy(np.int64)})

    wk = wedges.map_batches(wedge_key, batch_format="pandas",
                            batch_size=65536)
    ek = ue.map_batches(edge_key, batch_format="pandas", batch_size=65536)
    pk_schema = pa.schema([("pk", pa.int64())])
    closed = bucket_join(wk, ek, "pk", "pk",
                         left_schema=pk_schema, right_schema=pk_schema)
    return pd.DataFrame({"n_triangles": np.asarray([closed.count()],
                                                   dtype=np.int64)})


def _edges_sql(k: int) -> str:
    return f"""
nodes AS (SELECT doc_id AS id FROM documents),
nn AS (SELECT count(*) AS n FROM nodes),
edges AS (
  SELECT id AS src,
         ((id * {MULT} + j.j * {INC}) % {MOD}) % nn.n AS dst
  FROM nodes, nn, (SELECT unnest(range(1, {k + 1})) AS j) j
)"""


def sql_pagerank(k: int = 4, iters: int = 5, topn: int = 20) -> str:
    """Programmatic chained-CTE twin of the integer recurrence."""
    parts = [_edges_sql(k),
             "r0 AS (SELECT id, 1::BIGINT AS r FROM nodes)"]
    for t in range(iters):
        inj = 3 * 20**t * k ** (t + 1)
        parts.append(f"""
r{t + 1} AS (
  SELECT n.id, {inj} + 17 * coalesce(sum(r.r), 0) AS r
  FROM nodes n
  LEFT JOIN edges e ON e.dst = n.id
  LEFT JOIN r{t} r ON r.id = e.src
  GROUP BY n.id
)""")
    return ("WITH " + ",".join(parts)
            + f"""
SELECT id AS doc_id, r::BIGINT AS rank_num FROM r{iters}
ORDER BY rank_num DESC, doc_id LIMIT {topn}""")


def sql_indegree_hist(k: int = 4) -> str:
    return ("WITH " + _edges_sql(k) + """
SELECT indeg, count(*)::BIGINT AS n_nodes FROM (
  SELECT n.id, count(e.src)::BIGINT AS indeg
  FROM nodes n LEFT JOIN edges e ON e.dst = n.id GROUP BY n.id
) GROUP BY indeg ORDER BY indeg""")


def sql_triangle_count(k: int = 4) -> str:
    return ("WITH " + _edges_sql(k) + """,
ue AS (SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
       FROM edges WHERE src <> dst)
SELECT count(*)::BIGINT AS n_triangles
FROM ue e1 JOIN ue e2 ON e2.u = e1.v
JOIN ue e3 ON e3.u = e1.u AND e3.v = e2.v""")


_BFS_INF = 1_000_000_000


def bfs_levels(sf_dir: str, k: int = 4, rounds: int = 4,
               seed_mod: int = 97) -> pd.DataFrame:
    """Multi-source BFS over the link graph (crawl-frontier distance /
    seed-set reachability): nodes with ``doc_id % seed_mod == 0`` are
    the seed set; ``rounds`` synchronous relaxations of

        d_{t+1}(v) = min(d_t(v), min_{u->v} d_t(u) + 1)

    — min is order-free, so the distributed result is exact and the
    chained-CTE oracle matches bit-for-bit. Same bulk-synchronous
    schedule as pagerank: one shuffle per round over (node, candidate
    distance) partials, re-materialized per round. Returns the level
    histogram (dist, n_nodes) with unreached nodes at dist = -1."""
    from . import queries as q

    nodes = q._read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()

    dists = nodes.map_batches(
        lambda b: pd.DataFrame({
            "id": b["doc_id"].astype(np.int64),
            "d": np.where(b["doc_id"].to_numpy(np.int64) % seed_mod == 0,
                          0, _BFS_INF).astype(np.int64)}),
        batch_format="pandas", batch_size=65536)

    for _ in range(rounds):
        def relax(b: pd.DataFrame, _k=k, _n=n) -> pd.DataFrame:
            src = b["id"].to_numpy(np.int64)
            d = b["d"].to_numpy(np.int64)
            dst = out_links(src, _n, _k)
            node = np.concatenate([dst.ravel(), src])
            cand = np.concatenate(
                [np.repeat(np.minimum(d + 1, _BFS_INF), _k), d])
            return pd.DataFrame({"node": node, "d": cand})

        dists = (keyed_combine(
            dists.map_batches(relax, batch_format="pandas",
                              batch_size=65536), "node", ["d"], "min")
                 .map_batches(lambda b: pd.DataFrame(
                     {"id": b["node"].astype(np.int64),
                      "d": b["d"].astype(np.int64)}),
                     batch_format="pandas", batch_size=65536)
                 .materialize())

    lev = dists.map_batches(
        lambda b: pd.DataFrame({"dist": np.where(
            b["d"].to_numpy(np.int64) >= _BFS_INF, -1,
            b["d"].to_numpy(np.int64)).astype(np.int64)}),
        batch_format="pandas", batch_size=65536)
    g = grouped_agg(lev, ["dist"], counts=True)
    return (pd.DataFrame({"dist": g["dist"].astype("int64"),
                          "n_nodes": g["n"].astype("int64")})
            .sort_values("dist").reset_index(drop=True))


def sql_bfs_levels(k: int = 4, rounds: int = 4, seed_mod: int = 97) -> str:
    parts = [_edges_sql(k), f"""
d0 AS (SELECT id, CASE WHEN id % {seed_mod} = 0 THEN 0
                       ELSE {_BFS_INF} END AS d FROM nodes)"""]
    for t in range(rounds):
        parts.append(f"""
d{t + 1} AS (
  SELECT n.id, least(any_value(dt.d),
                     coalesce(min(ds.d + 1), {_BFS_INF})) AS d
  FROM nodes n JOIN d{t} dt ON dt.id = n.id
  LEFT JOIN edges e ON e.dst = n.id
  LEFT JOIN d{t} ds ON ds.id = e.src
  GROUP BY n.id
)""")
    return ("WITH " + ",".join(parts) + f"""
SELECT CASE WHEN d >= {_BFS_INF} THEN -1 ELSE d END::BIGINT AS dist,
       count(*)::BIGINT AS n_nodes
FROM d{rounds} GROUP BY 1 ORDER BY 1""")


_HC_SCALE = 1_000_000


def harmonic_centrality(sf_dir: str, k: int = 4, rounds: int = 4,
                        n_seeds: int = 4, seed_mod: int = 97,
                        topn: int = 20) -> pd.DataFrame:
    """Sampled harmonic centrality (the metric behind Common Crawl's
    host rankings): h(v) = sum over sampled seeds s of SCALE // d(s, v)
    — integer floor reciprocals, so distributed min/sum order cannot
    perturb the result and the chained-CTE oracle matches exactly.
    Unreached or self (d = 0) contribute 0.

    The per-seed distances ride ONE wide state table (id, d0..dS-1):
    each BFS round is the same single relax shuffle as bfs_levels but
    relaxes all S seed columns at once — S times less shuffle traffic
    than S separate BFS runs. Returns the top-``topn`` nodes by
    (h desc, id asc) via block-local cuts + a tiny driver merge."""
    from . import queries as q

    nodes = q._read(sf_dir, "documents", ["doc_id"])
    n = nodes.count()
    seeds = [s for s in range(0, n_seeds * seed_mod, seed_mod) if s < n]
    S = len(seeds)
    dcols = [f"d{i}" for i in range(S)]

    def init(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        out = {"id": ids}
        for i, s in enumerate(seeds):
            out[f"d{i}"] = np.where(ids == s, 0, _BFS_INF).astype(np.int64)
        return pd.DataFrame(out)

    dists = nodes.map_batches(init, batch_format="pandas",
                              batch_size=65536)

    for _ in range(rounds):
        def relax(b: pd.DataFrame, _k=k, _n=n) -> pd.DataFrame:
            src = b["id"].to_numpy(np.int64)
            dst = out_links(src, _n, _k)
            node = np.concatenate([dst.ravel(), src])
            out = {"node": node}
            for c in dcols:
                d = b[c].to_numpy(np.int64)
                out[c] = np.concatenate(
                    [np.repeat(np.minimum(d + 1, _BFS_INF), _k), d])
            return pd.DataFrame(out)

        def rename(b: pd.DataFrame) -> pd.DataFrame:
            out = {"id": b["node"].astype(np.int64)}
            for c in dcols:
                out[c] = b[c].astype(np.int64)
            return pd.DataFrame(out)

        dists = (keyed_combine(
            dists.map_batches(relax, batch_format="pandas",
                              batch_size=65536), "node", dcols, "min")
                 .map_batches(rename, batch_format="pandas",
                              batch_size=65536)
                 .materialize())

    def score_topk(b: pd.DataFrame) -> pd.DataFrame:
        h = np.zeros(len(b), np.int64)
        for c in dcols:
            d = b[c].to_numpy(np.int64)
            ok = (d > 0) & (d < _BFS_INF)
            h[ok] += _HC_SCALE // d[ok]
        out = pd.DataFrame({"doc_id": b["id"].astype(np.int64),
                            "harmonic": h})
        return out.sort_values(["harmonic", "doc_id"],
                               ascending=[False, True]).head(topn)

    cand = dists.map_batches(score_topk, batch_format="pandas",
                             batch_size=262144).to_pandas()
    return (cand.sort_values(["harmonic", "doc_id"],
                             ascending=[False, True]).head(topn)
            .reset_index(drop=True))


def sql_harmonic_centrality(k: int = 4, rounds: int = 4,
                            n_seeds: int = 4, seed_mod: int = 97,
                            topn: int = 20) -> str:
    """Chained-CTE twin: one BFS chain per seed (seed i exists iff
    i * seed_mod < n), floor-reciprocal sum, same deterministic cut."""
    parts = [_edges_sql(k)]
    for i in range(n_seeds):
        s = i * seed_mod
        parts.append(f"""
s{i}_0 AS (SELECT id, CASE WHEN id = {s} THEN 0
                           ELSE {_BFS_INF} END AS d
           FROM nodes WHERE (SELECT n FROM nn) > {s})""")
        for t in range(rounds):
            parts.append(f"""
s{i}_{t + 1} AS (
  SELECT n.id, least(any_value(dt.d),
                     coalesce(min(ds.d + 1), {_BFS_INF})) AS d
  FROM nodes n JOIN s{i}_{t} dt ON dt.id = n.id
  LEFT JOIN edges e ON e.dst = n.id
  LEFT JOIN s{i}_{t} ds ON ds.id = e.src
  GROUP BY n.id
)""")
    terms = " + ".join(
        f"coalesce((SELECT CASE WHEN d > 0 AND d < {_BFS_INF} "
        f"THEN {_HC_SCALE} // d ELSE 0 END FROM s{i}_{rounds} x "
        f"WHERE x.id = nodes.id), 0)"
        for i in range(n_seeds))
    return ("WITH " + ",".join(parts) + f"""
SELECT id AS doc_id, ({terms})::BIGINT AS harmonic
FROM nodes
ORDER BY harmonic DESC, doc_id LIMIT {topn}""")
