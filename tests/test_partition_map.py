"""relational.partition_map: the one keyed exchange of the package.

Each partition's ``fn`` aggregates per key; if any key were split over
two partitions, the collected output would hold that key twice and
differ from the pandas reference.
"""

import os
import re
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "dup_ocropy_ray")

# `.map_groups(` calls under dup_ocropy_ray/: two in relational.py (one
# of them inside partition_map) and six real-key groupbys. Lower it when
# a site moves onto the primitive; never raise it.
MAP_GROUPS_CEILING = 8

# hand-rolled partition-tag columns; only relational.py names one
TAG_LITERALS = ("_part", "_p", "_p2", "_dp", "_dpart")


def _frame(n: int = 240) -> pd.DataFrame:
    rng = np.random.default_rng(7)
    return pd.DataFrame({
        "k": rng.integers(0, 40, n).astype("int64"),
        "s": rng.choice(["a", "b", "c", "dd", "e f"], n).astype(object),
        "v": rng.integers(0, 1000, n).astype("int64"),
    })


def _with_uint64_key(df: pd.DataFrame) -> pd.DataFrame:
    """Adds ``u``: full-range uint64 keys like the window hashes the
    dedup exchanges key on. All are >= 2^53, float64 cannot tell the
    first two apart, and the third is 2^64 - 1."""
    rng = np.random.default_rng(11)
    big = np.concatenate([
        np.array([2**63 + 1, 2**63 + 2, 2**64 - 1], dtype=np.uint64),
        rng.integers(2**53, 2**64 - 1, 9, dtype=np.uint64)])
    return df.assign(u=big[rng.integers(0, len(big), len(df))])


def _sums(keys):
    def per_key_sums(g: pd.DataFrame) -> pd.DataFrame:
        assert "_part" not in g.columns
        out = (g.groupby(keys, dropna=False, as_index=False)
               .agg(v=("v", "sum"), n=("v", "size")))
        out["call"] = uuid.uuid4().hex
        return out
    return per_key_sums


def _reference(df: pd.DataFrame, keys) -> pd.DataFrame:
    return (df.groupby(keys, dropna=False, as_index=False)
            .agg(v=("v", "sum"), n=("v", "size")))


def _canon(df: pd.DataFrame, keys) -> pd.DataFrame:
    df = df[list(keys) + ["v", "n"]].astype({"v": "int64", "n": "int64"})
    return (df.sort_values(list(keys), na_position="first")
            .reset_index(drop=True))


def _arrow_blocks(df: pd.DataFrame, nblocks: int):
    import ray.data as rd

    t = pa.Table.from_pandas(df, preserve_index=False)
    step = -(-len(df) // nblocks)
    return rd.from_arrow([t.slice(i, step) for i in range(0, len(df), step)])


@pytest.mark.parametrize("num_partitions", [1, 2, 7, None])
@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"], ["u"]])
def test_matches_pandas_reference(ray_session, keys, num_partitions):
    from dup_ocropy_ray.pipelines.relational import partition_map
    from dup_ocropy_ray.tuning import suggested_partitions

    df = _with_uint64_key(_frame())
    got = partition_map(_arrow_blocks(df, 5), keys, _sums(keys),
                        num_partitions=num_partitions).to_pandas()
    pd.testing.assert_frame_equal(_canon(got, keys),
                                  _canon(_reference(df, keys), keys))
    assert got["call"].nunique() <= (num_partitions
                                     or suggested_partitions())


def test_null_keys_colocate_across_blocks(ray_session):
    """Nulls sit in some blocks only: an int key is float64 in the
    pandas form of exactly those blocks, and must still hash as in the
    others."""
    from dup_ocropy_ray.pipelines.relational import partition_map

    df = _frame()
    t = pa.Table.from_pandas(df, preserve_index=False)
    k = pa.array([None if i % 50 == 3 and i < 100 else x
                  for i, x in enumerate(df["k"])], pa.int64())
    s = pa.array([None if i % 40 == 5 else x
                  for i, x in enumerate(df["s"])], pa.string())
    t = t.set_column(0, "k", k).set_column(1, "s", s)
    import ray.data as rd

    ds = rd.from_arrow([t.slice(0, 100), t.slice(100, 70), t.slice(170)])
    ref_df = t.to_pandas()
    for keys in (["k"], ["s"], ["k", "s"]):
        got = partition_map(ds, keys, _sums(keys),
                            num_partitions=7).to_pandas()
        pd.testing.assert_frame_equal(
            _canon(got, keys), _canon(_reference(ref_df, keys), keys),
            check_dtype=False)


@pytest.mark.parametrize("fmt", ["pandas", "arrow"])
def test_two_sided_union_colocates_each_key(ray_session, fmt):
    """Two sides with the same key column meet in one partition per
    key."""
    import ray.data as rd

    from dup_ocropy_ray.pipelines.relational import partition_map

    df = _frame()
    if fmt == "pandas":
        left = rd.from_pandas([df.iloc[:120].assign(side="l"),
                               df.iloc[120:].assign(side="l")])
        right = rd.from_pandas([df.assign(side="r")])
    else:
        left = _arrow_blocks(df.assign(side="l"), 2)
        right = _arrow_blocks(df.assign(side="r"), 3)

    def sides(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(
            n_l=("side", lambda s: int((s == "l").sum())),
            n_r=("side", lambda s: int((s == "r").sum())))

    got = (partition_map(left.union(right), "k", sides, num_partitions=7)
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = df.groupby("k").size()
    assert got["k"].is_unique
    assert list(got["k"]) == list(want.index)
    assert (got["n_l"].to_numpy() == want.to_numpy()).all()
    assert (got["n_r"].to_numpy() == want.to_numpy()).all()


@pytest.mark.parametrize("fmt", ["pandas", "arrow"])
def test_blocks_keep_their_format(ray_session, fmt):
    """``fn`` sees the block format of the input (batch_format=None)
    and never the ``_part`` column; the operators keep fn's name."""
    import ray.data as rd

    from dup_ocropy_ray.pipelines.relational import partition_map

    df = _frame()
    ds = (rd.from_pandas([df.iloc[:100], df.iloc[100:]]) if fmt == "pandas"
          else _arrow_blocks(df, 2))

    def block_kind(g) -> pd.DataFrame:
        cols = (g.column_names if isinstance(g, pa.Table)
                else list(g.columns))
        return pd.DataFrame({"kind": [type(g).__name__],
                             "cols": [",".join(cols)]})

    out = partition_map(ds, "k", block_kind, num_partitions=3,
                        batch_format=None)
    got = out.to_pandas()
    want = "DataFrame" if fmt == "pandas" else "Table"
    assert set(got["kind"]) == {want}
    assert set(got["cols"]) == {"k,s,v"}
    stats = out.stats()
    assert "MapBatches(tag_block_kind)" in stats
    assert "MapBatches(block_kind)" in stats


def test_map_groups_ratchet():
    """No new hand-rolled tag-and-group shuffle: the count of
    `.map_groups(` calls in the package may only fall, the deleted
    tag helpers stay deleted, and no module but relational.py names a
    partition-tag column."""
    n, banned = 0, []
    tag_re = re.compile(r"""["'](?:%s)["']""" % "|".join(TAG_LITERALS))
    for root, _, files in os.walk(PKG):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path, encoding="utf-8") as fh:
                src = fh.read()
            n += src.count(".map_groups(")
            banned += [f"{path}: {m}" for m in re.findall(
                r"\b(?:part_tag|addpart|REASSEMBLY_PARTITIONS"
                r"|_DEDUP_PARTITIONS(?:_MAX)?|_node_combine)\b", src)]
            if f != "relational.py":
                banned += [f"{path}: {m}" for m in tag_re.findall(src)]
    assert n <= MAP_GROUPS_CEILING, (
        f"{n} .map_groups( calls under dup_ocropy_ray/ (ceiling "
        f"{MAP_GROUPS_CEILING}): use relational.partition_map")
    assert not banned, banned
