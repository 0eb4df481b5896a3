"""Sharded streaming NEAR-dup index — the MinHash-LSH counterpart of
``state/dedup_index.py``: an unbounded ingest stream is filtered against
every document EVER admitted, where "duplicate" means sharing at least
one LSH band with an admitted doc (the same banding rule as the batch
``dedup.minhash_dup_pairs_ds``, so thresholds tune identically).

Topology: one actor per BAND INDEX (band i of every doc lives on shard
i), so a doc's membership probe fans out to ``num_bands`` shards but
each shard owns a disjoint slice of the band space and stays a plain
uint64 set.  Ingest is two-phase per batch — ``probe`` (read-only: which
band keys exist?) then ``register`` (survivors only) — so admitted dups
never pollute the index.  Within a batch the survivor decision is
deterministic (first occurrence of a colliding band wins, in row
order); across CONCURRENT batches a racing near-dup pair can both admit
(the probe/register gap).  ``filter_new_wave`` is the ORDER-FREE wave
mode for checkpointed ingest: probe-only pass, then one metadata-scale
band-keyed exchange electing the minimal id per band, then
registration — the admission set depends only on wave content, never
on block layout or scheduling.  Same quiesce-then-save snapshot
contract as the exact index.

Scale: per-shard state ~40 B/band; num_perm/num_bands tune the Jaccard
threshold exactly as in the batch pipeline.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from ..functions import hashing


@ray.remote(num_cpus=0)
class _BandShard:
    def __init__(self) -> None:
        self._seen: set[int] = set()

    def probe(self, keys: np.ndarray) -> np.ndarray:
        seen = self._seen
        return np.fromiter((int(k) in seen for k in keys),
                           dtype=bool, count=len(keys))

    def register(self, keys: np.ndarray) -> int:
        self._seen.update(int(k) for k in keys.tolist())
        return len(self._seen)

    def size(self) -> int:
        return len(self._seen)

    def snapshot(self) -> np.ndarray:
        return np.fromiter(self._seen, dtype=np.uint64, count=len(self._seen))

    def restore(self, keys: np.ndarray) -> int:
        self._seen.update(int(k) for k in
                          np.asarray(keys, dtype=np.uint64).tolist())
        return len(self._seen)


class NearDupIndex:
    """Handle bundling the per-band shard actors."""

    def __init__(self, num_bands: int = 16, num_perm: int = 64,
                 shingle_k: int = 3, seed: int = 1234):
        if num_perm % num_bands:
            raise ValueError("num_perm must divide into num_bands")
        self.num_bands = num_bands
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        self._a, self._b = hashing.minhash_params(num_perm, seed=seed)
        self.shards = [_BandShard.remote() for _ in range(num_bands)]

    def _band_keys(self, texts) -> np.ndarray:
        vals, offsets = hashing.batch_shingle_hashes(list(texts),
                                                     self.shingle_k)
        sigs = hashing.batch_minhash_signatures(vals, offsets,
                                                self._a, self._b)
        return hashing.batch_minhash_bands(sigs, self.num_bands)

    # ---------------------------------------------------------- ingest

    def filter_new(self, ds: rd.Dataset, text_col: str = "text"
                   ) -> rd.Dataset:
        """Rows that near-dup-match NOTHING admitted so far; survivors'
        bands are registered.  Two actor round-trips per batch
        (probe all bands, register survivors' bands)."""
        shards = self.shards
        nb = self.num_bands
        band_keys = self._band_keys

        def f(batch: pd.DataFrame) -> pd.DataFrame:
            bands = band_keys(batch[text_col].to_numpy(dtype=object))
            seen = np.zeros(bands.shape, dtype=bool)
            probes = [shards[i].probe.remote(bands[:, i])
                      for i in range(nb)]
            for i, mask in enumerate(ray.get(probes)):
                seen[:, i] = mask
            keep = ~seen.any(axis=1)
            # in-batch collisions: row order wins — a later row sharing
            # any band with an earlier KEPT row is a dup of it
            claimed = [dict() for _ in range(nb)]
            for r in np.flatnonzero(keep):
                hit = False
                for i in range(nb):
                    if int(bands[r, i]) in claimed[i]:
                        hit = True
                        break
                if hit:
                    keep[r] = False
                    continue
                for i in range(nb):
                    claimed[i][int(bands[r, i])] = r
            if keep.any():
                regs = [shards[i].register.remote(bands[keep, i])
                        for i in range(nb)]
                ray.get(regs)
            return batch[keep]

        return ds.map_batches(f, batch_format="pandas", batch_size=8192)

    def count_new(self, ds: rd.Dataset, text_col: str = "text") -> int:
        return self.filter_new(ds, text_col).count()

    def filter_new_wave(self, ds: rd.Dataset, id_col: str = "doc_id",
                        text_col: str = "text") -> rd.Dataset:
        """DETERMINISTIC (order-free) wave ingest — the checkpointed-batch
        counterpart of ``filter_new``.  ``filter_new``'s per-batch
        probe/register gap makes admissions inside ONE wave depend on
        block layout and task timing once a near-dup pair spans two
        concurrent batches (both may probe before either registers).
        Here admission depends only on the wave's CONTENT:

        1. probe-only (no registration, so no race): rows band-colliding
           with anything already ADMITTED drop;
        2. in-wave resolution on one metadata-scale ``partition_map``
           keyed on (band_pos, band_key): each band elects its minimal
           surviving id as owner, and one id-keyed ``partition_map``
           admits a row iff it owns EVERY one of its bands.
           The minimal id of any collision cluster owns all its bands,
           so every cluster admits exactly its least representative;
           non-owners share a band with a lower id (on collision CHAINS
           this is slightly more aggressive than the sequential row
           rule — a doc colliding only with a DROPPED lower doc also
           drops — which is the usual cluster-representative dedup
           semantics and, unlike the sequential rule, order-free);
        3. admitted rows' bands register; admitted rows return via a
           semi bucket_join (corpus-scale rows never visit the driver).
        """
        from ..pipelines.relational import bucket_join, partition_map

        shards = self.shards
        nb = self.num_bands
        band_keys = self._band_keys

        def probe_explode(batch: pd.DataFrame) -> pd.DataFrame:
            bands = band_keys(batch[text_col].to_numpy(dtype=object))
            seen = np.zeros(bands.shape, dtype=bool)
            probes = [shards[i].probe.remote(bands[:, i])
                      for i in range(nb)]
            for i, mask in enumerate(ray.get(probes)):
                seen[:, i] = mask
            keep = ~seen.any(axis=1)
            ids = batch[id_col].to_numpy()[keep]
            return pd.DataFrame({
                id_col: np.repeat(ids, nb),
                "pos": np.tile(np.arange(nb, dtype=np.int64), len(ids)),
                "key": bands[keep].reshape(-1)})

        exploded = ds.map_batches(probe_explode, batch_format="pandas",
                                  batch_size=8192)

        def owners(g: pd.DataFrame) -> pd.DataFrame:
            win = (g.sort_values(id_col)
                    .drop_duplicates(["pos", "key"])
                    .rename(columns={id_col: "_win"}))
            out = g.merge(win[["pos", "key", "_win"]], on=["pos", "key"])
            out["owns"] = (out[id_col] == out["_win"]).astype(np.int64)
            return out[[id_col, "pos", "key", "owns"]]

        owned = partition_map(exploded, ["pos", "key"], owners)

        def admit(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby(id_col, sort=False)["owns"].transform("min")
            win = g[s == 1]
            if len(win):
                regs = []
                for i in range(nb):
                    keys = win.loc[win["pos"] == i, "key"].to_numpy(
                        np.uint64)
                    if len(keys):
                        regs.append(shards[i].register.remote(keys))
                ray.get(regs)
            return win.loc[win["pos"] == 0, [id_col]].reset_index(drop=True)

        # materialize forces phase 2/3 to complete (registration happens
        # exactly once per wave, even if the caller consumes lazily/twice)
        admitted = partition_map(owned, id_col, admit).materialize()
        return bucket_join(ds, admitted, id_col, id_col, how="semi")

    def count_new_wave(self, ds: rd.Dataset, id_col: str = "doc_id",
                       text_col: str = "text") -> int:
        return self.filter_new_wave(ds, id_col, text_col).count()

    def size(self) -> int:
        return int(sum(ray.get([s.size.remote() for s in self.shards])))

    # ------------------------------------------------------ checkpoint

    def save(self, root: str) -> str:
        """Atomic versioned snapshot (quiesce ingest first — same
        contract as DedupIndex.save)."""
        import json

        os.makedirs(root, exist_ok=True)
        existing = [int(d.split("-")[1]) for d in os.listdir(root)
                    if d.startswith("snap-") and not d.endswith(".tmp")]
        n = max(existing, default=-1) + 1
        tmp = os.path.join(root, f"snap-{n:05d}.tmp")
        final = os.path.join(root, f"snap-{n:05d}")
        os.makedirs(tmp, exist_ok=True)
        snaps = ray.get([s.snapshot.remote() for s in self.shards])
        for i, arr in enumerate(snaps):
            np.save(os.path.join(tmp, f"band-{i:04d}.npy"), arr)
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump({"num_bands": self.num_bands,
                       "num_perm": self.num_perm,
                       "shingle_k": self.shingle_k,
                       "counts": [len(a) for a in snaps]}, f)
        os.rename(tmp, final)
        return final

    def restore(self, snap_dir: str) -> None:
        import json

        with open(os.path.join(snap_dir, "manifest.json")) as f:
            man = json.load(f)
        if (man["num_bands"], man["num_perm"], man["shingle_k"]) != (
                self.num_bands, self.num_perm, self.shingle_k):
            raise ValueError(
                f"snapshot was built with bands/perm/k "
                f"{(man['num_bands'], man['num_perm'], man['shingle_k'])}, "
                f"index has {(self.num_bands, self.num_perm, self.shingle_k)}")
        calls = []
        for i in range(self.num_bands):
            arr = np.load(os.path.join(snap_dir, f"band-{i:04d}.npy"))
            calls.append(self.shards[i].restore.remote(arr))
        got = ray.get(calls)
        if got != man["counts"]:
            raise RuntimeError("restore count mismatch vs snapshot manifest")
