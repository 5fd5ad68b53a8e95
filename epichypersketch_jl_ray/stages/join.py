"""Distributed joins Ray Data lacks natively, as explicit bucketed exchanges
(the portable pattern: bucket both sides on a key hash, co-locate buckets
with one groupby, join inside each bucket — SCALE.md "Broadcasts instead of
shuffle joins" / ray_guide joins section).

- bucketed_hash_join: large-large equi-join. Both sides get
  ``bucket = splitmix64(key) % B`` and a side tag, are unioned (one shuffle
  co-locates both sides' rows), and each bucket runs a vectorized pandas
  merge. Skew: the bucket key is a hash, so DISTINCT hot keys spread; a
  single pathological key still maps to ONE bucket — pass ``hot_keys`` to
  salt those keys' left rows across ``salt`` sub-buckets and replicate the
  right side's matching rows into each (classic salted-join: left work
  spreads ``salt``-ways at the cost of ``salt``× replication of the tiny
  hot right-side slice).
- bucketed_asof_join: as-of (backward, inclusive) join per `by` key —
  bucket on the `by` key, sort within bucket, pandas merge_asof.

Bucket counts: every helper takes ``bucket_count=None`` → derived via
``auto_bucket_count`` from ``size_hint_rows`` (callers pass a parquet-footer
row count) so a bucket targets ~64k rows instead of corpus/64 — the fixed-64
default silently made each bucket corpus/64 and would not survive 100×.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from epichypersketch_jl_ray.functions.hashing import hash_int64
from epichypersketch_jl_ray.stages.udaf import cluster_cpus

_TARGET_ROWS_PER_BUCKET = 1 << 16


def auto_bucket_count(
    size_hint_rows: int | None,
    *,
    target_rows_per_bucket: int = _TARGET_ROWS_PER_BUCKET,
    lo: int | None = None,
    hi: int = 4096,
) -> int:
    """Bucket count that grows with input size: ~target rows per bucket,
    clamped to [lo, hi]. None hint (no cheap row count available) falls back
    to ``lo`` — callers with parquet inputs should pass a footer count
    (sources.tables.table_rows).

    The default floor is the session's CPU count (min 16): buckets are the
    parallelism of every downstream map_groups, and a row-derived count
    below the core count would idle workers on mid-size inputs (a 330k-row
    candidate set computing 16 buckets on a 32-core node ran the verify
    stage at half occupancy). Row-targeted sizing still dominates for big
    inputs; the explicit ``lo`` override remains for tests."""
    if lo is None:
        lo = max(16, cluster_cpus()) if ray.is_initialized() else 16
    if size_hint_rows is None:
        return lo
    return max(lo, min(hi, -(-int(size_hint_rows) // target_rows_per_bucket)))


def _tag_and_bucket(
    ds,
    key_col: str,
    side: int,
    bucket_count: int,
    seed: int,
    hot_keys: np.ndarray | None = None,
    salt: int = 8,
):
    """Append (_bucket, _side). With ``hot_keys``, hot rows move to a
    dedicated bucket range [bucket_count, bucket_count + n_hot*salt): the
    build side (side 0) spreads each hot key's rows across its ``salt``
    sub-buckets, the probe side (side 1) replicates its (few) hot rows into
    every sub-bucket — so one pathological key occupies ``salt`` tasks
    instead of one."""
    hot_sorted = np.sort(np.asarray(hot_keys, dtype=np.int64)) if hot_keys is not None else None

    def tag(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (hash_int64(k, seed=seed) % np.uint64(bucket_count)).astype(np.int64)
        if hot_sorted is not None and len(hot_sorted):
            pos = np.searchsorted(hot_sorted, k)
            pos_c = np.minimum(pos, len(hot_sorted) - 1)
            is_hot = hot_sorted[pos_c] == k
            if side == 0:
                # spread: sub-bucket from the row's position (any spreader works;
                # correctness only needs same-key co-location with the replicas)
                sub = (
                    hash_int64(np.arange(len(k), dtype=np.int64), seed=seed + 1)
                    % np.uint64(salt)
                ).astype(np.int64)
                bucket = np.where(is_hot, bucket_count + pos_c * salt + sub, bucket)
            else:
                # replicate each hot row into all `salt` sub-buckets
                cold = batch.filter(pa.array(~is_hot)).append_column(
                    "_bucket", pa.array(bucket[~is_hot], pa.int64())
                )
                hot_tbl = batch.filter(pa.array(is_hot))
                reps = pa.concat_tables([hot_tbl] * salt) if len(hot_tbl) else hot_tbl
                # concat layout = the m hot rows tiled `salt` times
                hot_buckets = (
                    bucket_count
                    + np.tile(pos_c[is_hot] * salt, salt)
                    + np.repeat(np.arange(salt, dtype=np.int64), len(hot_tbl))
                )
                reps = reps.append_column("_bucket", pa.array(hot_buckets, pa.int64()))
                out = pa.concat_tables([cold, reps]) if len(reps) else cold
                return out.append_column(
                    "_side", pa.array(np.full(len(out), side, dtype=np.int8), pa.int8())
                )
        return batch.append_column("_bucket", pa.array(bucket, pa.int64())).append_column(
            "_side", pa.array(np.full(len(k), side, dtype=np.int8), pa.int8())
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def _union_padded(lt: ray.data.Dataset, rt: ray.data.Dataset) -> ray.data.Dataset:
    """Union two bucket-tagged datasets with different columns by padding each
    side with the other's columns as nulls (Ray union needs one schema)."""
    ls, rs = lt.schema(), rt.schema()
    l_fields = dict(zip(ls.names, ls.types))
    r_fields = dict(zip(rs.names, rs.types))
    all_names = list(l_fields) + [n for n in r_fields if n not in l_fields]

    def pad(missing: dict, order: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            for name, typ in missing.items():
                batch = batch.append_column(name, pa.nulls(n, typ))
            return batch.select(order)

        return fn

    l_missing = {n: r_fields[n] for n in r_fields if n not in l_fields}
    r_missing = {n: l_fields[n] for n in l_fields if n not in r_fields}
    lt = lt.map_batches(pad(l_missing, all_names), batch_format="pyarrow")
    rt = rt.map_batches(pad(r_missing, all_names), batch_format="pyarrow")
    return lt.union(rt)


def bucketed_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str,
    right_on: str,
    bucket_count: int | None = None,
    size_hint_rows: int | None = None,
    seed: int = 17,
    hot_keys: np.ndarray | None = None,
    salt: int = 8,
) -> ray.data.Dataset:
    """Inner equi-join via one co-locating shuffle + per-bucket pandas merge.

    Column-name collisions other than the keys are the caller's problem
    (prune to needed columns first — which also minimizes shuffle bytes).
    ``hot_keys``: known pathological keys (profiling / heavy-hitter sketch)
    whose LEFT rows are salted across ``salt`` sub-buckets with the matching
    right rows replicated into each.
    """
    if bucket_count is None:
        bucket_count = auto_bucket_count(size_hint_rows)
    # each side's original columns, captured up front: selecting by name
    # undoes the union null-padding without dropna(axis=1), which would also
    # drop a legitimate column that happens to be all-null within one bucket
    l_cols = list(left.schema().names)
    r_cols = list(right.schema().names)
    lt = _tag_and_bucket(left, left_on, 0, bucket_count, seed, hot_keys, salt)
    rt = _tag_and_bucket(right, right_on, 1, bucket_count, seed, hot_keys, salt)
    both = _union_padded(lt, rt)

    def join_bucket(grp: pa.Table) -> pa.Table:
        # Arrow-native bucket body: pa.Table.join (Acero hash join) — no
        # Arrow<->pandas conversion per bucket. Acero omits the right key
        # column; it is re-appended (inner equi-join: values equal the left
        # key) to keep pandas-merge-compatible output schema.
        import pyarrow.compute as pc

        l = grp.filter(pc.equal(grp["_side"], 0)).select(l_cols)
        r = grp.filter(pc.equal(grp["_side"], 1)).select(r_cols)
        out = l.join(r, keys=[left_on], right_keys=[right_on], join_type="inner")
        if left_on != right_on:
            rtype = r.schema.field(right_on).type
            out = out.append_column(right_on, out[left_on].cast(rtype))
            return out.select(l_cols + r_cols)
        return out.select(l_cols + [c for c in r_cols if c != right_on])

    return both.groupby("_bucket").map_groups(join_bucket, batch_format="pyarrow")


def bucketed_range_count_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    on: str,
    window: int,
    out_count: str = "n_matches",
    bucket_count: int | None = None,
    size_hint_rows: int | None = None,
    seed: int = 29,
) -> ray.data.Dataset:
    """Range join, count form: for each left row, the number of right rows
    with the same ``by`` key and ``on`` in (left.on, left.on + window].

    Same one-shuffle bucket co-location as the other joins; inside each
    bucket both sides sort once by (key, on) and every count is two
    vectorized searchsorteds over a composite int64 key (no per-row loop,
    no pair materialization — the count form keeps range joins bounded even
    when a window covers many matches; an emit-pairs form would explode by
    the match factor). Duplicate left (key, on) rows collapse to one output
    row counted ONCE — i.e. SELECT DISTINCT left-side semantics, which the
    SQL oracle mirrors with a DISTINCT on its left CTE.
    """
    if bucket_count is None:
        bucket_count = auto_bucket_count(size_hint_rows)
    l_cols = [by, on]
    r_cols = [by, on]
    lt = _tag_and_bucket(left.select_columns(l_cols), by, 0, bucket_count, seed)
    rt = _tag_and_bucket(right.select_columns(r_cols), by, 1, bucket_count, seed)
    both = _union_padded(lt, rt)

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["_side"] == 0, l_cols]
        r = df.loc[df["_side"] == 1, r_cols]
        if len(l) == 0:
            return pd.DataFrame()
        lk = l[by].to_numpy(np.int64)
        lo = l[on].to_numpy(np.int64)
        # one output row per distinct left (key, on)
        uniq = np.unique(np.stack([lk, lo], axis=1), axis=0)
        lk, lo = uniq[:, 0], uniq[:, 1]
        rk = r[by].to_numpy(np.int64)
        ro = r[on].to_numpy(np.int64)
        # composite int64 key: per-key code * (span + window + 2) + rebased on
        all_on = np.concatenate([lo, ro]) if len(ro) else lo
        base = all_on.min()
        span = int(all_on.max() - base) + int(window) + 2
        codes_all, inv = np.unique(np.concatenate([lk, rk]), return_inverse=True)
        if span * len(codes_all) >= np.iinfo(np.int64).max:
            raise ValueError("range-join composite key would overflow int64")
        lcode, rcode = inv[: len(lk)], inv[len(lk) :]
        comp_r = np.sort(rcode * span + (ro - base)) if len(ro) else np.empty(0, np.int64)
        lo_comp = lcode * span + (lo - base)
        n = np.searchsorted(comp_r, lo_comp + window, side="right") - np.searchsorted(
            comp_r, lo_comp, side="right"
        )
        return pd.DataFrame({by: lk, on: lo, out_count: n.astype(np.int64)})

    return both.groupby("_bucket").map_groups(count_bucket, batch_format="pandas")


def bucketed_asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    on: str,
    bucket_count: int | None = None,
    size_hint_rows: int | None = None,
    seed: int = 23,
) -> ray.data.Dataset:
    """Backward-inclusive as-of join (for each left row, the latest right row
    with the same ``by`` key and right.on <= left.on). Inner semantics: left
    rows with no match are dropped (no nulls in the output). Right columns
    other than ``by`` get the suffix ``_r``."""
    if bucket_count is None:
        bucket_count = auto_bucket_count(size_hint_rows)
    l_cols = list(left.schema().names)
    r_cols = list(right.schema().names)
    lt = _tag_and_bucket(left, by, 0, bucket_count, seed)
    rt = _tag_and_bucket(right, by, 1, bucket_count, seed)
    both = _union_padded(lt, rt)

    def asof_bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df.loc[df["_side"] == 0, l_cols]
        r = df.loc[df["_side"] == 1, r_cols]
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame()
        l = l.sort_values(on, kind="stable")
        r = r.sort_values(on, kind="stable").rename(
            columns={c: c + "_r" for c in r.columns if c != by}
        )
        out = pd.merge_asof(
            l,
            r,
            left_on=on,
            right_on=on + "_r",
            by=by,
            direction="backward",
            allow_exact_matches=True,
        )
        return out.dropna(subset=[on + "_r"])

    return both.groupby("_bucket").map_groups(asof_bucket, batch_format="pandas")
