"""Relational operator demonstrations: grouped aggregation, top-k,
broadcast join, sessionization — the generic Dataset operations the sketch
pipelines compose with (SURVEY.md §2.4 A3 / §2.6 O2; reference analogues are
the documented post-processing workflows, /root/reference/README.md:156-191).

Monetary aggregates are summed as integer cents (per-row round, then int64
sum) so distributed partial-sum order cannot perturb float results — the
driver's value-hash compare requires bit-stable answers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data.aggregate import Count, Min, Sum

from epichypersketch_jl_ray.sources.tables import read_table


def _cents(x: np.ndarray) -> np.ndarray:
    # floor(x*100 + 0.5): identical in numpy and DuckDB for positive values
    # (numpy round() is half-to-even, DuckDB round() half-away-from-zero —
    # they disagree on exact .5 cases, so neither is used)
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-flavoured grouped aggregate over lineitem."""
    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "base_cents": pa.array(
                    _cents(batch["l_extendedprice"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("base_cents", alias_name="sum_base_cents"),
            Count(alias_name="n"),
        )
    )


def pricing_summary_sql() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(l_quantity) AS DOUBLE) AS sum_qty,
       CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       COUNT(*) AS n
FROM lineitem GROUP BY 1, 2
"""


def top_suppliers(sf_dir: str, *, k: int = 10) -> ray.data.Dataset:
    """Top-k suppliers by discounted revenue (groupby → sort → limit,
    reference top-k workflow /root/reference/README.md:190-191)."""
    ds = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_suppkey": batch["l_suppkey"],
                "revenue_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )
    return agg.sort(["revenue_cents", "l_suppkey"], descending=[True, False]).limit(k)


def top_suppliers_sql(k: int = 10) -> str:
    return f"""
SELECT l_suppkey, CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem GROUP BY 1 ORDER BY revenue_cents DESC, l_suppkey LIMIT {k}
"""


def revenue_by_nation(
    sf_dir: str, *, num_partitions: int = 8, broadcast_threshold_rows: int = 1_000_000
) -> ray.data.Dataset:
    """orders ⋈ customer ⋈ nation with a SIZE-AWARE join strategy.

    nation (25 rows) is always broadcast via ray.put. customer grows
    linearly with the corpus, so it is broadcast ONLY below
    ``broadcast_threshold_rows`` (parquet-footer count — one lookup array on
    each worker); above it the native hash-partitioned join runs — the shape
    that survives 100 TB, where a customer broadcast would be a multi-GB
    driver materialization. Both paths produce identical results (pinned by
    a threshold=0 oracle test)."""
    from epichypersketch_jl_ray.sources.tables import table_rows

    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nat_sorted = nation.sort_values("n_nationkey")
    nat_keys = nat_sorted["n_nationkey"].to_numpy()
    nat_names = nat_sorted["n_name"].to_numpy()

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "revenue_cents": pa.array(
                    _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    def _nation_of(nk: np.ndarray) -> np.ndarray:
        if len(nat_keys) == 0 and len(nk):
            raise ValueError("customer references missing nation")
        pos = np.searchsorted(nat_keys, nk)
        pos = np.minimum(pos, max(len(nat_keys) - 1, 0))
        if not (nat_keys[pos] == nk).all():
            raise ValueError("customer references missing nation")
        return nat_names[pos]

    if table_rows(sf_dir, "customer") <= broadcast_threshold_rows:
        cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).to_pandas()
        cust = cust.sort_values("c_custkey")
        lookup_ref = ray.put(
            (cust["c_custkey"].to_numpy(), _nation_of(cust["c_nationkey"].to_numpy()))
        )

        def bjoin(batch: pa.Table) -> pa.Table:
            keys, names = ray.get(lookup_ref)
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, ck)
            # max(...,0) guards the empty-dim case: len(keys)-1 == -1 would
            # index keys[-1] on a zero-length array
            pos = np.minimum(pos, max(len(keys) - 1, 0))
            # inner-join semantics, matching the native-join path AND the
            # SQL oracle: orders referencing a missing customer DROP
            # (raising here would make the two paths diverge on dirty data)
            hit = (keys[pos] == ck) if len(keys) else np.zeros(len(ck), bool)
            return pa.table(
                {
                    "n_name": pa.array(names[pos][hit], pa.string()),
                    "revenue_cents": pa.array(
                        _cents(
                            batch["o_totalprice"].to_numpy(zero_copy_only=False)[hit]
                        ),
                        pa.int64(),
                    ),
                }
            )

        resolved = orders.map_batches(bjoin, batch_format="pyarrow")
    else:
        cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        joined = orders.map_batches(prep, batch_format="pyarrow").join(
            cust_ds,
            join_type="inner",
            num_partitions=num_partitions,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )
        nat_ref = ray.put((nat_keys, nat_names))

        def resolve_nation(batch: pa.Table) -> pa.Table:
            keys, names = ray.get(nat_ref)
            nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
            if len(keys) == 0 and len(nk):
                raise ValueError("customer references missing nation")
            pos = np.searchsorted(keys, nk)
            pos = np.minimum(pos, max(len(keys) - 1, 0))
            if not (keys[pos] == nk).all():
                raise ValueError("customer references missing nation")
            return pa.table(
                {
                    "n_name": pa.array(names[pos], pa.string()),
                    "revenue_cents": batch["revenue_cents"],
                }
            )

        resolved = joined.map_batches(resolve_nation, batch_format="pyarrow")

    return (
        resolved.groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"), Count(alias_name="n_orders"))
    )


def revenue_by_nation_sql() -> str:
    return """
SELECT n_name, CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents, COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey JOIN nation ON c_nationkey = n_nationkey
GROUP BY 1
"""


def sessionize(sf_dir: str, *, gap_minutes: int = 30) -> ray.data.Dataset:
    """Per-user session counting (stateful streaming analogue, SURVEY.md
    §2.10 — the reference has no windowing; this is the training-data-pipeline
    extension). One hash exchange on the user + vectorized run-length session
    breaks per bucket; ``udaf.cpu_units`` of the parquet-footer row count
    sizes the buckets, so a bucket stays ~64k rows instead of corpus/64."""
    from epichypersketch_jl_ray.sources.tables import table_rows
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def per_bucket(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u, ts = u[order], ts[order]
        same_user = np.zeros(len(u), bool)  # a 0-row bucket keeps 0 rows
        same_user[1:] = u[1:] == u[:-1]
        brk = same_user & (np.diff(ts, prepend=ts[:1]) > gap_us)
        boundaries = np.flatnonzero(~same_user)
        counts = np.diff(np.append(boundaries, len(u)))
        users = u[boundaries]
        sessions = np.add.reduceat(brk.astype(np.int64), boundaries) + 1
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
                "n_sessions": pa.array(sessions, pa.int64()),
            }
        )

    buckets = cpu_units(table_rows(sf_dir, "events"))
    return map_buckets(per_bucket, hash_partition(block_refs(ds), ["user_id"], buckets))


def _anti_join_union_groupby(
    parts_ds: ray.data.Dataset, keys_ds: ray.data.Dataset
) -> ray.data.Dataset:
    """Exact anti-join in 2 stages: union the part rows (discounted=0) with
    the discounted-key stream (discounted=1), one groupby(partkey) Max —
    parts whose group never saw a key survive. The Max combiner
    pre-aggregates per block, so the shuffle carries ~distinct keys, not the
    raw key stream."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Max

    def tag_parts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["p_partkey"].cast(pa.int64()),
                "p_brand": batch["p_brand"],
                "discounted": pa.array(np.zeros(len(batch), np.int64), pa.int64()),
            }
        )

    def tag_keys(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["l_partkey"].cast(pa.int64()),
                "p_brand": pa.nulls(len(batch), pa.string()),
                "discounted": pa.array(np.ones(len(batch), np.int64), pa.int64()),
            }
        )

    def keep_clean(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["discounted"], 0)).select(["p_partkey", "p_brand"])

    return (
        parts_ds.map_batches(tag_parts, batch_format="pyarrow")
        .union(keys_ds.map_batches(tag_keys, batch_format="pyarrow"))
        .groupby("p_partkey")
        .aggregate(
            Max("discounted", alias_name="discounted"), Max("p_brand", alias_name="p_brand")
        )
        .map_batches(keep_clean, batch_format="pyarrow")
    )


def parts_never_discounted(
    sf_dir: str,
    *,
    min_discount: float = 0.09,
    broadcast_threshold_rows: int = 1_000_000,
    dense_keys_per_part: float = 4.0,
    sparse_hit_rate: float = 0.5,
) -> ray.data.Dataset:
    """Anti-join: parts that never appear in a heavily-discounted lineitem.
    Selectivity-aware plan, chosen from measured counts, not hope:

    - BROADCAST-SET (part is dim-scale, ≤ ``broadcast_threshold_rows``): the
      distinct discounted partkeys are a subset of the part table's keys, so
      the EXACT key set is broadcast-scale no matter how many lineitems
      exist. One UDAF pass builds it (per-block unique → tree merge), one
      shuffle-free map filters parts against it. No Aggregate exchange at
      all — the round-3 always-Bloom plan spent ~6 stage overheads (5.0 s at
      sf0.1) on what this does in 2.
    - DENSE fallback (giant part table, keys ≥ ``dense_keys_per_part`` ×
      parts): plain 2-stage union+groupby anti-join — most parts are
      discounted, so a Bloom miss-shortcut would buy a near-empty split.
    - SPARSE fallback: broadcast Bloom over the discounted keys; misses pass
      with no shuffle; only hits are verified. If hits are themselves sparse
      (< ``sparse_hit_rate`` × parts), a second Bloom over the hit keys
      prunes the corpus-scale key stream to hit scale before the verify
      groupby; otherwise the prune would pass ~everything and is skipped.

    Output is exact on every path (threshold tests pin them all equal).
    """
    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.sources.tables import table_rows
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset
    from epichypersketch_jl_ray.state.bloom import BloomFilter
    from epichypersketch_jl_ray.state.keyset import Int64Set

    import pyarrow.dataset as pads

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_discount"],
        filter=pads.field("l_discount") >= min_discount,  # row-group pushdown
    )

    def discounted(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch["l_discount"], min_discount)).select(
            ["l_partkey"]
        )

    keys_stream = li.map_batches(discounted, batch_format="pyarrow")
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    n_part = max(table_rows(sf_dir, "part"), 1)

    if n_part <= broadcast_threshold_rows:
        # cap = 2x the part count + slack: distinct FK values are bounded by
        # the dim cardinality; the slack tolerates dangling keys, the raise
        # surfaces a genuinely unbounded domain instead of silently growing
        def upd(s: Int64Set, batch: pa.Table) -> None:
            s.update(batch["l_partkey"].to_numpy(zero_copy_only=False))

        keyset = sketch_dataset(
            keys_stream, lambda: Int64Set(cap=2 * n_part + 1024), upd, Int64Set
        )
        keys_ref = ray.put(keyset.keys)

        def keep_misses(batch: pa.Table) -> pa.Table:
            keys = ray.get(keys_ref)
            pk = batch["p_partkey"].to_numpy(zero_copy_only=False)
            if len(keys) == 0:
                return batch
            pos = np.minimum(np.searchsorted(keys, pk), len(keys) - 1)
            return batch.filter(pa.array(keys[pos] != pk))

        return part.map_batches(keep_misses, batch_format="pyarrow")

    # materialized: consumed 2-3 times (count + Bloom build + verify) — one
    # lineitem scan instead of several, blocks live in the object store
    # (spill, not driver memory)
    keys_ds = keys_stream.materialize()
    n_keys = keys_ds.count()

    if n_keys >= dense_keys_per_part * n_part:
        return _anti_join_union_groupby(part, keys_ds)

    def update(b: BloomFilter, batch: pa.Table) -> None:
        b.add_hashed(hash_int64(batch["l_partkey"].to_numpy(zero_copy_only=False), seed=77))

    # hoisted: the factory runs once per block — footer scans belong outside
    cap = max(1 << 16, n_part)
    bloom = sketch_dataset(
        keys_ds,
        lambda: BloomFilter(capacity=cap, p=1e-6, seed=77),
        update,
        BloomFilter,
    )
    bloom_ref = ray.put(bloom)

    def split(want_hits: bool):
        def fn(batch: pa.Table) -> pa.Table:
            bf: BloomFilter = ray.get(bloom_ref)
            pk = batch["p_partkey"].to_numpy(zero_copy_only=False)
            hits = bf.contains_hashed(hash_int64(pk, seed=77))
            return batch.filter(pa.array(hits if want_hits else ~hits))

        return fn

    # Bloom MISS = definite non-member: those parts pass the anti-join with
    # no shuffle at all
    misses = part.map_batches(split(False), batch_format="pyarrow")

    # Bloom HITS (true members + false positives) are verified with a
    # DISTRIBUTED semi-join — no driver-side key array anywhere (the round-2
    # version collected every distinct discounted partkey onto the driver).
    hits = part.map_batches(split(True), batch_format="pyarrow").materialize()
    n_hits = hits.count()
    if n_hits == 0:
        return misses
    if n_hits >= sparse_hit_rate * n_part:
        # hits cover most parts: a hit-Bloom prune of the key stream would
        # pass ~everything — verify directly
        return misses.union(_anti_join_union_groupby(hits, keys_ds))

    # hits are rare: a second Bloom over the hit partkeys prunes the
    # (corpus-scale) discounted-key stream down to hit scale first
    def update_hits(b: BloomFilter, batch: pa.Table) -> None:
        b.add_hashed(hash_int64(batch["p_partkey"].to_numpy(zero_copy_only=False), seed=78))

    hit_bloom = sketch_dataset(
        hits,
        lambda: BloomFilter(capacity=max(1 << 14, 2 * n_hits), p=1e-4, seed=78),
        update_hits,
        BloomFilter,
    )
    hit_bloom_ref = ray.put(hit_bloom)

    def prune_keys(batch: pa.Table) -> pa.Table:
        bf: BloomFilter = ray.get(hit_bloom_ref)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bf.contains_hashed(hash_int64(pk, seed=78))))

    pruned = keys_ds.map_batches(prune_keys, batch_format="pyarrow")
    return misses.union(_anti_join_union_groupby(hits, pruned))


def parts_never_discounted_sql(min_discount: float = 0.09) -> str:
    return f"""
SELECT p_partkey, p_brand FROM part
WHERE p_partkey NOT IN (SELECT l_partkey FROM lineitem WHERE l_discount >= {min_discount})
"""


def part_revenue_by_brand(sf_dir: str, *, num_partitions: int = 8) -> ray.data.Dataset:
    """Large-large equi-join: lineitem ⋈ part on partkey via Ray Data's
    native hash-partitioned ``Dataset.join`` (measured ~4× faster than the
    bucketed join in stages/join.py when that join was a Ray Data groupby;
    the bucketed joins, now on the engine's hash exchange, remain the
    pattern for joins the native operator can't express, e.g. as-of)."""
    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "revenue_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
            }
        )

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    joined = li.map_batches(prep, batch_format="pyarrow").join(
        part,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_partkey",),
        right_on=("p_partkey",),
    )
    return joined.groupby("p_brand").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"), Count(alias_name="n_items")
    )


def part_revenue_by_brand_sql() -> str:
    return """
SELECT p_brand,
       CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey GROUP BY 1
"""


def clicks_last_purchase(sf_dir: str) -> ray.data.Dataset:
    """As-of join demo: for every click event, the same user's most recent
    purchase at or before the click (bucketed merge_asof, stages/join.py).
    Inner semantics (clicks with no prior purchase are dropped)."""
    from epichypersketch_jl_ray.stages.join import bucketed_asof_join

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type", "value"])

    def split(kind: str, with_value: bool):
        def fn(batch: pa.Table) -> pa.Table:
            mask = pc.equal(batch["event_type"], kind)
            sub = batch.filter(mask)
            cols = {
                "user_id": sub["user_id"],
                "ts": pa.array(
                    sub["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False), pa.int64()
                ),
            }
            if with_value:
                cols["purchase_cents"] = pa.array(
                    _cents(sub["value"].to_numpy(zero_copy_only=False)), pa.int64()
                )
            return pa.table(cols)

        return fn

    import pyarrow.compute as pc

    from epichypersketch_jl_ray.sources.tables import table_rows

    clicks = ev.map_batches(split("click", False), batch_format="pyarrow")
    purchases = ev.map_batches(split("purchase", True), batch_format="pyarrow")
    joined = bucketed_asof_join(
        clicks, purchases, by="user_id", on="ts",
        size_hint_rows=table_rows(sf_dir, "events"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "click_ts": batch["ts"].cast(pa.int64()),
                "purchase_ts": batch["ts_r"].cast(pa.int64()),
                "purchase_cents": batch["purchase_cents_r"].cast(pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def clicks_last_purchase_sql() -> str:
    return """
WITH c AS (SELECT user_id, epoch_us(ts) AS click_ts FROM events WHERE event_type = 'click'),
p AS (SELECT user_id, epoch_us(ts) AS purchase_ts,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS purchase_cents
      FROM events WHERE event_type = 'purchase')
SELECT c.user_id, c.click_ts, p.purchase_ts, p.purchase_cents
FROM c ASOF JOIN p ON c.user_id = p.user_id AND c.click_ts >= p.purchase_ts
"""


def windowed_events(sf_dir: str, *, window_minutes: int = 60) -> ray.data.Dataset:
    """Tumbling-window aggregate over the events stream: per (event_type,
    window) count + integer-cents value sum. Window assignment is a
    vectorized per-batch map (ts floor-div window); the aggregation is a
    partial-per-batch groupby pushed into map_batches… expressed here simply
    as the engine groupby, whose combiner already pre-aggregates per block."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    win_us = np.int64(window_minutes * 60 * 1_000_000)

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // win_us) * win_us
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pa.array(win, pa.int64()),
                "value_cents": pa.array(
                    _cents(batch["value"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value_cents", alias_name="value_cents"))
    )


def windowed_events_sql(window_minutes: int = 60) -> str:
    us = window_minutes * 60 * 1_000_000
    return f"""
SELECT event_type,
       (epoch_us(ts) // {us}) * {us} AS window_start,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY 1, 2
"""


def users_intersection(sf_dir: str) -> ray.data.Dataset:
    """Set op (INTERSECT): users who both click AND purchase — one groupby
    over per-row membership flags (the distributed set-intersection shape;
    UNION/EXCEPT are the same aggregate with different final filters)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "is_click": pc.equal(batch["event_type"], "click").cast(pa.int64()),
                "is_purchase": pc.equal(batch["event_type"], "purchase").cast(pa.int64()),
            }
        )

    agg = (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("is_click", alias_name="c"), Max("is_purchase", alias_name="p"))
    )

    def keep(batch: pa.Table) -> pa.Table:
        both = pc.and_(pc.equal(batch["c"], 1), pc.equal(batch["p"], 1))
        return batch.filter(both).select(["user_id"])

    return agg.map_batches(keep, batch_format="pyarrow")


def users_intersection_sql() -> str:
    return """
SELECT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase'
"""


def clicks_after_purchase(sf_dir: str, *, window_minutes: int = 60) -> ray.data.Dataset:
    """Range join demo (count form): for each purchase, how many clicks the
    same user makes within the following window — stages/join.
    bucketed_range_count_join (bucket co-location + composite-key
    searchsorted counting; no pair materialization)."""
    import pyarrow.compute as pc

    from epichypersketch_jl_ray.stages.join import bucketed_range_count_join

    ev = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    win_us = int(window_minutes) * 60 * 1_000_000

    def split(kind: str):
        def fn(batch: pa.Table) -> pa.Table:
            sub = batch.filter(pc.equal(batch["event_type"], kind))
            return pa.table(
                {
                    "user_id": sub["user_id"].cast(pa.int64()),
                    "ts": pa.array(
                        sub["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False), pa.int64()
                    ),
                }
            )

        return fn

    from epichypersketch_jl_ray.sources.tables import table_rows

    purchases = ev.map_batches(split("purchase"), batch_format="pyarrow")
    clicks = ev.map_batches(split("click"), batch_format="pyarrow")
    joined = bucketed_range_count_join(
        purchases, clicks, by="user_id", on="ts", window=win_us, out_count="n_clicks",
        size_hint_rows=table_rows(sf_dir, "events"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "purchase_ts": batch["ts"].cast(pa.int64()),
                "n_clicks": batch["n_clicks"].cast(pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def clicks_after_purchase_sql(window_minutes: int = 60) -> str:
    w = window_minutes * 60 * 1_000_000
    return f"""
WITH p AS (SELECT DISTINCT user_id, epoch_us(ts) AS t FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, epoch_us(ts) AS t FROM events WHERE event_type = 'click')
SELECT p.user_id, p.t AS purchase_ts, CAST(COUNT(c.t) AS BIGINT) AS n_clicks
FROM p LEFT JOIN c ON c.user_id = p.user_id AND c.t > p.t AND c.t <= p.t + {w}
GROUP BY 1, 2
"""


def hopping_events(
    sf_dir: str, *, window_minutes: int = 60, hop_minutes: int = 15
) -> ray.data.Dataset:
    """Hopping (sliding) window aggregate: each event contributes to every
    window of length ``window`` whose start is a multiple of ``hop`` and
    covers its timestamp — window/hop rows per event, emitted vectorized
    (np.repeat over the hop count), then the engine groupby with its
    per-block combiner. The overlap factor (window/hop) is the explicit
    fan-out cost of sliding windows; tumbling (`windowed_events`) is the
    factor-1 special case."""
    assert window_minutes % hop_minutes == 0
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    hop_us = np.int64(hop_minutes * 60 * 1_000_000)
    k = window_minutes // hop_minutes

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        base = (ts // hop_us) * hop_us  # newest window start covering ts
        offs = (np.arange(k, dtype=np.int64) * hop_us)[None, :]
        starts = (base[:, None] - offs).ravel()
        et = batch["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        codes = et.dictionary_encode()
        type_idx = np.repeat(
            codes.combine_chunks().indices.to_numpy(zero_copy_only=False).astype(np.int64)
            if isinstance(codes, pa.ChunkedArray)
            else codes.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            k,
        )
        dictionary = (
            codes.combine_chunks().dictionary if isinstance(codes, pa.ChunkedArray) else codes.dictionary
        )
        # map-side combine: events are time-local within a batch, so the
        # k-fold fan-out collapses onto few (type, window) cells — ship the
        # combined partials (n, sum) through the shuffle, not k rows/event
        cell = type_idx * np.int64(1 << 40) + (starts // hop_us)
        order = np.argsort(cell, kind="stable")
        cell_s = cell[order]
        first = np.ones(len(cell_s), dtype=bool)
        first[1:] = cell_s[1:] != cell_s[:-1]
        seg = np.cumsum(first) - 1
        vals = np.repeat(cents, k)[order]
        sums = np.bincount(seg, weights=vals).astype(np.int64)
        counts = np.bincount(seg).astype(np.int64)
        sel = order[np.flatnonzero(first)]
        return pa.table(
            {
                "event_type": dictionary.take(pa.array(type_idx[sel], pa.int64())),
                "window_start": pa.array(starts[sel], pa.int64()),
                "n_events": pa.array(counts, pa.int64()),
                "value_cents": pa.array(sums, pa.int64()),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
    )


def hopping_events_sql(window_minutes: int = 60, hop_minutes: int = 15) -> str:
    hop_us = hop_minutes * 60 * 1_000_000
    k = window_minutes // hop_minutes
    return f"""
WITH e AS (SELECT event_type, epoch_us(ts) AS t,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents FROM events),
w AS (SELECT event_type, ((t // {hop_us}) - i) * {hop_us} AS window_start, cents
      FROM e, LATERAL unnest(range(0, {k})) r(i))
SELECT event_type, window_start, COUNT(*) AS n_events,
       CAST(SUM(cents) AS BIGINT) AS value_cents
FROM w GROUP BY 1, 2
"""


def sessionize_sql(gap_minutes: int = 30) -> str:
    return f"""
WITH o AS (
  SELECT user_id,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL {gap_minutes} MINUTE
              THEN 1 ELSE 0 END AS brk
  FROM events)
SELECT user_id, COUNT(*) AS n_events, CAST(SUM(brk) + 1 AS BIGINT) AS n_sessions
FROM o GROUP BY user_id
"""


def customer_order_counts(sf_dir: str) -> ray.data.Dataset:
    """LEFT OUTER join aggregate: every customer's order count, INCLUDING
    zero-order customers — the outer-join semantics the inner joins
    elsewhere drop. Shape: union customer presence rows (n=0) with order
    rows (n=1) and one groupby sum — no join machinery; the presence row
    guarantees every left key appears."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def presence(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["c_custkey"].cast(pa.int64()),
                "n": pa.array(np.zeros(len(batch), np.int64), pa.int64()),
            }
        )

    def one_per_order(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": batch["o_custkey"].cast(pa.int64()),
                "n": pa.array(np.ones(len(batch), np.int64), pa.int64()),
            }
        )

    return (
        cust.map_batches(presence, batch_format="pyarrow")
        .union(orders.map_batches(one_per_order, batch_format="pyarrow"))
        .groupby("c_custkey")
        .aggregate(Sum("n", alias_name="n_orders"))
    )


def customer_order_counts_sql() -> str:
    return """
SELECT c_custkey, CAST(COUNT(o_custkey) AS BIGINT) AS n_orders
FROM customer LEFT JOIN orders ON o_custkey = c_custkey
GROUP BY 1
"""


def click_only_user_hours(sf_dir: str) -> ray.data.Dataset:
    """Set op EXCEPT over a COMPOSITE key: distinct (user, hour-window)
    pairs with a click but no purchase — the complement of
    users_intersection under the same membership-flag groupby (UNION /
    INTERSECT / EXCEPT differ only in the final filter; the composite key
    shows the shape generalizes beyond single columns)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    hour_us = np.int64(3_600_000_000)
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "hour": pa.array(ts // hour_us, pa.int64()),
                "is_click": pc.equal(batch["event_type"], "click").cast(pa.int64()),
                "is_purchase": pc.equal(batch["event_type"], "purchase").cast(pa.int64()),
            }
        )

    agg = (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby(["user_id", "hour"])
        .aggregate(Max("is_click", alias_name="c"), Max("is_purchase", alias_name="p"))
    )

    def keep(batch: pa.Table) -> pa.Table:
        only_click = pc.and_(pc.equal(batch["c"], 1), pc.equal(batch["p"], 0))
        return batch.filter(only_click).select(["user_id", "hour"])

    return agg.map_batches(keep, batch_format="pyarrow")


def click_only_user_hours_sql() -> str:
    return """
SELECT user_id, (epoch_us(ts) // 3600000000) AS hour FROM events WHERE event_type = 'click'
EXCEPT
SELECT user_id, (epoch_us(ts) // 3600000000) FROM events WHERE event_type = 'purchase'
"""


def event_props_by_type(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured telemetry aggregation: parse the integer field ``k``
    out of the events table's JSON ``props`` column and aggregate per event
    type. Extraction is a single Arrow extract_regex kernel per batch
    (functions/json.json_int_field — no per-row json.loads), the aggregate
    is one small groupby; absent/malformed fields drop as nulls, matching
    SQL json_extract semantics."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from epichypersketch_jl_ray.functions.json import json_int_field

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        k = json_int_field(batch["props"], "k")
        out = pa.table({"event_type": batch["event_type"], "k": k})
        return out.filter(pc.is_valid(out["k"]))

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("k", alias_name="sum_k"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
        )
    )


def event_props_by_type_sql() -> str:
    # TRY_CAST of the extracted STRING drops float/string-valued k the same
    # way the pipeline's integer regex does (CAST('1.5' AS BIGINT) would
    # error, json_extract without TRY_CAST would keep the row)
    return """
WITH t AS (SELECT event_type,
                  TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
           FROM events)
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       CAST(MIN(k) AS BIGINT) AS min_k,
       CAST(MAX(k) AS BIGINT) AS max_k
FROM t WHERE k IS NOT NULL
GROUP BY event_type
"""


def local_supplier_volume(
    sf_dir: str,
    *,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    num_partitions: int = 8,
    broadcast_threshold_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """TPC-H Q5 analogue (local supplier volume): revenue per nation from
    lineitems where the ordering customer and the supplier share a nation
    inside ``region``, over one order-date year.

    The join plan, by size class:
    - region + nation (5 + 25 rows): resolved on the driver into the
      region's nation-key set and a key->name map; always broadcast.
    - customer / supplier (grow linearly): pre-FILTERED to the region's
      nations (cuts ~4/5), then size-aware like revenue_by_nation —
      broadcast lookup arrays below ``broadcast_threshold_rows``, native
      hash join above (threshold=0 oracle test pins both paths equal).
    - orders (date-filtered at scan time) ⋈ lineitem on orderkey: the one
      genuinely corpus-scale join — ALWAYS the native hash-partitioned
      join, never a broadcast. Both inputs are pre-reduced to the minimal
      (key, nation[, cents]) columns before the shuffle.
    """
    import pyarrow.compute as pc

    from epichypersketch_jl_ray.sources.tables import table_rows

    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"]).to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"]
    if len(rkey) == 0:
        raise ValueError(f"unknown region {region!r}")
    in_region = nation[nation["n_regionkey"] == int(rkey.iloc[0])].sort_values("n_nationkey")
    region_nat_keys = in_region["n_nationkey"].to_numpy()
    nat_ref = ray.put((region_nat_keys, in_region["n_name"].to_numpy()))

    def _keyed_dim(table: str, key_col: str, nat_col: str):
        """(sorted keys, nationkeys) of the dim rows whose nation is in the
        region — broadcast path."""
        df = read_table(sf_dir, table, columns=[key_col, nat_col]).to_pandas()
        df = df[np.isin(df[nat_col].to_numpy(), region_nat_keys)].sort_values(key_col)
        return ray.put((df[key_col].to_numpy(), df[nat_col].to_numpy()))

    def _attach(ref, key_np: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit mask, nationkey per hit) via the broadcast lookup."""
        keys, nats = ray.get(ref)
        pos = np.searchsorted(keys, key_np)
        pos = np.minimum(pos, max(len(keys) - 1, 0))
        hit = (keys[pos] == key_np) if len(keys) else np.zeros(len(key_np), bool)
        return hit, nats[pos]

    import pyarrow.dataset as pads

    lo = pa.scalar(np.datetime64(date_from, "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64(date_to, "us"), pa.timestamp("us"))
    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        # row-group pushdown of the date window; the in-batch filter below
        # restates the predicate but removes nothing after pushdown
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )
    lineitem = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )
    small_dims = table_rows(sf_dir, "customer") <= broadcast_threshold_rows

    if small_dims:
        cust_ref = _keyed_dim("customer", "c_custkey", "c_nationkey")
        supp_ref = _keyed_dim("supplier", "s_suppkey", "s_nationkey")

        def orders_keyed(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater_equal(batch["o_orderdate"], lo), pc.less(batch["o_orderdate"], hi)
            )
            sub = batch.filter(m)
            hit, nk = _attach(cust_ref, sub["o_custkey"].to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "o_orderkey": sub["o_orderkey"].filter(pa.array(hit)),
                    "cust_nat": pa.array(nk[hit], pa.int64()),
                }
            )

        def lineitem_keyed(batch: pa.Table) -> pa.Table:
            hit, nk = _attach(supp_ref, batch["l_suppkey"].to_numpy(zero_copy_only=False))
            price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[hit]
            disc = batch["l_discount"].to_numpy(zero_copy_only=False)[hit]
            return pa.table(
                {
                    "l_orderkey": batch["l_orderkey"].filter(pa.array(hit)),
                    "supp_nat": pa.array(nk[hit], pa.int64()),
                    "revenue_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
                }
            )

        o_side = orders.map_batches(orders_keyed, batch_format="pyarrow")
        l_side = lineitem.map_batches(lineitem_keyed, batch_format="pyarrow")
    else:
        # native-join path for corpus-scale dims. The dim joins use our
        # bucketed_hash_join, not Dataset.join: the region filter makes the
        # dim side SPARSE, and Ray's native join can fail when a shuffle
        # partition arrives schema-less ("No match or multiple matches for
        # key field" — the known empty-partition bug, NOTES_r3); the hash
        # exchange gives every bucket each side's typed slices, so an empty
        # bucket joins to a 0-row block with the join's schema.
        from epichypersketch_jl_ray.stages.join import bucketed_hash_join

        nat_keys_ref = ray.put(region_nat_keys)

        def date_filter(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater_equal(batch["o_orderdate"], lo), pc.less(batch["o_orderdate"], hi)
            )
            return batch.filter(m).select(["o_orderkey", "o_custkey"])

        def region_dim(nat_col: str):
            def fn(batch: pa.Table) -> pa.Table:
                keep = np.isin(
                    batch[nat_col].to_numpy(zero_copy_only=False), ray.get(nat_keys_ref)
                )
                return batch.filter(pa.array(keep))

            return fn

        cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).map_batches(
            region_dim("c_nationkey"), batch_format="pyarrow"
        )
        supp_ds = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).map_batches(
            region_dim("s_nationkey"), batch_format="pyarrow"
        )
        o_side = bucketed_hash_join(
            orders.map_batches(date_filter, batch_format="pyarrow"),
            cust_ds,
            left_on="o_custkey",
            right_on="c_custkey",
            size_hint_rows=table_rows(sf_dir, "orders"),
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                    "cust_nat": b["c_nationkey"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

        def li_prep(batch: pa.Table) -> pa.Table:
            price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            disc = batch["l_discount"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "l_orderkey": batch["l_orderkey"],
                    "l_suppkey": batch["l_suppkey"],
                    "revenue_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
                }
            )

        l_side = bucketed_hash_join(
            lineitem.map_batches(li_prep, batch_format="pyarrow"),
            supp_ds,
            left_on="l_suppkey",
            right_on="s_suppkey",
            size_hint_rows=table_rows(sf_dir, "lineitem"),
        ).map_batches(
            lambda b: pa.table(
                {
                    "l_orderkey": b["l_orderkey"].cast(pa.int64()),
                    "supp_nat": b["s_nationkey"].cast(pa.int64()),
                    "revenue_cents": b["revenue_cents"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

    joined = l_side.join(
        o_side,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def local_only(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["cust_nat"], batch["supp_nat"])
        sub = batch.filter(keep)
        return pa.table(
            {"nat": sub["supp_nat"], "revenue_cents": sub["revenue_cents"]}
        )

    agg = (
        joined.map_batches(local_only, batch_format="pyarrow")
        .groupby("nat")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )

    def name_of(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(nat_ref)
        nk = batch["nat"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, nk)
        pos = np.minimum(pos, max(len(keys) - 1, 0))
        return pa.table(
            {"n_name": pa.array(names[pos], pa.string()), "revenue_cents": batch["revenue_cents"]}
        )

    return agg.map_batches(name_of, batch_format="pyarrow").sort("revenue_cents", descending=True)


def local_supplier_volume_sql(
    region: str = "ASIA", date_from: str = "1996-01-01", date_to: str = "1997-01-01"
) -> str:
    return f"""
SELECT n_name,
       CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey AND s_nationkey = c_nationkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = '{region}'
  AND o_orderdate >= TIMESTAMP '{date_from}'
  AND o_orderdate <  TIMESTAMP '{date_to}'
GROUP BY n_name
ORDER BY revenue_cents DESC
"""
