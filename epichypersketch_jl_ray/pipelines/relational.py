"""Relational operator demonstrations: grouped aggregation, top-k,
broadcast join, sessionization — the generic Dataset operations the sketch
pipelines compose with (SURVEY.md §2.4 A3 / §2.6 O2; reference analogues are
the documented post-processing workflows, /root/reference/README.md:156-191).

Every grouped aggregate, set operation and equi-, anti- or outer join here
runs on the engine's one hash exchange (stages/exchange): a
``group_aggregate`` (each block combined before the exchange), a
``bucketed_hash_join``, or a ``map_buckets`` whose bucket function runs an
Arrow join. A site's follow-on filter or select runs in the same bucket
task, so no Ray Data map runs over the buckets.

Monetary aggregates are summed as integer cents (per-row round, then int64
sum) so distributed partial-sum order cannot perturb float results — the
driver's value-hash compare requires bit-stable answers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from epichypersketch_jl_ray.sources.tables import read_table, table_rows
from epichypersketch_jl_ray.stages.exchange import (
    aggregate_table,
    group_aggregate,
    hash_partition,
    map_buckets,
)
from epichypersketch_jl_ray.stages.join import (
    bucketed_asof_join,
    bucketed_hash_join,
    bucketed_range_count_join,
)
from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units


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

    return group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_cents": ("base_cents", "sum"),
            "n": ([], "count_all"),
        },
        table_rows(sf_dir, "lineitem"),
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
    """Top-k suppliers by discounted revenue (grouped sum → sort → limit,
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

    agg = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_suppkey"],
        {"revenue_cents": ("revenue_cents", "sum")},
        table_rows(sf_dir, "lineitem"),
    )
    return agg.sort(["revenue_cents", "l_suppkey"], descending=[True, False]).limit(k)


def top_suppliers_sql(k: int = 10) -> str:
    return f"""
SELECT l_suppkey, CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem GROUP BY 1 ORDER BY revenue_cents DESC, l_suppkey LIMIT {k}
"""


def revenue_by_nation(
    sf_dir: str, *, broadcast_threshold_rows: int = 1_000_000
) -> ray.data.Dataset:
    """orders ⋈ customer ⋈ nation with a SIZE-AWARE join strategy.

    nation (25 rows) is always broadcast via ray.put. customer grows
    linearly with the corpus, so it is broadcast ONLY below
    ``broadcast_threshold_rows`` (parquet-footer count — one lookup array on
    each worker); above it the customers are resolved to their nation names
    first and joined to the orders with ``bucketed_hash_join`` — the shape
    that survives 100 TB, where a customer broadcast would be a multi-GB
    driver materialization. Both paths produce identical results (pinned by
    a threshold=0 oracle test)."""
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nat_sorted = nation.sort_values("n_nationkey")
    nat_keys = nat_sorted["n_nationkey"].to_numpy()
    nat_names = nat_sorted["n_name"].to_numpy()

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

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
            # inner-join semantics, matching the join path AND the SQL
            # oracle: orders referencing a missing customer DROP (raising
            # here would make the two paths diverge on dirty data)
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
        def prep(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "o_custkey": batch["o_custkey"],
                    "revenue_cents": pa.array(
                        _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)), pa.int64()
                    ),
                }
            )

        def resolve_nation(batch: pa.Table) -> pa.Table:
            names = _nation_of(batch["c_nationkey"].to_numpy(zero_copy_only=False))
            return pa.table(
                {"c_custkey": batch["c_custkey"], "n_name": pa.array(names, pa.string())}
            )

        cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        resolved = bucketed_hash_join(
            orders.map_batches(prep, batch_format="pyarrow"),
            cust_ds.map_batches(resolve_nation, batch_format="pyarrow"),
            left_on="o_custkey",
            right_on="c_custkey",
            size_hint_rows=table_rows(sf_dir, "orders"),
        )

    return group_aggregate(
        resolved,
        ["n_name"],
        {"revenue_cents": ("revenue_cents", "sum"), "n_orders": ([], "count_all")},
        table_rows(sf_dir, "orders"),
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


def _anti_join(
    parts_ds: ray.data.Dataset, keys_ds: ray.data.Dataset, rows: int
) -> ray.data.Dataset:
    """Exact anti-join: the (p_partkey, p_brand) rows of ``parts_ds`` whose
    key is no ``l_partkey`` of ``keys_ds``. Both sides go through one hash
    exchange on the part key (``udaf.cpu_units(rows)`` buckets), and each
    bucket runs one Arrow left anti join."""

    def anti(parts: pa.Table, keys: pa.Table) -> pa.Table:
        parts = pa.table(
            {"p_partkey": parts["p_partkey"].cast(pa.int64()), "p_brand": parts["p_brand"]}
        )
        keys = pa.table({"p_partkey": keys["l_partkey"].cast(pa.int64())})
        return parts.join(keys, "p_partkey", join_type="left anti")

    buckets = cpu_units(rows)
    return map_buckets(
        anti,
        hash_partition(block_refs(parts_ds), ["p_partkey"], buckets, ["p_partkey", "p_brand"]),
        hash_partition(block_refs(keys_ds), ["l_partkey"], buckets, ["l_partkey"]),
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
      parts): a plain bucketed anti-join (one hash exchange of both sides,
      an Arrow left anti join per bucket) — most parts are discounted, so a
      Bloom miss-shortcut would buy a near-empty split.
    - SPARSE fallback: broadcast Bloom over the discounted keys; misses pass
      with no shuffle; only hits are verified. If hits are themselves sparse
      (< ``sparse_hit_rate`` × parts), a second Bloom over the hit keys
      prunes the corpus-scale key stream to hit scale before the verify
      anti-join; otherwise the prune would pass ~everything and is skipped.

    Output is exact on every path (threshold tests pin them all equal).
    """
    from epichypersketch_jl_ray.functions.hashing import hash_int64
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
        return _anti_join(part, keys_ds, n_keys)

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
        return misses.union(_anti_join(hits, keys_ds, n_keys))

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
    return misses.union(_anti_join(hits, pruned, n_keys))


def parts_never_discounted_sql(min_discount: float = 0.09) -> str:
    return f"""
SELECT p_partkey, p_brand FROM part
WHERE p_partkey NOT IN (SELECT l_partkey FROM lineitem WHERE l_discount >= {min_discount})
"""


def part_revenue_by_brand(sf_dir: str) -> ray.data.Dataset:
    """Large-large equi-join: lineitem ⋈ part on partkey with
    ``bucketed_hash_join`` (one hash exchange of both sides, an Arrow hash
    join per bucket), then the per-brand revenue and item count."""
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

    rows = table_rows(sf_dir, "lineitem")
    joined = bucketed_hash_join(
        li.map_batches(prep, batch_format="pyarrow"),
        read_table(sf_dir, "part", columns=["p_partkey", "p_brand"]),
        left_on="l_partkey",
        right_on="p_partkey",
        size_hint_rows=rows,
    )
    return group_aggregate(
        joined,
        ["p_brand"],
        {"revenue_cents": ("revenue_cents", "sum"), "n_items": ([], "count_all")},
        rows,
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
    vectorized per-batch map (ts floor-div window); the aggregation is one
    ``group_aggregate`` (hash exchange + Arrow group-by per bucket)."""
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

    return group_aggregate(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"n_events": ([], "count_all"), "value_cents": ("value_cents", "sum")},
        table_rows(sf_dir, "events"),
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


def _click_set_op(
    flagged: ray.data.Dataset, keys: list[str], purchase: int, rows: int
) -> ray.data.Dataset:
    """The distinct ``keys`` of ``flagged`` (rows with ``is_click`` and
    ``is_purchase`` flags) that have a click and, with ``purchase=1``, a
    purchase (INTERSECT) or, with ``purchase=0``, none (EXCEPT): the
    max flags per key (``group_aggregate``), filtered in its bucket
    task."""

    def keep(g: pa.Table) -> pa.Table:
        return g.filter(pc.and_(pc.equal(g["c"], 1), pc.equal(g["p"], purchase))).select(keys)

    flags = {"c": ("is_click", "max"), "p": ("is_purchase", "max")}
    return group_aggregate(flagged, keys, flags, rows, then=keep)


def users_intersection(sf_dir: str) -> ray.data.Dataset:
    """Set op (INTERSECT): users who both click AND purchase — one grouped
    max over per-row membership flags (the distributed set-intersection
    shape; UNION/EXCEPT are the same aggregate with different final
    filters, ``_click_set_op``)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "is_click": pc.equal(batch["event_type"], "click").cast(pa.int64()),
                "is_purchase": pc.equal(batch["event_type"], "purchase").cast(pa.int64()),
            }
        )

    flagged = ds.map_batches(flags, batch_format="pyarrow")
    return _click_set_op(flagged, ["user_id"], 1, table_rows(sf_dir, "events"))


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
    (np.repeat over the hop count), then one ``group_aggregate``, whose
    per-block combine collapses the fan-out onto the few (type, window)
    cells of each block before the exchange. The overlap factor
    (window/hop) is the explicit fan-out cost of sliding windows; tumbling
    (`windowed_events`) is the factor-1 special case."""
    assert window_minutes % hop_minutes == 0
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    hop_us = np.int64(hop_minutes * 60 * 1_000_000)
    k = window_minutes // hop_minutes

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = _cents(batch["value"].to_numpy(zero_copy_only=False))
        base = (ts // hop_us) * hop_us  # newest window start covering ts
        offs = (np.arange(k, dtype=np.int64) * hop_us)[None, :]
        fan = pa.array(np.repeat(np.arange(batch.num_rows, dtype=np.int64), k))
        return pa.table(
            {
                "event_type": batch["event_type"].take(fan),
                "window_start": pa.array((base[:, None] - offs).ravel(), pa.int64()),
                "value_cents": pa.array(np.repeat(cents, k), pa.int64()),
            }
        )

    return group_aggregate(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"n_events": ([], "count_all"), "value_cents": ("value_cents", "sum")},
        table_rows(sf_dir, "events"),
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
    elsewhere drop. Both tables go through one hash exchange on the
    customer key; per bucket, the orders are counted per customer and the
    customers left-outer-joined to the counts (no count: 0)."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def outer(c: pa.Table, o: pa.Table) -> pa.Table:
        counts = aggregate_table(o, ["o_custkey"], {"n": ([], "count_all")})
        counts = pa.table({"c_custkey": counts["o_custkey"].cast(pa.int64()), "n": counts["n"]})
        c = pa.table({"c_custkey": c["c_custkey"].cast(pa.int64())})
        out = c.join(counts, "c_custkey", join_type="left outer")
        return pa.table({"c_custkey": out["c_custkey"], "n_orders": pc.fill_null(out["n"], 0)})

    buckets = cpu_units(table_rows(sf_dir, "orders"))
    return map_buckets(
        outer,
        hash_partition(block_refs(cust), ["c_custkey"], buckets),
        hash_partition(block_refs(orders), ["o_custkey"], buckets),
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
    users_intersection under the same membership-flag aggregate (UNION /
    INTERSECT / EXCEPT differ only in the final filter; the composite key
    shows the shape generalizes beyond single columns)."""
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

    flagged = ds.map_batches(flags, batch_format="pyarrow")
    return _click_set_op(flagged, ["user_id", "hour"], 0, table_rows(sf_dir, "events"))


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
    is one small ``group_aggregate``; absent/malformed fields drop as
    nulls, matching SQL json_extract semantics."""
    from epichypersketch_jl_ray.functions.json import json_int_field

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        k = json_int_field(batch["props"], "k")
        out = pa.table({"event_type": batch["event_type"], "k": k})
        return out.filter(pc.is_valid(out["k"]))

    return group_aggregate(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"],
        {
            "n": ([], "count_all"),
            "sum_k": ("k", "sum"),
            "min_k": ("k", "min"),
            "max_k": ("k", "max"),
        },
        table_rows(sf_dir, "events"),
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
      broadcast lookup arrays below ``broadcast_threshold_rows``,
      ``bucketed_hash_join`` above (threshold=0 oracle test pins both paths
      equal). The supplier side carries its nation's name.
    - orders (date-filtered at scan time) ⋈ lineitem: the one genuinely
      corpus-scale join — ALWAYS ``bucketed_hash_join``, never a broadcast,
      on (orderkey, nationkey), so only local rows (customer nation ==
      supplier nation) leave it. Both inputs are pre-reduced to the minimal
      (key, nation[, name, cents]) columns before the exchange.
    """
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"]).to_pandas()
    rkey = reg.loc[reg["r_name"] == region, "r_regionkey"]
    if len(rkey) == 0:
        raise ValueError(f"unknown region {region!r}")
    in_region = nation[nation["n_regionkey"] == int(rkey.iloc[0])].sort_values("n_nationkey")
    region_nat_keys = in_region["n_nationkey"].to_numpy()
    region_nat_names = in_region["n_name"].to_numpy()

    def name_of(nk: np.ndarray) -> pa.Array:
        """Names of region nation keys."""
        return pa.array(region_nat_names[np.searchsorted(region_nat_keys, nk)], pa.string())

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
    rows = table_rows(sf_dir, "lineitem")

    def in_window(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.and_(pc.greater_equal(batch["o_orderdate"], lo), pc.less(batch["o_orderdate"], hi))
        )

    def revenue(batch: pa.Table, hit) -> pa.Array:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[hit]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[hit]
        return pa.array(_cents(price * (1.0 - disc)), pa.int64())

    if table_rows(sf_dir, "customer") <= broadcast_threshold_rows:
        cust_ref = _keyed_dim("customer", "c_custkey", "c_nationkey")
        supp_ref = _keyed_dim("supplier", "s_suppkey", "s_nationkey")

        def orders_keyed(batch: pa.Table) -> pa.Table:
            sub = in_window(batch)
            hit, nk = _attach(cust_ref, sub["o_custkey"].to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "o_orderkey": sub["o_orderkey"].filter(pa.array(hit)),
                    "c_nationkey": pa.array(nk[hit], pa.int64()),
                }
            )

        def lineitem_keyed(batch: pa.Table) -> pa.Table:
            hit, nk = _attach(supp_ref, batch["l_suppkey"].to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "l_orderkey": batch["l_orderkey"].filter(pa.array(hit)),
                    "s_nationkey": pa.array(nk[hit], pa.int64()),
                    "n_name": name_of(nk[hit]),
                    "revenue_cents": revenue(batch, hit),
                }
            )

        o_side = orders.map_batches(orders_keyed, batch_format="pyarrow")
        l_side = lineitem.map_batches(lineitem_keyed, batch_format="pyarrow")
    else:
        # the dim joins run on the exchange too: the region filter makes
        # the dim side SPARSE, and every bucket gets each side's typed
        # slices, so an empty bucket joins to a 0-row block with the
        # join's schema
        def region_dim(nat_col: str, named: bool):
            def fn(batch: pa.Table) -> pa.Table:
                nk = batch[nat_col].to_numpy(zero_copy_only=False)
                sub = batch.filter(pa.array(np.isin(nk, region_nat_keys)))
                if named:
                    sub = sub.append_column(
                        "n_name", name_of(sub[nat_col].to_numpy(zero_copy_only=False))
                    )
                return sub

            return fn

        def li_prep(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "l_orderkey": batch["l_orderkey"],
                    "l_suppkey": batch["l_suppkey"],
                    "revenue_cents": revenue(batch, slice(None)),
                }
            )

        cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        supp_ds = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        o_side = bucketed_hash_join(
            orders.map_batches(
                lambda b: in_window(b).select(["o_orderkey", "o_custkey"]), batch_format="pyarrow"
            ),
            cust_ds.map_batches(region_dim("c_nationkey", False), batch_format="pyarrow"),
            left_on="o_custkey",
            right_on="c_custkey",
            size_hint_rows=table_rows(sf_dir, "orders"),
        )
        l_side = bucketed_hash_join(
            lineitem.map_batches(li_prep, batch_format="pyarrow"),
            supp_ds.map_batches(region_dim("s_nationkey", True), batch_format="pyarrow"),
            left_on="l_suppkey",
            right_on="s_suppkey",
            size_hint_rows=rows,
        )

    local = bucketed_hash_join(
        l_side,
        o_side,
        left_on=["l_orderkey", "s_nationkey"],
        right_on=["o_orderkey", "c_nationkey"],
        size_hint_rows=rows,
    )
    return group_aggregate(
        local, ["n_name"], {"revenue_cents": ("revenue_cents", "sum")}, rows
    ).sort("revenue_cents", descending=True)


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
