"""SQL window-function analogues as distributed Ray Data shapes.

Three operator classes the rest of the suite doesn't cover:

- grouped top-N  (ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) <= n):
  pre-aggregate -> co-locate by group -> vectorized per-group head.
- cumulative aggregate (SUM(v) OVER (PARTITION BY k ORDER BY t)): the hash
  exchange on the key, ONE lexsort per bucket, segment cumsum — with SQL's default
  RANGE frame tie semantics (ties share the frame end) so the answer is
  deterministic and hash-comparable.
- ROLLUP multi-level aggregation: one pass per level over the already
  partially-aggregated finest level — coarser levels aggregate the (tiny)
  finest-level result, not the corpus.

All three keep the corpus in the engine: the only driver-side results are
the final (group-bounded) answers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.pipelines.relational import _cents  # ONE rounding rule
from epichypersketch_jl_ray.sources.tables import read_table, table_rows
from epichypersketch_jl_ray.stages.exchange import (
    aggregate_table,
    group_aggregate,
    hash_partition,
    map_buckets,
)
from epichypersketch_jl_ray.stages.join import bucketed_hash_join
from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units


def top_parts_per_brand(
    sf_dir: str,
    *,
    n: int = 3,
    broadcast_threshold_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """Grouped top-N: each brand's n highest-revenue parts with their rank —
    the ROW_NUMBER window shape. Revenue sums per partkey
    (``group_aggregate``); the brand attach is size-aware: below the
    threshold a broadcast partkey→brand lookup runs on the sums inside
    their bucket tasks, above it the sums join the part table with
    ``bucketed_hash_join`` (same strategy and threshold test as
    revenue_by_nation); one tiny per-brand groupby ranks."""
    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"])
    rows = table_rows(sf_dir, "lineitem")
    revenue = {"revenue_cents": ("revenue_cents", "sum")}

    def prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "revenue_cents": pa.array(_cents(price * (1.0 - disc)), pa.int64()),
            }
        )

    lines = li.map_batches(prep, batch_format="pyarrow")
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    if table_rows(sf_dir, "part") <= broadcast_threshold_rows:
        pdf = part.to_pandas().sort_values("p_partkey")
        map_ref = ray.put((pdf["p_partkey"].to_numpy(), pdf["p_brand"].to_numpy()))

        def attach_brand(sums: pa.Table) -> pa.Table:
            keys, brands = ray.get(map_ref)
            pk = sums["l_partkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, pk)
            # max(...,0): an empty part table must not index keys[-1]
            pos = np.minimum(pos, max(len(keys) - 1, 0))
            # inner-join semantics (match the join path and oracle):
            # lineitems referencing a missing part drop instead of raising
            hit = (keys[pos] == pk) if len(keys) else np.zeros(len(pk), bool)
            return sums.filter(pa.array(hit)).append_column(
                "p_brand", pa.array(brands[pos][hit], pa.string())
            )

        joined = group_aggregate(lines, ["l_partkey"], revenue, rows, then=attach_brand)
    else:
        joined = bucketed_hash_join(
            group_aggregate(lines, ["l_partkey"], revenue, rows),
            part,
            left_on="l_partkey",
            right_on="p_partkey",
            size_hint_rows=table_rows(sf_dir, "part"),
        )

    def topn(group: pa.Table) -> pa.Table:
        r = group["revenue_cents"].to_numpy(zero_copy_only=False)
        pk = group["l_partkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, -r))[:n]  # revenue desc, partkey asc
        return pa.table(
            {
                "p_brand": group["p_brand"].take(pa.array(order)),
                "p_partkey": pa.array(pk[order], pa.int64()),
                "revenue_cents": pa.array(r[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            }
        )

    return joined.groupby("p_brand").map_groups(topn, batch_format="pyarrow")


def top_parts_per_brand_sql(n: int = 3) -> str:
    return f"""
WITH r AS (SELECT l_partkey,
                  SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS rev
           FROM lineitem GROUP BY 1),
j AS (SELECT p_brand, p_partkey, rev FROM r JOIN part ON p_partkey = l_partkey),
w AS (SELECT p_brand, p_partkey, rev,
             ROW_NUMBER() OVER (PARTITION BY p_brand ORDER BY rev DESC, p_partkey) AS rn
      FROM j)
SELECT p_brand, p_partkey, CAST(rev AS BIGINT) AS revenue_cents, CAST(rn AS BIGINT) AS rank
FROM w WHERE rn <= {n}
"""


def user_cumulative_spend(sf_dir: str) -> ray.data.Dataset:
    """Running total per user over purchase events (SUM OVER (PARTITION BY
    user ORDER BY ts)) with SQL's default RANGE frame: rows tied on ts all
    carry the tie group's closing total, making the result order-independent
    and hash-stable. One hash exchange on the user, one lexsort + segment
    cumsum per bucket."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type", "value"])

    def purchases(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["event_type"], "purchase"))
        u = sub["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "ts": pa.array(
                    sub["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False), pa.int64()
                ),
                "cents": pa.array(
                    _cents(sub["value"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    def per_bucket(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "purchase_ts": pa.array([], pa.int64()),
                    "cum_cents": pa.array([], pa.int64()),
                }
            )
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        c = batch["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u, ts, c = u[order], ts[order], c[order]
        cs = np.cumsum(c)
        user_start = np.concatenate(([True], u[1:] != u[:-1]))
        # per-user cumulative: subtract the bucket running total just before
        # each user's first row
        start_idx = np.flatnonzero(user_start)
        prev = np.concatenate(([0], cs))[start_idx]
        base = np.repeat(prev, np.diff(np.append(start_idx, len(u))))
        cum = cs - base
        # RANGE tie semantics: every row of a (user, ts) tie run reports the
        # run's LAST cumulative value
        run_start = user_start | np.concatenate(([True], ts[1:] != ts[:-1]))
        run_id = np.cumsum(run_start) - 1
        run_last = np.zeros(run_id[-1] + 1, dtype=np.int64)
        run_last[run_id] = cum  # later rows of a run overwrite earlier
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "purchase_ts": pa.array(ts, pa.int64()),
                "cum_cents": pa.array(run_last[run_id], pa.int64()),
            }
        )

    refs = block_refs(ds.map_batches(purchases, batch_format="pyarrow"))
    buckets = cpu_units(table_rows(sf_dir, "events"))
    return map_buckets(per_bucket, hash_partition(refs, ["user_id"], buckets))


def user_cumulative_spend_sql() -> str:
    return """
SELECT user_id, epoch_us(ts) AS purchase_ts,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts) AS BIGINT) AS cum_cents
FROM events WHERE event_type = 'purchase'
"""


def user_purchase_gaps(sf_dir: str) -> ray.data.Dataset:
    """LAG window shape: for every purchase after a user's first, the gap in
    microseconds since that user's previous purchase (ts - LAG(ts) OVER
    (PARTITION BY user ORDER BY ts, event_id)). event_id breaks timestamp
    ties, so the answer is deterministic and hash-comparable. Same shape as
    user_cumulative_spend: one hash exchange on the user, one lexsort +
    segment diff per bucket — no per-user task, no driver loop."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type", "event_id"])

    def purchases(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["event_type"], "purchase"))
        u = sub["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "ts": pa.array(
                    sub["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False), pa.int64()
                ),
                "event_id": sub["event_id"].cast(pa.int64()),
            }
        )

    def per_bucket(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "gap_us": pa.array([], pa.int64()),
            }
        )
        if len(batch) == 0:
            return empty
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ts, u))
        u, ts, ev = u[order], ts[order], ev[order]
        same_user = np.concatenate(([False], u[1:] == u[:-1]))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        keep = same_user  # first purchase per user has no gap
        return pa.table(
            {
                "user_id": pa.array(u[keep], pa.int64()),
                "event_id": pa.array(ev[keep], pa.int64()),
                "gap_us": pa.array(gap[keep], pa.int64()),
            }
        )

    refs = block_refs(ds.map_batches(purchases, batch_format="pyarrow"))
    buckets = cpu_units(table_rows(sf_dir, "events"))
    return map_buckets(per_bucket, hash_partition(refs, ["user_id"], buckets))


def user_purchase_gaps_sql() -> str:
    return """
WITH p AS (SELECT user_id, event_id, epoch_us(ts) AS t
           FROM events WHERE event_type = 'purchase'),
w AS (SELECT user_id, event_id,
             t - LAG(t) OVER (PARTITION BY user_id ORDER BY t, event_id) AS gap_us
      FROM p)
SELECT user_id, event_id, CAST(gap_us AS BIGINT) AS gap_us
FROM w WHERE gap_us IS NOT NULL
"""


def user_spend_quartile(sf_dir: str, *, tiles: int = 4, shift: int = 16) -> ray.data.Dataset:
    """NTILE(tiles) OVER (ORDER BY total_spend DESC, user_id): every user's
    spend quartile — a GLOBAL-ORDER window, the one shape a plain groupby
    cannot express.

    Distributed exact-rank construction (no global sort shuffle, no driver
    materialization of the user table):
      1. per-user purchase totals — one hash exchange on the user (the
         unavoidable one), each total tagged with its cbucket in the same
         bucket task.
      2. exact coarse histogram: cbucket = total_cents >> ``shift``; a
         count per cbucket yields a BOUNDED table (value range /
         2^shift rows, independent of user count), from which the driver
         computes each bucket's starting global rank in DESC order.
      3. broadcast offsets; groupby(bucket).map_groups ranks each bucket
         locally (sort by -cents, user_id; global rank = bucket offset +
         local index) and applies SQL's NTILE split: with N = q*tiles + m,
         the first m tiles get q+1 rows.
    Ties in total_cents never straddle buckets (equal cents => equal
    bucket), so local ordering is globally correct.
    """
    bucketed, off_ref, n_total = _spend_rank_parts(sf_dir, shift)
    q, m = divmod(n_total, tiles)

    def rank_bucket(group: pa.Table) -> pa.Table:
        u, c, r = _bucket_ranks(group, off_ref, shift)
        if q == 0:
            tile = r + 1
        else:
            first = r < (q + 1) * m
            tile = np.where(first, r // (q + 1), m + (r - m * (q + 1)) // q) + 1
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "total_cents": pa.array(c, pa.int64()),
                "quartile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return bucketed.groupby("cbucket").map_groups(rank_bucket, batch_format="pyarrow")


def _spend_rank_parts(sf_dir: str, shift: int):
    """Shared machinery for global-rank windows over per-user spend:
    (bucketed totals dataset, broadcast (bucket -> starting rank DESC)
    lookup, total user count). The histogram is bounded by the VALUE RANGE
    (cents >> shift), independent of user count."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def purchases(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return pa.table(
            {
                "user_id": sub["user_id"].cast(pa.int64()),
                "cents": pa.array(
                    _cents(sub["value"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    def tag(t: pa.Table) -> pa.Table:
        c = t["total_cents"].to_numpy(zero_copy_only=False)
        return t.append_column("cbucket", pa.array(c >> shift, pa.int64()))

    bucketed = group_aggregate(
        ds.map_batches(purchases, batch_format="pyarrow"),
        ["user_id"],
        {"total_cents": ("cents", "sum")},
        table_rows(sf_dir, "events"),
        then=tag,
    )
    hist = group_aggregate(bucketed, ["cbucket"], {"n": ([], "count_all")}, None).to_pandas()
    hist = hist.sort_values("cbucket", ascending=False)  # DESC spend order
    counts = hist["n"].to_numpy(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_total = int(counts.sum())
    off_ref = ray.put((hist["cbucket"].to_numpy(np.int64), offsets))
    return bucketed, off_ref, n_total


def _bucket_ranks(group: pa.Table, off_ref, shift: int):
    """(user_ids, cents, 0-based global rank) for one cbucket group, ordered
    (total_cents DESC, user_id). Cents ties never straddle buckets, so the
    local order plus the bucket's starting rank is globally exact."""
    keys, offs = ray.get(off_ref)
    c = group["total_cents"].to_numpy(zero_copy_only=False)
    u = group["user_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((u, -c))
    c, u = c[order], u[order]
    base = offs[np.searchsorted(-keys, -int(c[0] >> shift))]
    return u, c, base + np.arange(len(c), dtype=np.int64)


def user_spend_percentile(sf_dir: str, *, shift: int = 16) -> ray.data.Dataset:
    """PERCENT_RANK() OVER (ORDER BY total_spend DESC, user_id) — same
    exact-histogram global ranking as user_spend_quartile (the ordering key
    is unique, so RANK == ROW_NUMBER and percent_rank = rank/(N-1)); values
    rounded to 12 places for hash-stable float compare."""
    bucketed, off_ref, n_total = _spend_rank_parts(sf_dir, shift)
    denom = float(max(n_total - 1, 1))

    def rank_bucket(group: pa.Table) -> pa.Table:
        u, c, r = _bucket_ranks(group, off_ref, shift)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "total_cents": pa.array(c, pa.int64()),
                "pct_rank": pa.array(np.round(r / denom, 12), pa.float64()),
            }
        )

    return bucketed.groupby("cbucket").map_groups(rank_bucket, batch_format="pyarrow")


def user_spend_percentile_sql() -> str:
    return """
WITH t AS (SELECT user_id,
                  CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
           FROM events WHERE event_type = 'purchase' GROUP BY 1)
SELECT user_id, total_cents,
       round(PERCENT_RANK() OVER (ORDER BY total_cents DESC, user_id), 12) AS pct_rank
FROM t
"""


def user_spend_quartile_sql(tiles: int = 4) -> str:
    return f"""
WITH t AS (SELECT user_id,
                  CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
           FROM events WHERE event_type = 'purchase' GROUP BY 1)
SELECT user_id, total_cents,
       CAST(NTILE({tiles}) OVER (ORDER BY total_cents DESC, user_id) AS BIGINT) AS quartile
FROM t
"""


def revenue_rollup(sf_dir: str) -> ray.data.Dataset:
    """ROLLUP(l_returnflag, l_linestatus): totals at (flag, status), (flag)
    and grand-total levels. The finest level is the only corpus-scale
    aggregate (``group_aggregate``); the coarser levels re-aggregate its
    few rows (one per flag and status) on the driver — the
    hierarchical-aggregation shape, not three corpus passes."""
    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_extendedprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "cents": pa.array(
                    _cents(batch["l_extendedprice"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
            }
        )

    keys = ["l_returnflag", "l_linestatus"]
    fine = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys,
        {"revenue_cents": ("cents", "sum"), "n": ([], "count_all")},
        table_rows(sf_dir, "lineitem"),
    )
    fine = pa.concat_tables(ray.get(fine.to_arrow_refs()))

    def rolled_up(cols: list[str]) -> pa.Table:
        t = fine
        for c in cols:
            all_rows = pa.array(["ALL"] * t.num_rows, pa.string())
            t = t.set_column(t.schema.get_field_index(c), c, all_rows)
        sums = {"revenue_cents": ("revenue_cents", "sum"), "n": ("n", "sum")}
        return aggregate_table(t, keys, sums)

    return ray.data.from_arrow(
        pa.concat_tables([fine, rolled_up(["l_linestatus"]), rolled_up(keys)])
    )


def revenue_rollup_sql() -> str:
    return """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""
