"""Distributed joins on the engine's one hash exchange (stages/exchange;
SCALE.md "Broadcasts instead of shuffle joins"): both sides are split into
the same buckets by a hash of their join key (``exchange.hash_partition``),
and one task per bucket joins that bucket's left table with its right
table (``exchange.map_buckets``). Ray Data's own ``Dataset.join`` runs
nowhere in the engine. The splits are submitted while each input streams,
so a join runs when it is called and returns a materialized Dataset, one
block per bucket; every block, a 0-row one too, carries the join's schema.

- bucketed_hash_join: inner equi-join on one key column or several, an
  Arrow hash join per bucket. Skew: the bucket key is a hash, so DISTINCT
  hot keys spread; a single pathological key still maps to ONE bucket.
- bucketed_range_count_join: per left row, the right rows of the same key
  in a window after it, counted with sorted searches per bucket.
- bucketed_asof_join: as-of (backward, inclusive) join per `by` key —
  sort within bucket, pandas merge_asof.

Anti- and outer joins whose bucket body is one Arrow join plus a site's
own filter (``relational.parts_never_discounted``,
``relational.customer_order_counts``, the curation keep/drop sets) call
``exchange.map_buckets`` directly.

The bucket count is ``udaf.cpu_units(size_hint_rows)`` (callers pass a
parquet-footer row count): about 64k rows per bucket, a multiple of the
CPU count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
from epichypersketch_jl_ray.stages.udaf import cpu_units, input_units


def _join_buckets(
    fn: Callable[[pa.Table, pa.Table], pa.Table],
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: list[str],
    right_on: list[str],
    size_hint_rows: int | None,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """``fn(left table, right table)`` per bucket of both sides' join keys."""
    num_buckets = cpu_units(size_hint_rows)
    return map_buckets(
        fn,
        hash_partition(input_units(left), left_on, num_buckets, columns),
        hash_partition(input_units(right), right_on, num_buckets, columns),
    )


def bucketed_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str | list[str],
    right_on: str | list[str],
    size_hint_rows: int | None = None,
) -> ray.data.Dataset:
    """Inner equi-join: per bucket, one Arrow hash join. ``left_on`` and
    ``right_on`` name one key column each, or equally long lists of them.

    Column-name collisions other than the keys are the caller's problem
    (prune to needed columns first — which also minimizes exchange bytes).
    """
    lk = [left_on] if isinstance(left_on, str) else list(left_on)
    rk = [right_on] if isinstance(right_on, str) else list(right_on)
    shared = {a for a, b in zip(lk, rk) if a == b}

    def join_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        # Acero hash join, no Arrow<->pandas conversion per bucket. Acero
        # omits the right key columns; each is re-appended (inner equi-join:
        # values equal the left key) to keep pandas-merge-compatible output
        out = l.join(r, keys=lk, right_keys=rk, join_type="inner")
        for a, b in zip(lk, rk):
            if a != b:
                out = out.append_column(b, out[a].cast(r.schema.field(b).type))
        return out.select(l.column_names + [c for c in r.column_names if c not in shared])

    return _join_buckets(join_bucket, left, right, lk, rk, size_hint_rows)


def bucketed_range_count_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    on: str,
    window: int,
    out_count: str = "n_matches",
    size_hint_rows: int | None = None,
) -> ray.data.Dataset:
    """Range join, count form: for each left row, the number of right rows
    with the same ``by`` key and ``on`` in (left.on, left.on + window].

    Inside each bucket both sides sort once by (key, on) and every count is
    two vectorized searchsorteds over a composite int64 key (no per-row
    loop, no pair materialization — the count form keeps range joins
    bounded even when a window covers many matches; an emit-pairs form
    would explode by the match factor). Duplicate left (key, on) rows
    collapse to one output row counted ONCE — i.e. SELECT DISTINCT
    left-side semantics, which the SQL oracle mirrors with a DISTINCT on
    its left CTE.
    """

    def count_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        lk, lo, rk, ro = (t[c].to_numpy().astype(np.int64) for t in (l, r) for c in (by, on))
        # one output row per distinct left (key, on)
        uniq = np.unique(np.stack([lk, lo], axis=1), axis=0)
        lk, lo = uniq[:, 0], uniq[:, 1]
        n = np.zeros(len(lk), np.int64)
        if len(lk):
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
        cols = {by: lk, on: lo, out_count: n}
        return pa.table({c: pa.array(v, pa.int64()) for c, v in cols.items()})

    return _join_buckets(count_bucket, left, right, [by], [by], size_hint_rows, [by, on])


def bucketed_asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    on: str,
    size_hint_rows: int | None = None,
) -> ray.data.Dataset:
    """Backward-inclusive as-of join (for each left row, the latest right row
    with the same ``by`` key and right.on <= left.on). Inner semantics: left
    rows with no match are dropped (no nulls in the output). Right columns
    other than ``by`` get the suffix ``_r``."""

    def asof_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        renamed = {c: c + "_r" for c in r.column_names if c != by}
        schema = pa.schema(
            list(l.schema) + [f.with_name(renamed[f.name]) for f in r.schema if f.name != by]
        )
        if not (l.num_rows and r.num_rows):
            return schema.empty_table()
        out = pd.merge_asof(
            l.to_pandas().sort_values(on, kind="stable"),
            r.to_pandas().sort_values(on, kind="stable").rename(columns=renamed),
            left_on=on,
            right_on=on + "_r",
            by=by,
            direction="backward",
            allow_exact_matches=True,
        ).dropna(subset=[on + "_r"])
        return pa.Table.from_pandas(out, preserve_index=False).select(schema.names).cast(schema)

    return _join_buckets(asof_bucket, left, right, [by], [by], size_hint_rows)
