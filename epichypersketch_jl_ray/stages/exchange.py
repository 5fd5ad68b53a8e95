"""The engine's one hash exchange: plain Ray tasks over block refs, no Ray
Data operator. It is the engine's only way to group or join rows by key.

- ``hash_partition``: one split task per input block ref
  (``num_returns=num_buckets``) stably sorts the block's rows by bucket and
  returns one slice per bucket, an empty one for a bucket the block has no
  row for. A row's bucket is its key hash modulo ``num_buckets``: an integer
  (or timestamp) key column hashes as ``hash_int64(key, seed=1)``, a string,
  large_string or binary one as ``hash_strings_fast(key)``; several key
  columns are folded with ``hash_combine``. A bucket holds many keys, and
  every row of a key.
- ``map_buckets``: one task per bucket concatenates that bucket's slices
  of one side, or of two sides, and runs the caller's table function on
  them. The result is ``ray.data.from_arrow_refs`` of the task outputs:
  one block per bucket, in bucket order.
- ``group_aggregate``: a grouped sum, min, max or count (or the distinct
  keys). Each split task first aggregates its block on its own (one
  partial row per key and block, an Arrow ``Table.group_by``), so what
  crosses the exchange is at most blocks × keys rows, never the raw rows;
  each bucket then merges its partials: sums and counts add, mins take the
  min, maxes the max, and distinct keys stay distinct.

Users: every grouped aggregate and distinct (``group_aggregate``, with a
follow-on filter, select or lookup of a site run in the same bucket task),
the activation group-by (``sources.activation``), the
bucketed joins (``stages.join``), the anti- and outer joins of
``parts_never_discounted``, ``customer_order_counts`` and the curation
keep/drop sets, the bucketed exact recount
(``stages.udaf.exact_recount``), and every per-bucket map whose bucket
only routes rows: the window functions and sessionize, the graph edge
dedup, connected components' star passes, the dedup verify, attach,
span and n-gram pair-count stages, distinctive terms, the LM-coverage and
decontamination semi-joins, and the domain cap. Each sizes its buckets
with ``udaf.cpu_units(rows)``. The exchange moves M input blocks × R
buckets objects (SCALE.md "The one real shuffle").
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units


def _key_hash(col: pa.ChunkedArray) -> np.ndarray:
    """uint64 hash of one key column: ``hash_strings_fast`` of a string or
    binary column, ``hash_int64(seed=1)`` of any other (as int64)."""
    from epichypersketch_jl_ray.functions.hashing import hash_int64, hash_strings_fast

    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        return hash_strings_fast(col)
    return hash_int64(col.to_numpy(zero_copy_only=False).astype(np.int64), seed=1)


@ray.remote
def _split(
    block,
    key_cols: list[str],
    num_buckets: int,
    columns: list[str] | None,
    combine: Callable[[pa.Table], pa.Table] | None,
):
    """One slice of ``block`` (its ``columns``, None: all; then
    ``combine`` of it, if given) per bucket: the rows stably sorted by
    bucket, cut at the bucket boundaries."""
    import pandas as pd
    from ray.data.block import BlockAccessor

    from epichypersketch_jl_ray.functions.hashing import hash_combine

    if isinstance(block, pd.DataFrame) and not len(block):
        # Ray's own conversion types a 0-row pandas block's columns as null
        tbl = pa.Table.from_pandas(block, preserve_index=False)
    else:
        tbl = BlockAccessor.for_block(block).to_arrow()
    if not tbl.num_columns:  # Ray Data's map of a 0-row block drops its columns
        return [tbl] * num_buckets if num_buckets > 1 else tbl
    if columns is not None:
        tbl = tbl.select(columns)
    if combine is not None:
        tbl = combine(tbl)
    h = hash_combine(*(_key_hash(tbl[c]) for c in key_cols))
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(num_buckets + 1))
    tbl = tbl.take(order)
    slices = [tbl.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return slices if num_buckets > 1 else slices[0]


def hash_partition(
    blocks: Iterable,
    key_cols: list[str],
    num_buckets: int,
    columns: list[str] | None = None,
    combine: Callable[[pa.Table], pa.Table] | None = None,
) -> list[list]:
    """Per bucket, the refs to its slice of every block in ``blocks``
    (block refs, Arrow or pandas), in block order; ``combine`` (a table
    function that keeps the key columns) runs on each block before it is
    cut. A split task is submitted as soon as its block ref arrives, so a
    streamed Dataset's read overlaps the split."""
    split = _split.options(num_returns=num_buckets)
    splits = [split.remote(b, key_cols, num_buckets, columns, combine) for b in blocks]
    if num_buckets == 1:  # num_returns=1 gives one ref, not a list
        splits = [[s] for s in splits]
    return [[s[b] for s in splits] for b in range(num_buckets)]


@ray.remote
def _map_bucket(fn, counts: tuple[int, ...], *slices: pa.Table) -> pa.Table:
    """``fn`` of one bucket's table per side; ``counts`` says how many of
    ``slices`` each side has. A side's table is its non-empty slices
    concatenated, or its widest slice when all are empty, so it keeps its
    columns."""
    tables, start = [], 0
    for n in counts:
        side = slices[start : start + n]
        start += n
        kept = [t for t in side if t.num_rows] or [max(side, key=lambda t: t.num_columns)]
        tables.append(pa.concat_tables(kept, promote_options="permissive"))
    return fn(*tables)


def map_buckets(fn: Callable[..., pa.Table], *sides: list[list]) -> ray.data.Dataset:
    """One Ray task per bucket runs ``fn`` on that bucket's table of each
    side (``hash_partition`` outputs with one bucket count; every side
    must have at least one block). ``fn`` returns an Arrow table with the
    same schema for every bucket, a 0-row bucket included."""
    refs = [
        _map_bucket.remote(fn, tuple(map(len, parts)), *(s for p in parts for s in p))
        for parts in zip(*sides)
    ]
    return ray.data.from_arrow_refs(refs)


def aggregate_table(tbl: pa.Table, keys: list[str], aggs: dict[str, tuple]) -> pa.Table:
    """``tbl`` grouped by ``keys``: the keys, then one column per ``aggs``
    entry (output name -> pyarrow ``(column, function)``, e.g.
    ``("v", "sum")`` or ``([], "count_all")``), in that order. An empty
    ``aggs`` gives the distinct keys."""
    specs = list(aggs.values()) or [([], "count_all")]
    out = tbl.group_by(keys, use_threads=False).aggregate(specs)
    names = [f"{c}_{f}" if c else f for c, f in specs]
    return out.select(keys + names[: len(aggs)]).rename_columns(keys + list(aggs))


# how a bucket merges the per-block partials of each aggregate function
_MERGE = {"sum": "sum", "count_all": "sum", "min": "min", "max": "max"}


def group_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple],
    rows: int | None,
    then: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """``aggregate_table(keys, aggs)`` of ``ds``, then ``then`` of it per
    bucket if given (a filter, select or lookup that must see every row of
    a key): each block aggregated in its split task, one hash exchange of
    those partials on ``keys`` into ``udaf.cpu_units(rows)`` buckets
    (``rows``: an input row count such as a parquet footer's, or None), and
    per bucket one Arrow group-by that merges them. Every output block, a
    0-row one too, has the keys' and aggregates' types."""
    merge = {name: (name, _MERGE[fn]) for name, (_, fn) in aggs.items()}

    def bucket(t: pa.Table) -> pa.Table:
        out = aggregate_table(t, keys, merge)
        return out if then is None else then(out)

    return map_buckets(
        bucket,
        hash_partition(
            block_refs(ds), keys, cpu_units(rows), combine=lambda t: aggregate_table(t, keys, aggs)
        ),
    )
