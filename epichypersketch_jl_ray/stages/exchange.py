"""The engine's one hash exchange: plain Ray tasks over input units, no Ray
Data operator. It is the engine's only way to group or join rows by key.

- ``hash_partition``: one split task per input unit
  (``num_returns=num_buckets``) stably sorts the unit's rows by bucket and
  returns one slice per bucket, an empty one for a bucket the unit has no
  row for. ``udaf.input_units`` gives the units: for a Dataset that is a
  bare parquet read, runs of whole row groups that each split task reads
  itself, so the read and the split are one task per run and Ray Data's
  read never runs; for any other Dataset, its block refs as they stream.
  A row's bucket is its key hash modulo ``num_buckets``: an integer
  (or timestamp) key column hashes as ``hash_int64(key, seed=1)``, a string,
  large_string or binary one as ``hash_strings_fast(key)``; several key
  columns are folded with ``hash_combine``. A bucket holds many keys, and
  every row of a key.
- ``map_buckets``: one task per bucket concatenates that bucket's slices
  of one side, or of two sides, and runs the caller's table function on
  them; it returns the table and the table's block metadata. The result
  is ``sources.tables.dataset_of`` those: one block per bucket, in bucket
  order, a materialized Dataset with no Ray Data metadata task or
  executor run behind it.
- ``group_aggregate``: a grouped sum, min, max or count (or the distinct
  keys). Each split task first aggregates its unit on its own (one
  partial row per key and unit, an Arrow ``Table.group_by``), so what
  crosses the exchange is at most units × keys rows, never the raw rows;
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
with ``udaf.cpu_units(rows)``. The exchange moves M input units × R
buckets objects (SCALE.md "The one real shuffle").
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from epichypersketch_jl_ray.stages.udaf import ParquetRun, block_refs, cpu_units, input_units


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
    bucket, cut at the bucket boundaries. ``block`` is a Dataset block or
    a ``udaf.ParquetRun``, which the task reads itself (only ``columns``
    when given, else the run's)."""
    import pandas as pd
    from ray.data.block import BlockAccessor

    from epichypersketch_jl_ray.functions.hashing import hash_combine

    if isinstance(block, ParquetRun):
        tbl = block.read(columns)
    elif isinstance(block, pd.DataFrame) and not len(block):
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
    units: Iterable,
    key_cols: list[str],
    num_buckets: int,
    columns: list[str] | None = None,
    combine: Callable[[pa.Table], pa.Table] | None = None,
) -> list[list]:
    """Per bucket, the refs to its slice of every unit in ``units``
    (block refs, Arrow or pandas, or ``udaf.ParquetRun`` runs: what
    ``udaf.input_units`` gives), in unit order; ``combine`` (a table
    function that keeps the key columns) runs on each unit before it is
    cut. A split task is submitted as soon as its block ref arrives, so a
    streamed Dataset's blocks overlap the split."""
    split = _split.options(num_returns=num_buckets)
    splits = [split.remote(u, key_cols, num_buckets, columns, combine) for u in units]
    if num_buckets == 1:  # num_returns=1 gives one ref, not a list
        splits = [[s] for s in splits]
    return [[s[b] for s in splits] for b in range(num_buckets)]


@ray.remote(num_returns=2)
def _map_bucket(fn, counts: tuple[int, ...], *slices: pa.Table):
    """``fn`` of one bucket's table per side, and that table's
    ``sources.tables.block_metadata``; ``counts`` says how many of
    ``slices`` each side has. A side's table is its non-empty slices
    concatenated, or its widest slice when all are empty, so it keeps its
    columns."""
    from epichypersketch_jl_ray.sources.tables import block_metadata

    tables, start = [], 0
    for n in counts:
        side = slices[start : start + n]
        start += n
        kept = [t for t in side if t.num_rows] or [max(side, key=lambda t: t.num_columns)]
        tables.append(pa.concat_tables(kept, promote_options="permissive"))
    out = fn(*tables)
    return out, block_metadata(out)


def map_buckets(fn: Callable[..., pa.Table], *sides: list[list]) -> ray.data.Dataset:
    """One Ray task per bucket runs ``fn`` on that bucket's table of each
    side (``hash_partition`` outputs with one bucket count; every side
    must have at least one block). ``fn`` returns an Arrow table with the
    same schema for every bucket, a 0-row bucket included. The Dataset is
    built from the tasks' table refs and returned metadata
    (``sources.tables.dataset_of``), with no Ray Data task."""
    from epichypersketch_jl_ray.sources.tables import dataset_of

    outs = [
        _map_bucket.remote(fn, tuple(map(len, parts)), *(s for p in parts for s in p))
        for parts in zip(*sides)
    ]
    return dataset_of([t for t, _ in outs], ray.get([m for _, m in outs]))


def to_table(ds: ray.data.Dataset) -> pa.Table:
    """The rows of a ``map_buckets`` output as one Arrow table, its block
    refs read from its plan (``udaf.block_refs``: no executor run). Its
    0-row blocks keep their types, so with every bucket empty the table
    still has the bucket output's columns, where ``Dataset.to_pandas()``
    would give a DataFrame with none."""
    return pa.concat_tables(ray.get(list(block_refs(ds))))


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
    prep: Callable[[pa.Table], pa.Table] | None = None,
) -> ray.data.Dataset:
    """``aggregate_table(keys, aggs)`` of ``ds`` (of ``prep`` of its rows,
    if given: a per-row map run in the split task before the combine, so a
    bare parquet read still reaches the exchange as parquet runs), then
    ``then`` of it per bucket if given (a filter, select or lookup that
    must see every row of a key): each input unit aggregated in its split
    task, one hash exchange of those partials on ``keys`` into
    ``udaf.cpu_units(rows)`` buckets (``rows``: an input row count such as
    a parquet footer's, or None), and per bucket one Arrow group-by that
    merges them. Every output block, a 0-row one too, has the keys' and
    aggregates' types."""
    merge = {name: (name, _MERGE[fn]) for name, (_, fn) in aggs.items()}

    def combine(t: pa.Table) -> pa.Table:
        return aggregate_table(t if prep is None else prep(t), keys, aggs)

    def bucket(t: pa.Table) -> pa.Table:
        out = aggregate_table(t, keys, merge)
        return out if then is None else then(out)

    return map_buckets(
        bucket, hash_partition(input_units(ds), keys, cpu_units(rows), combine=combine)
    )
