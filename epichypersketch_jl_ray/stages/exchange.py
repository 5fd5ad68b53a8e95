"""The engine's one hash exchange: plain Ray tasks over block refs, no Ray
Data operator.

- ``hash_partition``: one split task per input block ref
  (``num_returns=num_buckets``) stably sorts the block's rows by bucket and
  returns one slice per bucket, an empty one for a bucket the block has no
  row for. A row's bucket is ``hash_int64(key, seed=1) % num_buckets``;
  several key columns are hashed the same way and folded with
  ``hash_combine``. A bucket holds many keys, and every row of a key.
- ``map_buckets``: one task per bucket concatenates that bucket's slices
  of one side, or of two sides, and runs the caller's table function on
  them. The result is ``ray.data.from_arrow_refs`` of the task outputs:
  one block per bucket, in bucket order.

Users: the activation group-by (``sources.activation``), the three
bucketed joins (``stages.join``), the bucketed exact recount
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


@ray.remote
def _split(block, key_cols: list[str], num_buckets: int, columns: list[str] | None):
    """One slice of ``block`` (its ``columns``, None: all) per bucket: the
    block's rows stably sorted by bucket, cut at the bucket boundaries."""
    import pandas as pd
    from ray.data.block import BlockAccessor

    from epichypersketch_jl_ray.functions.hashing import hash_combine, hash_int64

    if isinstance(block, pd.DataFrame) and not len(block):
        # Ray's own conversion types a 0-row pandas block's columns as null
        tbl = pa.Table.from_pandas(block, preserve_index=False)
    else:
        tbl = BlockAccessor.for_block(block).to_arrow()
    if not tbl.num_columns:  # Ray Data's map of a 0-row block drops its columns
        return [tbl] * num_buckets if num_buckets > 1 else tbl
    if columns is not None:
        tbl = tbl.select(columns)
    h = hash_combine(
        *(
            hash_int64(tbl[c].to_numpy(zero_copy_only=False).astype(np.int64), seed=1)
            for c in key_cols
        )
    )
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(num_buckets + 1))
    tbl = tbl.take(order)
    slices = [tbl.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return slices if num_buckets > 1 else slices[0]


def hash_partition(
    blocks: Iterable, key_cols: list[str], num_buckets: int, columns: list[str] | None = None
) -> list[list]:
    """Per bucket, the refs to its slice of every block in ``blocks``
    (block refs, Arrow or pandas), in block order. A split task is
    submitted as soon as its block ref arrives, so a streamed Dataset's
    read overlaps the split."""
    split = _split.options(num_returns=num_buckets)
    splits = [split.remote(b, key_cols, num_buckets, columns) for b in blocks]
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
