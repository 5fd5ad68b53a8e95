"""Generic Ray Data UDAF harness for mergeable sketches.

The reference's only distribution mechanism is ONE shared mutable
CountMinSketch accumulated across sequentially-processed partitions
(/root/reference/src/partition.jl:148,204-214,307-336). Here that becomes the
idiomatic Ray Data pattern (SURVEY.md §2.4 A2):

    partial_states: map over batches or blocks (→ ONE partial state each)
      → tree_merge: remote k-way merges over block refs, then ONE driver
        merge_many
      → one merged sketch, broadcast via ray.put for any later pass
      → exact_recount: a CMS select's survivors recounted exactly

A partial covers one ``batch_size``-row batch, or, where the caller sized
the blocks (``per_block=True``), a whole block, like the reference's
one-CMS-per-partition count pass: the map then runs on Ray's native blocks,
so it fuses into the upstream read task, and each block's
``batch_size``-row slices are folded before the ONE serialization per
block. A parquet read with one block per file then emits one state per
file (a file above Ray's target block size, 128 MiB, can come out of the
read as several blocks, one state each).

Because every sketch's ``merge`` is associative + commutative, Ray's
nondeterministic block order cannot change the merged state (asserted by
randomized merge-order tests). No shuffle is needed at any point — partial
states are small (sparse COO / registers / compactors), which is the whole
point of sketching 100 TB.

This module is the only one that knows how a partial travels between
operators: a one-row table whose single ``state`` column holds the state's
``to_bytes()`` as large_binary. Builders return states, never tables.
"""

from __future__ import annotations

from typing import Callable, Iterable

import pyarrow as pa

from epichypersketch_jl_ray.state.base import MergeableSketch

# Each remote merge task takes at least this many state blocks; at most
# MERGE_FANOUT**2 blocks reach the driver's final merge_many.
MERGE_FANOUT = 8


def _state_table(states: list[MergeableSketch]) -> pa.Table:
    return pa.table({"state": pa.array([s.to_bytes() for s in states], type=pa.large_binary())})


def _sketches_from_table(tbl, cls: type[MergeableSketch]) -> list[MergeableSketch]:
    """Deserialize every state row of a state block.

    A 0-row block holds no states. Ray passes an empty input block (the
    motif activation groupby emits some) through a ``batch_size=None`` map
    without calling it, so such a block arrives here with no ``state``
    column at all.

    Callers merge the returned list with ONE ``merge_many`` call rather than
    folding pairwise: for concatenate-then-sort merges (sparse CountMin COO)
    a pairwise fold re-sorts the growing accumulator per input — O(k·N log N)
    across k states — where a single merge_many is one O(N log N) pass.
    """
    if len(tbl) == 0:
        return []
    if not isinstance(tbl, pa.Table):  # pandas/simple-block fallback
        tbl = pa.Table.from_pandas(tbl)
    col = tbl["state"]
    return [cls.from_bytes(col[i].as_py()) for i in range(len(col))]


def fold_partials(
    batches: Iterable[pa.Table],
    make_partial: Callable[[pa.Table], MergeableSketch],
    schema: pa.Schema,
) -> MergeableSketch:
    """One state for a run of Arrow batches: ``make_partial`` per batch,
    folded in ``merge_many`` groups of ``MERGE_FANOUT``, so at most
    ``MERGE_FANOUT + 1`` states are alive however many batches the run has
    (a partial can be a whole corpus-sized Bloom filter), and the COO
    CountMin accumulator is re-sorted once per group, not once per batch.
    A single batch's state is returned as is (``merge_many([])`` still
    re-sorts a COO CountMin). With no batches at all the state is
    ``make_partial`` of an empty table of ``schema``.

    The fold behind both build paths: ``partial_states`` (one block's
    slices) and ``checkpoint.build_checkpointed`` (one file's batches).
    """
    parts: list[MergeableSketch] = []
    for batch in batches:
        parts.append(make_partial(batch))
        if len(parts) > MERGE_FANOUT:
            parts = [parts[0].merge_many(parts[1:])]
    if not parts:
        return make_partial(schema.empty_table())
    return parts[0].merge_many(parts[1:]) if len(parts) > 1 else parts[0]


def partial_states(
    ds,
    make_partial: Callable[[pa.Table], MergeableSketch],
    *,
    batch_size: int | None,
    per_block: bool = False,
):
    """Dataset of serialized partial states.

    By default Ray cuts ``ds`` into ``batch_size``-row batches (bundling
    blocks smaller than that) and each batch becomes one state
    (``batch_size=None``: one state per block). With ``per_block=True`` the
    map takes Ray's native blocks, so it fuses into an unsplit upstream
    read, and each non-empty block becomes ONE state: ``make_partial`` sees
    the block's zero-copy ``batch_size``-row slices, which ``fold_partials``
    folds (at most ``MERGE_FANOUT + 1`` states alive) before the one
    serialization. That pays only where the caller sized the blocks, e.g.
    one block per file of at least ``batch_size`` rows; over small blocks
    it makes more tasks and states than the bundled per-batch map.

    Ray passes an empty block on without calling the map. The Ray operator
    is named after ``make_partial`` (``MapBatches(<its name or class>)``)
    so per-operator stats stay attributable.
    """

    def partial(block: pa.Table) -> pa.Table:
        step = batch_size or block.num_rows
        slices = (block.slice(i, step) for i in range(0, block.num_rows, step))
        return _state_table([fold_partials(slices, make_partial, block.schema)])

    partial.__name__ = getattr(make_partial, "__name__", type(make_partial).__name__)
    return ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None if per_block else batch_size
    )


def _merge_blocks(cls: type[MergeableSketch], *blocks) -> pa.Table:
    sketches = [sk for blk in blocks for sk in _sketches_from_table(blk, cls)]
    if not sketches:  # all-empty blocks
        return _state_table([])
    return _state_table([sketches[0].merge_many(sketches[1:])])


def merge_state_refs(refs: list, cls: type[MergeableSketch]) -> list[MergeableSketch]:
    """Object refs to state blocks → at most ``MERGE_FANOUT**2`` states on
    the driver, for the caller's one final ``merge_many``.

    While more than ``MERGE_FANOUT**2`` blocks remain they are reduced by
    remote k-way merge tasks (each emits one 1-row block), so the driver
    holds a bounded number of states however many partials there are (a
    state can be a corpus-sized Bloom filter). Block order is kept, so the
    merge order is the order of ``refs``. Shared by ``tree_merge`` and
    ``checkpoint.build_checkpointed``.
    """
    import ray

    merge_blocks = ray.remote(_merge_blocks)
    driver_cap = MERGE_FANOUT * MERGE_FANOUT
    while len(refs) > driver_cap:
        # Adaptive group width: aim to finish in ONE remote round (each
        # extra round re-sorts and re-ships every merged state), but cap
        # at 64 states per task so worker memory stays bounded by
        # 64 × the sketch's fixed geometry. A million-block run still
        # needs only ~log_64 rounds.
        group = min(64, max(MERGE_FANOUT, -(-len(refs) // driver_cap)))
        refs = [
            merge_blocks.remote(cls, *refs[i : i + group])
            for i in range(0, len(refs), group)
        ]
    return [sk for ref in refs for sk in _sketches_from_table(ray.get(ref), cls)]


def tree_merge(states_ds, cls: type[MergeableSketch]) -> MergeableSketch:
    """Merge a Dataset of serialized partial states into one sketch.

    Sized from the actual block count, so the 100 TB case needs no manual
    tuning: the dataset streams once, the driver collects only object REFS
    to the state blocks (``iter_internal_ref_bundles`` — bytes stay in the
    object store), ``merge_state_refs`` reduces them to at most
    ``MERGE_FANOUT**2`` states (asserted by a forced-10k-partial unit test),
    and the driver combines those with a single ``merge_many`` — one linear
    pass rather than a pairwise fold (which is quadratic for COO-sketch
    merges).
    """
    refs = [
        ref
        for bundle in states_ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    sketches = merge_state_refs(refs, cls)
    if not sketches:
        raise ValueError("no partial states to merge (empty input dataset?)")
    return sketches[0].merge_many(sketches[1:])


def sketch_dataset(
    ds,
    factory: Callable[[], MergeableSketch],
    update: Callable[[MergeableSketch, pa.Table], None],
    cls: type[MergeableSketch],
    *,
    batch_size: int = 4096,
) -> MergeableSketch:
    """End-to-end: dataset → per-batch partials → tree merge → sketch.

    ``factory`` must be deterministic (seeded) so all workers agree on hash
    functions; ``update`` mutates the sketch with one Arrow batch.
    """

    def partial(batch: pa.Table) -> MergeableSketch:
        sk = factory()
        update(sk, batch)
        return sk

    return tree_merge(partial_states(ds, partial, batch_size=batch_size), cls)


# Largest selection exact_recount recounts in the driver process; above it a
# bucket groupby recounts in parallel. Measured crossover in SCALE.md ("The
# exact-recount tail of every CMS query").
DRIVER_RECOUNT_MAX_ROWS = 200_000


def exact_recount(
    selected,
    recount: Callable[[pa.Table], pa.Table],
    *,
    schema: pa.Schema,
    key_cols: list[str],
):
    """Exact-recount tail of every CMS select (count → select → recount).

    A CountMin never undercounts, so a select against ``min_count`` keeps a
    superset of the true survivors. The caller's ``recount`` (table →
    table) counts each key exactly over the rows it is given, drops keys
    below ``min_count`` and writes the exact count; every row of a key
    reaches the same ``recount`` call. The tail runs at selection scale,
    never over the corpus.

    ``selected`` is materialized, so its row count is block metadata. Up to
    ``DRIVER_RECOUNT_MAX_ROWS`` rows the driver fetches the blocks, casts
    them to ``schema`` (an empty selection is ``schema.empty_table()``, so
    the typed columns survive) and recounts them in one call. Above it a
    groupby on ``hash(key_cols) % auto_bucket_count(rows)`` sends every row
    of a key to one bucket and recounts each bucket in parallel."""
    import numpy as np
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_combine, hash_int64
    from epichypersketch_jl_ray.stages.join import auto_bucket_count

    n_selected = selected.count()
    if n_selected <= DRIVER_RECOUNT_MAX_ROWS:
        # 0-row blocks carry no schema
        blocks = [b.cast(schema) for b in ray.get(selected.to_arrow_refs()) if b.num_rows]
        tbl = pa.concat_tables(blocks) if blocks else schema.empty_table()
        return ray.data.from_arrow(recount(tbl))

    num_buckets = auto_bucket_count(n_selected)

    def add_bucket(batch: pa.Table) -> pa.Table:
        hs = [
            hash_int64(batch[c].to_numpy(zero_copy_only=False).astype(np.int64), seed=11)
            for c in key_cols
        ]
        h = hs[0] if len(hs) == 1 else hash_combine(*hs)
        bucket = (h % np.uint64(num_buckets)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket, pa.int64()))

    def per_bucket(batch: pa.Table) -> pa.Table:
        return recount(batch.drop_columns(["bucket"]))

    return (
        selected.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


# worker-local broadcast cache: since the CM01 wire format, ray.get of a
# CountMin(-containing) object DECODES the state (allocating fresh arrays)
# on every call instead of returning zero-copy plasma views — a per-batch
# ray.get in a pass-2 stage re-paid that decode per batch (measured 40x on
# the sf0.1 k=4 motif select: 0.5 s -> 29 s). Memoize the deserialized
# object per worker process, keyed by the ref. Bounded LRU: iterative
# engines (PageRank) broadcast a fresh node-scale vector per iteration,
# and an unbounded cache would pin every iteration's vector in every
# long-lived worker for the whole session.
from collections import OrderedDict

_BROADCAST_CACHE: OrderedDict = OrderedDict()
_BROADCAST_CACHE_MAX = 32


def broadcast_get(ref):
    """ray.get memoized per worker process — use for every per-batch read of
    a ray.put sketch/state broadcast (plain numpy broadcasts stay zero-copy
    through vanilla ray.get and don't need this). The memo is a small LRU;
    callers that broadcast a sequence of one-shot values (one per iteration)
    should also broadcast_evict the superseded ref."""
    import ray

    key = ref.hex() if hasattr(ref, "hex") else ref
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE.move_to_end(key)
        return _BROADCAST_CACHE[key]
    value = ray.get(ref)
    _BROADCAST_CACHE[key] = value
    while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.popitem(last=False)
    return value


def broadcast_evict(ref) -> None:
    """Drop a broadcast entry from THIS process' cache. Worker processes
    evict lazily via the LRU bound; call this on the driver (and in stages
    that know a ref is superseded) for deterministic release of node-scale
    one-iteration values."""
    key = ref.hex() if hasattr(ref, "hex") else ref
    _BROADCAST_CACHE.pop(key, None)
