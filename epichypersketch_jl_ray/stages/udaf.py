"""Generic UDAF harness for mergeable sketches.

The reference's only distribution mechanism is ONE shared mutable
CountMinSketch accumulated across sequentially-processed partitions
(/root/reference/src/partition.jl:148,204-214,307-336). Here that becomes the
pattern of one partial state per unit of input and an associative merge
(SURVEY.md §2.4 A2). A partial is made by one plain Ray task per unit, which
folds the unit's ``batch_size``-row slices with fold_partials into ONE
state. A unit is one of two shapes:

    Dataset blocks (sketch_dataset, the n-gram and motif counts):
      fold_blocks: one task per block ref, streamed from
      iter_internal_ref_bundles; the task cuts its block into slices
    parquet file slices (the web builds, checkpoint.build_checkpointed):
      fold_file_slice: one task per file, or per contiguous slice of a
      file (fold_parquet_part), reading only the needed row groups
    → the tasks' state blocks → merge_state_refs: remote k-way merges,
      then ONE driver merge_many → one merged sketch, broadcast via
      ray.put for any later pass
      → select_blocks: a CMS query's select, one task per block or
        block_groups run, against the merged sketch's at_least(min_count)
        view
      → exact_recount: the select blocks' refs and summed row count; the
        survivors recounted exactly

These folds are the reference's one-CMS-per-partition count pass, and the
select tasks its make_selection pass, without a Ray Data operator.

Because every sketch's ``merge`` is associative + commutative, Ray's
nondeterministic block order cannot change the merged state (asserted by
randomized merge-order tests). No shuffle is needed at any point — partial
states are small (sparse COO / registers / compactors), which is the whole
point of sketching 100 TB. The unit boundaries do show in the few sketches
whose state depends on how the input was cut (KLL and t-digest
compaction); their answers stay within the published bounds.

This module is the only one that knows how a partial travels between
operators: a one-row table whose single ``state`` column holds the state's
``to_bytes()`` as large_binary. Builders return states, never tables.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable

import pyarrow as pa
import ray

from epichypersketch_jl_ray.state.base import MergeableSketch

# Each remote merge task takes at least this many state blocks; at most
# MERGE_FANOUT**2 blocks reach the driver's final merge_many.
MERGE_FANOUT = 8


def _state_table(states: list[MergeableSketch]) -> pa.Table:
    return pa.table({"state": pa.array([s.to_bytes() for s in states], type=pa.large_binary())})


def _sketches_from_table(tbl: pa.Table, cls: type[MergeableSketch]) -> list[MergeableSketch]:
    """Deserialize every state row of a state block (none for a 0-row one).

    Callers merge the returned list with ONE ``merge_many`` call rather than
    folding pairwise: for concatenate-then-sort merges (sparse CountMin COO)
    a pairwise fold re-sorts the growing accumulator per input — O(k·N log N)
    across k states — where a single merge_many is one O(N log N) pass.
    """
    return [cls.from_bytes(v.as_py()) for v in tbl["state"]]


def fold_partials(
    tables: Iterable[pa.Table], make_partial: Callable[[pa.Table], MergeableSketch]
) -> MergeableSketch | None:
    """ONE state for a stream of tables (None for an empty stream).

    ``make_partial`` runs per table, and the partials are folded in
    ``merge_many`` groups of ``MERGE_FANOUT``, so at most
    ``MERGE_FANOUT + 1`` states are alive however long the stream is (a
    partial can be a whole corpus-sized Bloom filter), and the COO CountMin
    accumulator is re-sorted once per group, not once per table. A single
    table's state is returned as is (``merge_many([])`` still re-sorts a COO
    CountMin). The fold of every task: a Dataset block (``fold_blocks``) and
    a file slice (``fold_parquet_part``).
    """
    states: list[MergeableSketch] = []
    for tbl in tables:
        states.append(make_partial(tbl))
        if len(states) > MERGE_FANOUT:
            states = [states[0].merge_many(states[1:])]
    if not states:
        return None
    return states[0].merge_many(states[1:]) if len(states) > 1 else states[0]


def block_refs(ds) -> Iterable:
    """Object refs to the blocks of a Dataset, as its execution yields them
    (the bytes stay in the object store)."""
    return (ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs)


def block_groups(ds, min_rows: int) -> Iterable[list]:
    """Object refs to the blocks of a Dataset, as its execution yields them,
    in lists of consecutive blocks holding at least ``min_rows`` rows each
    (the last list may hold fewer): units for a task whose slices should
    span blocks however finely the read cut the input."""
    group, rows = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            group.append(ref)
            rows += meta.num_rows
            if rows >= min_rows:
                yield group
                group, rows = [], 0
    if group:
        yield group


def block_slices(block, batch_size: int | Callable[[pa.Table], int]) -> list[pa.Table]:
    """A Dataset block (Arrow or pandas) as consecutive Arrow slices of
    ``batch_size`` rows, or of ``batch_size(block table)`` rows; a 0-row
    block is its own one slice."""
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    if not tbl.num_rows:
        return [tbl]
    rows = batch_size(tbl) if callable(batch_size) else batch_size
    return [tbl.slice(i, rows) for i in range(0, tbl.num_rows, rows)]


@ray.remote
def _fold_block(block, make_partial, batch_size) -> pa.Table:
    """State block of one Dataset block: its slices folded into one state
    (no state for a 0-row block)."""
    slices = block_slices(block, batch_size)
    return _state_table([fold_partials(slices, make_partial)] if slices[0].num_rows else [])


def fold_blocks(
    blocks: Iterable,
    make_partial: Callable[[pa.Table], MergeableSketch],
    cls: type[MergeableSketch],
    *,
    batch_size: int | Callable[[pa.Table], int],
) -> MergeableSketch:
    """ONE sketch of Dataset blocks: one Ray task per block ref folds the
    block's ``block_slices`` with ``fold_partials``, and the task outputs
    go through ``merge_state_refs``. A task is submitted as soon as its
    block ref arrives, so a streamed Dataset's read overlaps the fold."""
    return merge_state_refs(
        [_fold_block.remote(b, make_partial, batch_size) for b in blocks], cls
    )


def fold_parquet_part(
    pf,
    part: int,
    parts: int,
    make_partial: Callable[[pa.Table], MergeableSketch],
    batch_size: int,
    columns: list[str] | None,
) -> MergeableSketch:
    """One state for slice ``part`` of ``parts`` of an open
    ``pyarrow.parquet.ParquetFile``: the contiguous rows
    ``[n * part // parts, n * (part + 1) // parts)``, n being the footer's
    row count, so the slices of a file cover each row exactly once. The one
    file fold of both web build paths: the ``fold_file_slice`` task and
    ``checkpoint.build_checkpointed`` (one task per whole file).

    Only the row groups that overlap the slice are read, as
    ``batch_size``-row batches of ``columns`` (None: every column); rows
    outside the slice are cut off zero-copy, and the batches are folded by
    ``fold_partials``. A 0-row slice (an empty file) gives ``make_partial``
    of an empty table.
    """
    meta = pf.metadata
    n = meta.num_rows
    start, stop = n * part // parts, n * (part + 1) // parts
    # first row of each row group, and one past the last row
    n_groups = meta.num_row_groups
    bounds = list(accumulate((meta.row_group(i).num_rows for i in range(n_groups)), initial=0))
    groups = [i for i in range(n_groups) if bounds[i] < stop and bounds[i + 1] > start]

    def tables():
        pos = bounds[groups[0]]  # file row of the next batch's first row
        for b in pf.iter_batches(batch_size=batch_size, row_groups=groups, columns=columns):
            lo, hi = max(start - pos, 0), min(stop - pos, b.num_rows)
            pos += b.num_rows
            if hi > lo:
                yield pa.Table.from_batches([b]).slice(lo, hi - lo)
            if pos >= stop:
                break

    state = fold_partials(tables(), make_partial) if groups else None
    if state is None:
        schema = pf.schema_arrow
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        return make_partial(schema.empty_table())
    return state


@ray.remote
def fold_file_slice(path: str, part: int, parts: int, make_partial, batch_size, columns):
    """Ray task: the state block of slice ``part`` of ``parts`` of one
    parquet file (``fold_parquet_part``), for ``merge_state_refs``."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    return _state_table([fold_parquet_part(pf, part, parts, make_partial, batch_size, columns)])


@ray.remote
def _merge_blocks(cls: type[MergeableSketch], *blocks) -> pa.Table:
    sketches = [sk for blk in blocks for sk in _sketches_from_table(blk, cls)]
    if not sketches:  # all-empty blocks
        return _state_table([])
    return _state_table([sketches[0].merge_many(sketches[1:])])


def merge_state_refs(refs: list, cls: type[MergeableSketch]) -> MergeableSketch:
    """Object refs to state blocks → ONE merged sketch.

    While more than ``MERGE_FANOUT**2`` blocks remain they are reduced by
    remote k-way merge tasks (each emits one 1-row block), so the driver
    holds a bounded number of states however many partials there are (a
    state can be a corpus-sized Bloom filter); the driver finishes with one
    ``merge_many``, one linear pass rather than a pairwise fold (quadratic
    for COO-sketch merges). Block order is kept, so the merge order is the
    order of ``refs``. Raises ValueError when the blocks hold no state at
    all (an empty input). The merge of every fold and of
    ``checkpoint.build_checkpointed``'s merged blob groups.
    """
    driver_cap = MERGE_FANOUT * MERGE_FANOUT
    while len(refs) > driver_cap:
        # Adaptive group width: aim to finish in ONE remote round (each
        # extra round re-sorts and re-ships every merged state), but cap
        # at 64 states per task so worker memory stays bounded by
        # 64 × the sketch's fixed geometry. A million-block run still
        # needs only ~log_64 rounds.
        group = min(64, max(MERGE_FANOUT, -(-len(refs) // driver_cap)))
        refs = [
            _merge_blocks.remote(cls, *refs[i : i + group])
            for i in range(0, len(refs), group)
        ]
    states = [sk for ref in refs for sk in _sketches_from_table(ray.get(ref), cls)]
    if not states:
        raise ValueError("no partial states to merge (empty input dataset?)")
    return states[0].merge_many(states[1:])


def tree_merge(states_ds, cls: type[MergeableSketch]) -> MergeableSketch:
    """Merge a Dataset of state blocks into one sketch (``merge_state_refs``
    over its block refs).

    Nothing in the package calls it: it is kept only because the layered
    benchmark wraps it by name as ``pipelines.webpages.tree_merge`` and
    ``pipelines.motifs.tree_merge``. The benchmark change that points
    perfbench at the fold tasks (ROADMAP direction 1) deletes it.
    """
    return merge_state_refs(list(block_refs(states_ds)), cls)


def sketch_dataset(
    ds,
    factory: Callable[[], MergeableSketch],
    update: Callable[[MergeableSketch, pa.Table], None],
    cls: type[MergeableSketch],
    *,
    batch_size: int = 4096,
) -> MergeableSketch:
    """End-to-end: dataset → one fold task per block (``fold_blocks``, one
    partial per ``batch_size``-row slice) → merge → sketch.

    ``factory`` must be deterministic (seeded) so all workers agree on hash
    functions; ``update`` mutates the sketch with one Arrow batch.
    """

    def partial(batch: pa.Table) -> MergeableSketch:
        sk = factory()
        update(sk, batch)
        return sk

    return fold_blocks(block_refs(ds), partial, cls, batch_size=batch_size)


@ray.remote(num_returns=2)
def _select_block(make_select, view, batch_size, *blocks) -> tuple[pa.Table, int]:
    """Select output of consecutive blocks and its row count:
    ``make_select(view)`` run on the ``block_slices`` of the blocks'
    concatenation. ``view`` and the blocks are top-level arguments, so Ray
    fetches them before the task starts."""
    from ray.data.block import BlockAccessor

    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    tbl = pa.concat_tables([t for t in tables if t.num_rows] or tables[:1])
    select = make_select(view)
    out = pa.concat_tables([select(s) for s in block_slices(tbl, batch_size)])
    return out, out.num_rows


def select_blocks(
    groups: Iterable[list],
    make_select: Callable,
    view,
    *,
    batch_size: int | Callable[[pa.Table], int],
) -> tuple[list, int]:
    """The select pass of every CMS query: one Ray task per group of block
    refs (one block each, or ``block_groups``) runs ``make_select(view)``
    (a table → table select) on the group's slices. ``view`` is the merged
    sketch's ``at_least(min_count)`` view; it is ``ray.put`` once and
    handed to every task. Returns the refs to the select blocks and their
    summed row count, for ``exact_recount``."""
    view_ref = ray.put(view)
    pairs = [_select_block.remote(make_select, view_ref, batch_size, *g) for g in groups]
    return [t for t, _ in pairs], sum(ray.get([n for _, n in pairs]))


# Largest selection exact_recount recounts in the driver process; above it a
# bucket groupby recounts in parallel. Measured crossover in SCALE.md ("The
# exact-recount tail of every CMS query").
DRIVER_RECOUNT_MAX_ROWS = 200_000


def exact_recount(
    refs: list,
    n_selected: int,
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

    ``refs`` are the select blocks of ``select_blocks`` and ``n_selected``
    their summed row count. Up to ``DRIVER_RECOUNT_MAX_ROWS`` rows the
    driver fetches the blocks with ``ray.get``, casts them to ``schema``
    (an empty selection is ``schema.empty_table()``, so the typed columns
    survive) and recounts them in one call; the result is wrapped as a
    one-block Dataset. Above it the blocks become a Dataset, and a groupby
    on ``hash(key_cols) % auto_bucket_count(rows)`` sends every row of a
    key to one bucket and recounts each bucket in parallel."""
    import numpy as np
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_combine, hash_int64
    from epichypersketch_jl_ray.stages.join import auto_bucket_count

    if n_selected <= DRIVER_RECOUNT_MAX_ROWS:
        blocks = [b.cast(schema) for b in ray.get(refs) if b.num_rows]
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
        ray.data.from_arrow_refs(refs)
        .map_batches(add_bucket, batch_format="pyarrow")
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
