"""Generic UDAF harness for mergeable sketches.

The reference's only distribution mechanism is ONE shared mutable
CountMinSketch accumulated across sequentially-processed partitions
(/root/reference/src/partition.jl:148,204-214,307-336). Here that becomes the
pattern of one partial state per unit of input and an associative merge
(SURVEY.md §2.4 A2). A partial is made by one plain Ray task per unit, which
folds the unit's ``batch_size``-row slices with fold_partials into ONE
state. A unit is one of two shapes:

    Dataset blocks (sketch_dataset):
      fold_blocks: one task per block ref (block_refs: read from the plan
      of an in-memory Dataset, else streamed from its execution); the
      task cuts its block into slices
    corpus row ranges (build_web_sketches, checkpoint.build_checkpointed):
      fold_parquet_ranges: the parquet files' global row range [0, N) cut
      into cpu_units(N) contiguous ranges (row_ranges), one task per
      range; the task reads only the overlapping row groups of the files
      it touches and re-chunks them into batch_size-row tables across
      file boundaries (fold_parquet_rows). The checkpointed build runs
      the same cut and fold, and writes each range's state as a blob
    → the tasks' state blocks → merge_state_refs: remote k-way merges,
      then ONE driver merge_many → one merged sketch

A CMS query (the motif and n-gram counts) needs of its merged sketch only
the cells that reach min_count, and a cell is an integer sum, the same in
any order its inserts are added; so it builds no sketch at all. One task
graph, submitted at once, with no driver wait inside:

    Dataset blocks
      count_at_least: one _count_block task per block ref hashes its
      batch_size-row slices into raw flat CountMin cell ids (``cells``:
      CountMin.cells per slice, or key_cells of the block's keys, deduped
      across its slices), unsorted, and cuts them into S flat-id
      ranges (countmin.cut_cells; S = cluster_cpus()); S + 1 returns: the
      ranges and a small side return (n_inserts, truncated)
    → S _sum_cells tasks: each sorts one range across every block once
      and returns its cells >= min_count (countmin.sum_cells_at_least);
      one _sum_sides task sums the side returns
      → select_blocks: one select task per block or block_groups run gets
        the S range sums' refs and the totals' ref as top-level arguments
        and builds the at_least(min_count) view itself (threshold_view: the
        geometry plus merge_cells of the sums, and the merged n_inserts),
        then selects against it
      → the driver ray.gets only the totals (count_totals) and the select
        row counts; the select blocks' refs go to exact_recount, which
        recounts the survivors exactly

These count tasks are the reference's one-CMS-per-partition count pass,
and the select tasks its make_selection pass, without a Ray Data operator.

The hash exchange (stages/exchange) takes its input the same two ways
(input_units): a bare parquet read as runs of whole row groups
(ParquetRun, in row_ranges' piece format), which its split tasks read
themselves, and any other Dataset as its block refs.

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

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np
import pyarrow as pa
import ray

from epichypersketch_jl_ray.state.base import MergeableSketch

if TYPE_CHECKING:
    from epichypersketch_jl_ray.state.countmin import CountMin

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
    CountMin). The fold of every task: a Dataset block (``fold_blocks``)
    and a corpus row range (``fold_parquet_rows``).
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
    """Object refs to the blocks of a Dataset (the bytes stay in the object
    store): for a Dataset whose whole plan is one in-memory leaf (a
    ``from_arrow_refs``-style or materialized Dataset,
    ``sources.tables.leaf_refs``) its refs in order, read from the plan
    without running Ray Data's executor; for any other, as its execution
    yields them."""
    from epichypersketch_jl_ray.sources.tables import leaf_refs

    refs = leaf_refs(ds)
    if refs is not None:
        return refs
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


def _block_state(block, make_partial, batch_size) -> MergeableSketch | None:
    """One Dataset block's slices folded into one state (None for a 0-row
    block): the fold of every ``fold_blocks`` task."""
    slices = block_slices(block, batch_size)
    return fold_partials(slices, make_partial) if slices[0].num_rows else None


@ray.remote
def _fold_block(block, make_partial, batch_size) -> pa.Table:
    """State block of one Dataset block (no state for a 0-row block)."""
    state = _block_state(block, make_partial, batch_size)
    return _state_table([] if state is None else [state])


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


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster (of this machine before Ray starts:
    what the first task submission's auto-init would get). Sizes every
    per-CPU cut: ``cpu_units`` (web corpus row ranges, exchange buckets),
    threshold-merge shards, join bucket floors, graph shards."""
    import os

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def cpu_units(rows: int | None) -> int:
    """How many units to cut ``rows`` input rows into: the smallest multiple
    of ``cluster_cpus()`` that is at least ``ceil(rows / 2**16)``, capped
    at 4096 before the rounding (one per CPU when ``rows`` is None). Units
    scale with the input, and every round of one task per unit fills the
    CPUs evenly. The one cut rule of the web build's corpus row ranges and
    of every hash exchange's buckets."""
    cpus = cluster_cpus()
    units = 1 if rows is None else min(4096, max(1, -(-int(rows) // 2**16)))
    return -(-units // cpus) * cpus


@ray.remote
def _count_block(block, cells, batch_size, geometry: "CountMin", shards: int) -> list:
    """``shards + 1`` returns for one Dataset block: the raw (ids, weights)
    cells of its ``block_slices`` (``cells`` of the block's slices), cut
    into ``shards`` flat-id ranges of ``geometry`` (``countmin.cut_cells``),
    unsorted; then its side return ``[n_inserts, truncated]`` (None, and
    empty ranges, for a 0-row block)."""
    from epichypersketch_jl_ray.state.countmin import cut_cells

    slices = [s for s in block_slices(block, batch_size) if s.num_rows]
    parts, n_inserts, truncated = cells(slices) if slices else ([], 0, 0)
    ranges = cut_cells(parts, geometry.rows, geometry.cols, shards)
    return [*ranges, np.array([n_inserts, truncated], np.int64) if slices else None]


@ray.remote
def _sum_cells(t: int, *ranges) -> tuple[np.ndarray, np.ndarray]:
    """One flat-id range summed across every block, only its cells >= t."""
    from epichypersketch_jl_ray.state.countmin import sum_cells_at_least

    return sum_cells_at_least(ranges, t)


@ray.remote
def _sum_sides(*sides) -> np.ndarray | None:
    """``[n_inserts, truncated]`` summed over the count tasks' side returns
    (None when no block held a row)."""
    got = [s for s in sides if s is not None]
    return np.sum(got, axis=0) if got else None


def count_at_least(
    blocks: Iterable,
    cells: Callable[[list[pa.Table]], tuple],
    geometry: "CountMin",
    *,
    batch_size: int | Callable[[pa.Table], int],
    t: int,
) -> tuple[list, object]:
    """Submit the sharded threshold count of Dataset blocks and return at
    once, without waiting for a task: ``(sums, totals)``, the refs to the
    ``S = cluster_cpus()`` range sums, whose cells concatenated in order
    are the merged CountMin's ``at_least(t)`` cells, and the ref to the
    blocks' summed ``[n_inserts, truncated]`` (``count_totals``); both go
    to ``threshold_view``.

    ``cells`` maps the non-empty ``batch_size``-row slices of one block
    (``block_slices``) to their raw cells in ``geometry`` (a CountMin with
    no cell, the sketch's geometry and seed): ``(parts, n_inserts,
    truncated)``, ``parts`` a list of (ids, weights or None), the ids laid
    out as ``CountMin.cells`` gives them. A ``cells`` that sees the whole
    block can merge an item repeated across its slices before hashing it,
    as the n-gram count does. One task per block ref cuts those cells into
    S flat-id ranges without sorting them (it is submitted as soon as its
    block ref arrives); one task per range sorts that range across the
    blocks once and keeps its cells >= t."""
    shards = cluster_cpus()
    count = _count_block.options(num_returns=shards + 1)
    outs = [count.remote(b, cells, batch_size, geometry, shards) for b in blocks]
    sums = [_sum_cells.remote(t, *(o[s] for o in outs)) for s in range(shards)]
    return sums, _sum_sides.remote(*(o[-1] for o in outs))


def count_totals(totals) -> tuple[int, int]:
    """``(n_inserts, truncated)`` of ``count_at_least``'s totals ref.
    Raises ValueError when no block held a row (no partial state: an empty
    input)."""
    got = ray.get(totals)
    if got is None:
        raise ValueError("no partial states to merge (empty input dataset?)")
    return int(got[0]), int(got[1])


def threshold_view(
    geometry: "CountMin", sums: list[tuple[np.ndarray, np.ndarray]], totals: np.ndarray | None
) -> "CountMin":
    """The merged CountMin's ``at_least(t)`` view from ``count_at_least``'s
    resolved range sums and totals: a copy of ``geometry`` (no cell, no
    insert) with the ranges' cells, concatenated in range order (already
    sorted), put in by ``merge_cells``, and the merged ``n_inserts``. Its
    cells, ``n_inserts`` and digest are the merged sketch's ``at_least(t)``
    view's."""
    view = type(geometry).from_bytes(geometry.to_bytes())
    view.n_inserts = 0 if totals is None else int(totals[0])
    return view.merge_cells(
        np.concatenate([i for i, _ in sums]), np.concatenate([c for _, c in sums])
    )


def file_rows(files: list[str]) -> list[int]:
    """Row count of each parquet file from its FOOTER only (no column data
    read): the cheap pre-pass that cuts the corpus into row ranges (and
    sizes the web build's Bloom filter)."""
    import pyarrow.parquet as pq

    return [pq.ParquetFile(f).metadata.num_rows for f in files]


def row_ranges(
    files: list[str], file_rows: list[int], units: int
) -> list[list[tuple[str, int, int]]]:
    """The global row range ``[0, N)`` of ``files`` taken in order (``N``
    the sum of ``file_rows``, their footer row counts) cut into ``units``
    contiguous ranges ``[N * u // units, N * (u + 1) // units)``, so the
    ranges cover each row exactly once. Each range is given as its pieces:
    ``(path, lo, hi)`` for rows ``[lo, hi)`` of each file it overlaps, in
    file order; a 0-row file is in no range, and with fewer rows than units
    some ranges have no piece."""
    starts = list(accumulate(file_rows, initial=0))
    n = starts[-1]
    ranges = []
    for u in range(units):
        lo, hi = n * u // units, n * (u + 1) // units
        pieces = []
        f = bisect_right(starts, lo) - 1  # the file holding row lo
        while f < len(files) and starts[f] < hi:
            first, stop = max(lo, starts[f]), min(hi, starts[f + 1])
            if stop > first:
                pieces.append((files[f], first - starts[f], stop - starts[f]))
            f += 1
        ranges.append(pieces)
    return ranges


def _piece_batches(
    path: str, lo: int, hi: int, batch_size: int, columns: list[str] | None
) -> Iterator[pa.RecordBatch]:
    """Rows ``[lo, hi)`` of one parquet file: only the row groups that
    overlap them are read, as ``batch_size``-row batches of ``columns``
    (None: every column), and the rows outside are cut off zero-copy."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    meta = pf.metadata
    # first row of each row group, and one past the last row
    n_groups = meta.num_row_groups
    bounds = list(accumulate((meta.row_group(i).num_rows for i in range(n_groups)), initial=0))
    groups = [i for i in range(n_groups) if bounds[i] < hi and bounds[i + 1] > lo]
    if not groups:
        return
    pos = bounds[groups[0]]  # file row of the next batch's first row
    for b in pf.iter_batches(batch_size=batch_size, row_groups=groups, columns=columns):
        start, stop = max(lo - pos, 0), min(hi - pos, b.num_rows)
        pos += b.num_rows
        if stop > start:
            yield b.slice(start, stop - start)
        if pos >= hi:
            break


def parquet_tables(
    pieces: list[tuple[str, int, int]], batch_size: int, columns: list[str] | None
) -> Iterator[pa.Table]:
    """The rows of ``pieces`` (``(path, lo, hi)``, as ``row_ranges`` gives
    them) in order, re-chunked into tables of exactly ``batch_size`` rows
    across file boundaries; only the last table may be shorter. Zero-copy:
    a table that spans two read batches holds one chunk of each."""
    held: list[pa.RecordBatch] = []
    rows = 0
    for path, lo, hi in pieces:
        for b in _piece_batches(path, lo, hi, batch_size, columns):
            held.append(b)
            rows += b.num_rows
            if rows >= batch_size:  # each batch holds <= batch_size rows
                tbl = pa.Table.from_batches(held)
                yield tbl.slice(0, batch_size)
                held, rows = tbl.slice(batch_size).to_batches(), rows - batch_size
    if rows:
        yield pa.Table.from_batches(held)


class ParquetRun(NamedTuple):
    """Whole row groups of parquet files, read as one table: ``pieces`` in
    ``row_ranges``' ``(path, lo, hi)`` format, each piece's bounds on row
    group boundaries; ``columns`` the projection (None: every column)."""

    pieces: list[tuple[str, int, int]]
    columns: list[str] | None

    def read(self, columns: list[str] | None = None) -> pa.Table:
        """The run's rows as one table of ``columns`` (None: the run's own
        projection); a run with no row is its first file's typed 0-row
        table."""
        import pyarrow.parquet as pq

        columns = self.columns if columns is None else columns
        rows = sum(hi - lo for _, lo, hi in self.pieces)
        for tbl in parquet_tables(self.pieces, max(rows, 1), columns):
            return tbl
        empty = pq.read_schema(self.pieces[0][0]).empty_table()
        return empty if columns is None else empty.select(columns)


def input_units(ds) -> Iterable:
    """What the hash exchange splits ``ds`` into, one split task per unit.
    For a bare parquet read (``sources.tables.parquet_source``) the files'
    row groups, in file order, cut into ``min(row groups, cpu_units(N))``
    contiguous ``ParquetRun`` runs balanced by rows (``N`` and the group
    sizes from the footers, read once); no run splits a row group, and a
    read with no row is one 0-row run that keeps the read's columns. The
    split task reads its run itself, so no Ray Data operator runs. For any
    other Dataset, its ``block_refs``."""
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.sources.tables import parquet_source

    source = parquet_source(ds)
    if source is None:
        return block_refs(ds)
    files, columns = source
    groups = []  # (path, lo, hi) of every row group
    for path in files:
        meta = pq.ParquetFile(path).metadata
        sizes = (meta.row_group(i).num_rows for i in range(meta.num_row_groups))
        bounds = list(accumulate(sizes, initial=0))
        groups += [(path, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    starts = list(accumulate((hi - lo for _, lo, hi in groups), initial=0))
    n, runs = starts[-1], min(len(groups), cpu_units(starts[-1]))
    if not n:
        return [ParquetRun([(files[0], 0, 0)], columns)]
    # run u ends at the first group boundary at or past row n * u / runs,
    # kept far enough from its neighbours that every run has a group
    cuts = [0]
    for u in range(1, runs):
        b = bisect_left(starts, n * u / runs)
        cuts.append(min(max(b, cuts[-1] + 1), len(groups) - (runs - u)))
    cuts.append(len(groups))
    units = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = []  # one piece per file: its run's groups are consecutive
        for path, first, stop in groups[lo:hi]:
            if pieces and pieces[-1][0] == path:
                first = pieces.pop()[1]
            pieces.append((path, first, stop))
        units.append(ParquetRun(pieces, columns))
    return units


def fold_parquet_rows(
    pieces: list[tuple[str, int, int]],
    make_partial: Callable[[pa.Table], MergeableSketch],
    batch_size: int,
    columns: list[str] | None,
) -> MergeableSketch | None:
    """ONE state for the rows of ``pieces`` (None when they hold no row):
    their ``parquet_tables`` folded by ``fold_partials``. The fold of
    every corpus row range, in ``fold_parquet_ranges`` and in
    ``checkpoint.build_checkpointed``."""
    return fold_partials(parquet_tables(pieces, batch_size, columns), make_partial)


@ray.remote
def _fold_rows(pieces, make_partial, batch_size, columns) -> pa.Table:
    """State block of one corpus row range (no state for an empty one)."""
    state = fold_parquet_rows(pieces, make_partial, batch_size, columns)
    return _state_table([] if state is None else [state])


def fold_parquet_ranges(
    files: list[str],
    file_rows: list[int],
    make_partial: Callable[[pa.Table], MergeableSketch],
    cls: type[MergeableSketch],
    *,
    batch_size: int,
    columns: list[str] | None,
) -> MergeableSketch:
    """ONE sketch of parquet files (``file_rows``: their footer row
    counts): their global row range cut into ``cpu_units(N)`` contiguous
    ranges (``row_ranges``), one Ray task per range folding it with
    ``fold_parquet_rows``, and the task outputs merged by
    ``merge_state_refs`` in range order. Raises ValueError when the files
    hold no row."""
    ranges = row_ranges(files, file_rows, cpu_units(sum(file_rows)))
    refs = [_fold_rows.remote(p, make_partial, batch_size, columns) for p in ranges]
    return merge_state_refs(refs, cls)


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
    all (an empty input). The merge of every fold (the CMS queries build no
    sketch: ``count_at_least``) and of ``checkpoint.build_checkpointed``'s
    merged blob groups.
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
def _select_block(
    make_select, geometry, totals, shards: int, batch_size, *args
) -> tuple[pa.Table, int]:
    """Select output of consecutive blocks and its row count:
    ``make_select(view)`` run on the ``block_slices`` of the blocks'
    concatenation, ``view`` being the ``threshold_view`` of ``geometry``,
    the first ``shards`` arguments (the range sums) and ``totals``; the
    blocks follow. All are top-level arguments, so Ray fetches them before
    the task starts, and the task waits on no driver."""
    from ray.data.block import BlockAccessor

    view = threshold_view(geometry, args[:shards], totals)
    tables = [BlockAccessor.for_block(b).to_arrow() for b in args[shards:]]
    tbl = pa.concat_tables([t for t in tables if t.num_rows] or tables[:1])
    select = make_select(view)
    out = pa.concat_tables([select(s) for s in block_slices(tbl, batch_size)])
    return out, out.num_rows


def select_blocks(
    groups: Iterable[list],
    make_select: Callable,
    geometry: "CountMin",
    counted: tuple[list, object],
    *,
    batch_size: int | Callable[[pa.Table], int],
) -> tuple[list, list]:
    """The select pass of every CMS query: one Ray task per group of block
    refs (one block each, or ``block_groups``), submitted as the group
    arrives, runs ``make_select(view)`` (a table → table select) on the
    group's slices. ``view`` is the merged sketch's ``at_least(min_count)``
    view, which each task builds from ``geometry`` and ``count_at_least``'s
    ``(sums, totals)`` refs, ``counted``, handed over as top-level
    arguments, so the tasks can be submitted before the count has run.
    Returns the refs to the select blocks and to their row counts, for
    ``exact_recount``."""
    sums, totals = counted
    pairs = [
        _select_block.remote(make_select, geometry, totals, len(sums), batch_size, *sums, *g)
        for g in groups
    ]
    return [t for t, _ in pairs], [n for _, n in pairs]


# Largest selection exact_recount recounts in the driver process; above it
# the hash exchange's bucket tasks recount in parallel. Measured crossover
# in SCALE.md ("The exact-recount tail of every CMS query").
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
    one-block Dataset (``sources.tables.table_dataset``). Above it the
    blocks go through the hash exchange (``exchange.hash_partition`` on
    ``key_cols``, ``cpu_units(n_selected)`` buckets), which sends every row
    of a key to one bucket, and one task per bucket casts its rows to
    ``schema`` and recounts them."""
    from epichypersketch_jl_ray.sources.tables import table_dataset
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets

    if n_selected <= DRIVER_RECOUNT_MAX_ROWS:
        blocks = [b.cast(schema) for b in ray.get(refs) if b.num_rows]
        tbl = pa.concat_tables(blocks) if blocks else schema.empty_table()
        return table_dataset(recount(tbl))
    parts = hash_partition(refs, key_cols, cpu_units(n_selected))
    return map_buckets(
        lambda t: recount(t.cast(schema) if t.num_rows else schema.empty_table()), parts
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
