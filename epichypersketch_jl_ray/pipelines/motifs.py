"""Motif enumeration pipelines (reference obtain_enriched_configurations,
/root/reference/src/count_cpu_extract.jl:143-189) over lineitem-derived
activation sequences.

Sequence model: one sequence per order (data_index = l_orderkey), features =
supplier keys, contribution = quantity, position = line number (conv case).
This is the faithful translation of the reference's ActivationDict semantics
onto a normalized relational input — every C(len, k) slot combination of every
sequence is CMS-counted, then combinations whose estimate >= min_count are
re-emitted one row per occurrence with summed contribution
(/root/reference/src/count_cpu_extract.jl:3-37).

Exactness at ANY scale (round-4 change): CMS never underestimates, so the
selected set is always a SUPERSET of the true min_count survivors; a final
survivor-scale exact-verify recounts each selected combination over the
pass-2 OUTPUT (hundreds to tens of thousands of rows, never the corpus; the
shared tail of every CMS query, stages/udaf.exact_recount), drops false
survivors and replaces the estimate with the exact count. This
"sketch-prune + exact-verify" shape (the same pattern as the dedup verify
tails) makes the pipeline exact regardless of corpus size: a 10x-gate-scale
sweep caught the pure-CMS version emitting 6/227/91 inflated
rows at sf0.1 — the birthday-collision probability (N/cols)^rows grows with
the distinct-combination count N, so no fixed geometry stays collision-free.
The CMS still does all the pruning work (the verify pass touches only what
the sketch let through); at 100 TB the reference's default delta/epsilon
(/root/reference/src/EpicHyperSketch.jl:14-16) sizes the sketch and the
verify tail still guarantees exact output.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.activation import activation_from_table
from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.stages.motifs import MotifCells, MotifSelector
from epichypersketch_jl_ray.stages.udaf import (
    block_refs,
    count_at_least,
    count_totals,
    exact_recount,
    select_blocks,
    tree_merge,  # noqa: F401  (perfbench/motifs.py wraps pipelines.motifs.tree_merge)
)
from epichypersketch_jl_ray.state.countmin import CountMin

# collision-free-at-test-scale sketch geometry (see module docstring)
ORACLE_DELTA = 9e-3  # 5 rows
ORACLE_EPSILON = 3.24e-7  # 8,389,759 cols: 5 x 8,389,759 = 41.9 M cells
MOTIF_SEED = 20260817


def _slice_rows(
    tbl: pa.Table,
    *,
    batch_size: int | str,
    motif_size: int,
    conv: bool,
    delta: float,
    epsilon: float,
    max_active_len: int,
) -> int:
    """Rows per slice of an activation block (``udaf.block_slices``):
    ``batch_size``, or with ``":auto"`` sized from the longest sequence in
    the block, clipped to ``max_active_len``: the reference's
    get_max_active_len -> batch-size chain (reference src/record.jl:58-62).
    The cap is a truncation bound; sizing C(cap, k) when real rows are ~7
    long would make k=4/5 batches of 10-67 rows."""
    if batch_size != ":auto":
        return batch_size
    from epichypersketch_jl_ray.memory import calculate_optimal_batch_size

    longest = int(np.max(np.asarray(tbl["features"].combine_chunks().value_lengths())))
    return calculate_optimal_batch_size(
        max(1, min(longest, max_active_len)),
        motif_size,
        conv=conv,
        delta=delta,
        epsilon=epsilon,
    )


def motif_pipeline(
    activation: ray.data.Dataset,
    *,
    motif_size: int = 3,
    min_count: int = 3,
    conv: bool = False,
    filter_len: int = 0,
    delta: float = ORACLE_DELTA,
    epsilon: float = ORACLE_EPSILON,
    seed: int = MOTIF_SEED,
    max_active_len: int = 64,
    batch_size: int | str = 2048,
) -> ray.data.Dataset:
    """count (pass 1) → threshold sum → select+extract (pass 2) → exact
    recount, as one Ray task graph that the driver submits at once.

    Both passes are plain Ray tasks over the activation's block refs, one
    task per block, read from its plan (``udaf.block_refs``: the bucket
    refs of ``activation_from_table``, with no Ray Data executor run), so
    the activation's blocks are the unit of parallelism
    (``activation_from_table`` makes a multiple of the cluster's CPU
    count) and stay in the object store between the passes, as the
    reference keeps its Records alive across count!/make_selection!
    (reference src/count_gpu_extract.jl:37-53):

    - count: ``udaf.count_at_least`` hashes each block's slices into raw
      CountMin cell ids (``MotifCells``) and cuts them into one flat-id
      range per CPU; one task per range sorts it once and keeps the cells
      >= min_count, so no sketch is built, merged or broadcast;
    - select: ``udaf.select_blocks`` gives each block's select task the
      range sums' refs; the task builds the ``at_least(min_count)`` view
      and runs ``MotifSelector`` on the block's slices against it.

    The driver waits only for the count's totals (``udaf.count_totals``:
    the truncated rows, warned about) and the select row counts; the
    select blocks' refs go to ``udaf.exact_recount``.

    ``batch_size`` bounds the rows the enumeration sees at once;
    ``":auto"`` sizes each block's slices from the enumeration working set
    of its longest sequence — C(len, motif_size) per-row cost against the
    reference's 4 GB × 0.8 budget and [10, 10000] clamps
    (memory.calculate_optimal_batch_size, mirroring
    reference src/memory.jl:97-148) — so long sequences get small
    batches. The merged CountMin cells are integer sums, so neither the
    batching nor the blocks change the output. Raises ValueError when the
    activation holds no row.
    """
    blocks = list(block_refs(activation))
    kwargs = dict(
        motif_size=motif_size,
        conv=conv,
        filter_len=filter_len,
        max_active_len=max_active_len,
    )
    slice_rows = functools.partial(
        _slice_rows,
        batch_size=batch_size,
        motif_size=motif_size,
        conv=conv,
        delta=delta,
        epsilon=epsilon,
        max_active_len=max_active_len,
    )
    hash_width = 2 * motif_size - 1 if conv else motif_size
    geometry = CountMin(hash_width, delta=delta, epsilon=epsilon, seed=seed)
    # only cells >= min_count can pass the select, so only they are kept
    counted = count_at_least(
        blocks, MotifCells(geometry, **kwargs), geometry, batch_size=slice_rows, t=min_count
    )
    selector = functools.partial(MotifSelector, min_count=min_count, **kwargs)
    refs, counts = select_blocks(
        [[b] for b in blocks], selector, geometry, counted, batch_size=slice_rows
    )
    _, truncated = count_totals(counted[1])
    if truncated:
        import logging

        logging.getLogger(__name__).warning(
            "motif_pipeline: %d sequences truncated to max_active_len=%d",
            truncated,
            max_active_len,
        )
    n_selected = sum(ray.get(counts))
    key_cols = [f"m{i + 1}" for i in range(motif_size)]
    schema_fields: list[tuple[str, pa.DataType]] = [(c, pa.int32()) for c in key_cols]
    if conv:
        d_cols = [f"d{i + 1}{i + 2}" for i in range(motif_size - 1)]
        key_cols += d_cols
        schema_fields += [(c, pa.int32()) for c in d_cols]
        schema_fields += [("start", pa.int32()), ("end", pa.int32())]
    schema_fields += [
        ("data_index", pa.int64()),
        ("contribution", pa.float64()),
        ("estimate", pa.int64()),
    ]
    return exact_recount(
        refs,
        n_selected,
        lambda tbl: _recount(tbl, key_cols, min_count),
        schema=pa.schema(schema_fields),
        key_cols=key_cols,
    )


def _recount(tbl: pa.Table, key_cols: list[str], min_count: int) -> pa.Table:
    """Rows of ``tbl`` whose key combination occurs at least ``min_count``
    times in it, with ``estimate`` set to that exact count."""
    keys = np.stack(
        [tbl[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in key_cols], axis=1
    )
    _, inv, cnt = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    exact = cnt[inv]
    fixed = tbl.set_column(
        tbl.schema.get_field_index("estimate"),
        "estimate",
        pa.array(exact.astype(np.int64), pa.int64()),
    )
    return fixed.filter(pa.array(exact >= min_count))


# session-level cache of activation datasets: the driver and bench call
# several motif queries in one Ray session, and the bucket exchange that
# reads lineitem and builds the sequences is a quarter of an uncached
# motifs_ordinary (0.31 of 1.16 s at sf0.1, 0.08 of 0.35 s at sf0.01, 4
# CPUs), so building it once per (sf_dir, conv) saves that on every
# further query. activation_from_table already returns a materialized
# Dataset of its bucket refs (exchange.map_buckets), so caching it pins
# those blocks in the object store for the session (small relative to the
# store), and motif_pipeline reads their refs from its plan.
_ACTIVATION_CACHE: dict = {}


def lineitem_activation(sf_dir: str, *, conv: bool) -> ray.data.Dataset:
    key = (sf_dir, conv)
    if key in _ACTIVATION_CACHE:
        return _ACTIVATION_CACHE[key]
    cols = ["l_orderkey", "l_suppkey", "l_quantity"] + (["l_linenumber"] if conv else [])
    li = read_table(sf_dir, "lineitem", columns=cols)
    from epichypersketch_jl_ray.sources.tables import table_rows

    act = activation_from_table(
        li,
        key_col="l_orderkey",
        feature_col="l_suppkey",
        contribution_col="l_quantity",
        position_col="l_linenumber" if conv else None,
        size_hint_rows=table_rows(sf_dir, "lineitem"),
    )
    _ACTIVATION_CACHE[key] = act
    return act


def motifs_ordinary(sf_dir: str, *, motif_size: int = 3, min_count: int = 3) -> ray.data.Dataset:
    """Ordinary-features case (reference OrdinaryFeatures,
    /root/reference/src/types.jl:10): which supplier k-sets recur across
    orders at least min_count times, one output row per occurrence."""
    return motif_pipeline(
        lineitem_activation(sf_dir, conv=False),
        motif_size=motif_size,
        min_count=min_count,
        conv=False,
    )


def motifs_conv(
    sf_dir: str, *, motif_size: int = 3, min_count: int = 2, filter_len: int = 2
) -> ray.data.Dataset:
    """Convolution case (reference ConvolutionFeature,
    /root/reference/src/types.jl:11): position-aware motifs with inter-feature
    gaps; gap = pos2-pos1-filter_len, overlaps rejected
    (/root/reference/src/count_cpu.jl:47-53)."""
    return motif_pipeline(
        lineitem_activation(sf_dir, conv=True),
        motif_size=motif_size,
        min_count=min_count,
        conv=True,
        filter_len=filter_len,
    )


def motifs_ordinary_k4(sf_dir: str, *, min_count: int = 2) -> ray.data.Dataset:
    """Higher-order (k=4) motif enumeration — the reference supports any
    motif_size (/root/reference/test/test_higher_order_motifs.jl); this
    exercises the generic C(len,k) path under the driver oracle, not just
    pytest."""
    return motif_pipeline(
        lineitem_activation(sf_dir, conv=False),
        motif_size=4,
        min_count=min_count,
        conv=False,
        # C(len,4) is ~15x the k=3 working set per row: let the reference's
        # budget formula size the batch instead of the fixed default
        batch_size=":auto",
    )


def motifs_ordinary_k4_sql(min_count: int = 2) -> str:
    return motifs_ordinary_sql(motif_size=4, min_count=min_count)


def motifs_ordinary_k5(sf_dir: str, *, min_count: int = 2) -> ray.data.Dataset:
    """k=5 motifs — closes the reference's higher-order test surface
    (/root/reference/test/test_higher_order_motifs.jl covers k=4 AND k=5)
    under the driver oracle, same generic C(len,k) path."""
    return motif_pipeline(
        lineitem_activation(sf_dir, conv=False),
        motif_size=5,
        min_count=min_count,
        conv=False,
        batch_size=":auto",
    )


def motifs_ordinary_k5_sql(min_count: int = 2) -> str:
    return motifs_ordinary_sql(motif_size=5, min_count=min_count)


def motifs_ordinary_sql(motif_size: int = 3, min_count: int = 3) -> str:
    """DuckDB oracle: exact brute-force slot-combination enumeration for ANY
    motif_size — the SQL analogue of the reference's verify_ground_truth
    (/root/reference/test/test_large_example_ordinary.jl:118-169). The
    k-way self-join chain is generated; CTEs are MATERIALIZED because
    DuckDB inlines plain CTEs into every join side (re-evaluating the
    window per side — 100x slower at k=4)."""
    assert motif_size >= 2
    aliases = [f"t{i}" for i in range(motif_size)]
    m_cols = ", ".join(
        f"{a}.feature AS m{i + 1}" for i, a in enumerate(aliases)
    )
    contribution = " + ".join(f"{a}.contribution" for a in aliases)
    joins = "".join(
        f"\n       JOIN f {aliases[i]} ON {aliases[i]}.data_index = t0.data_index"
        f" AND {aliases[i]}.rn > {aliases[i - 1]}.rn"
        for i in range(1, motif_size)
    )
    m_list = ", ".join(f"m{i + 1}" for i in range(motif_size))
    c_m_list = ", ".join(f"c.m{i + 1}" for i in range(motif_size))
    group_nums = ", ".join(str(i + 1) for i in range(motif_size))
    return f"""
WITH f AS MATERIALIZED (
  SELECT l_orderkey AS data_index, CAST(l_suppkey AS INTEGER) AS feature,
         l_quantity AS contribution,
         ROW_NUMBER() OVER (PARTITION BY l_orderkey ORDER BY l_suppkey, l_quantity) AS rn
  FROM lineitem),
c AS MATERIALIZED (
  SELECT t0.data_index, {m_cols},
         {contribution} AS contribution
  FROM f t0{joins}),
g AS (SELECT {m_list}, COUNT(*) AS cnt FROM c GROUP BY {group_nums})
SELECT {c_m_list}, c.data_index, c.contribution, g.cnt AS estimate
FROM c JOIN g USING ({m_list})
WHERE g.cnt >= {min_count}
"""


def motifs_conv_sql(motif_size: int = 3, min_count: int = 2, filter_len: int = 2) -> str:
    """Generated k-way conv oracle (any motif_size): m1..mk, d12..d(k-1)k,
    start/end, with the CPU gap semantics (d = p2-p1-filter_len, reject
    negative gaps)."""
    assert motif_size >= 2
    k = motif_size
    aliases = [f"t{i}" for i in range(k)]
    m_cols = ", ".join(f"{a}.feature AS m{i + 1}" for i, a in enumerate(aliases))
    d_cols = ", ".join(
        f"CAST({aliases[i + 1]}.position - {aliases[i]}.position - {filter_len} AS INTEGER)"
        f" AS d{i + 1}{i + 2}"
        for i in range(k - 1)
    )
    contribution = " + ".join(f"{a}.contribution" for a in aliases)
    joins = "".join(
        f"\n       JOIN f {aliases[i]} ON {aliases[i]}.data_index = t0.data_index"
        f" AND {aliases[i]}.rn > {aliases[i - 1]}.rn"
        for i in range(1, k)
    )
    overlap = " AND ".join(
        f"{aliases[i + 1]}.position - {aliases[i]}.position - {filter_len} >= 0"
        for i in range(k - 1)
    )
    key_list = ", ".join([f"m{i + 1}" for i in range(k)] + [f"d{i + 1}{i + 2}" for i in range(k - 1)])
    c_key_list = ", ".join(
        [f"c.m{i + 1}" for i in range(k)] + [f"c.d{i + 1}{i + 2}" for i in range(k - 1)]
    )
    group_nums = ", ".join(str(i + 1) for i in range(2 * k - 1))
    return f"""
WITH f AS MATERIALIZED (
  SELECT l_orderkey AS data_index, CAST(l_suppkey AS INTEGER) AS feature,
         l_quantity AS contribution, CAST(l_linenumber AS INTEGER) AS position,
         ROW_NUMBER() OVER (PARTITION BY l_orderkey ORDER BY l_linenumber) AS rn
  FROM lineitem),
c AS MATERIALIZED (
  SELECT t0.data_index, {m_cols},
         {d_cols},
         t0.position AS start,
         CAST({aliases[-1]}.position + {filter_len} - 1 AS INTEGER) AS "end",
         {contribution} AS contribution
  FROM f t0{joins}
  WHERE {overlap}),
g AS (SELECT {key_list}, COUNT(*) AS cnt FROM c GROUP BY {group_nums})
SELECT {c_key_list}, c.start, c."end", c.data_index,
       c.contribution, g.cnt AS estimate
FROM c JOIN g USING ({key_list})
WHERE g.cnt >= {min_count}
"""


def motifs_conv_k4(sf_dir: str, *, min_count: int = 2, filter_len: int = 1) -> ray.data.Dataset:
    """Higher-order (k=4) convolution motifs — position-aware enumeration
    with three inter-feature gaps, under the driver oracle (reference
    higher-order conv tests, /root/reference/test/test_higher_order_motifs.jl)."""
    return motif_pipeline(
        lineitem_activation(sf_dir, conv=True),
        motif_size=4,
        min_count=min_count,
        conv=True,
        filter_len=filter_len,
        batch_size=":auto",
    )


def motifs_conv_k4_sql(min_count: int = 2, filter_len: int = 1) -> str:
    return motifs_conv_sql(motif_size=4, min_count=min_count, filter_len=filter_len)
