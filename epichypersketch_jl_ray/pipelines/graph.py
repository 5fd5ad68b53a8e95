"""Distributed PageRank over a derived link graph — the web-curation
link-analysis operator (Common Crawl ranks hosts by centrality to feed
URL/domain quality; the same shape ranks any entity graph).

No link table exists in the TPC-H-ish fixture, so the graph is DERIVED:
the customer-supplier co-purchase bipartite graph (one undirected edge per
distinct (customer, supplier) pair that shares an order), symmetrized into
two directed edges so no node dangles. Node encoding packs both partitions
into one int64 key: customers as 2*c_custkey, suppliers as 2*s_suppkey+1.

Determinism / oracle: all arithmetic is FIXED-POINT int64 —
rank starts at FP_ONE, each iteration is
``new = BASE + (85 * sum_in(rank_src // deg_src)) // 100`` —
integer sums are order-insensitive, so the distributed result is
byte-identical to the unrolled integer SQL (pagerank_sql generates one CTE
per iteration; recursive CTEs cannot aggregate over the recursive term).
Overflow bound: |rank| <= total mass = n * FP_ONE, so 85 * sum stays inside
int64 while n * FP_ONE < 2^63/85 ~ 1.1e17 — with FP_ONE = 1e9 that is 1e8
nodes; scale FP_ONE down for larger graphs.

Scale shape: one pass builds the edges (a size-gated join, then a
distinct on the hash exchange), one ``group_aggregate`` gives the node
ids and out-degrees, and the edge blocks are cut into at most one unit
per CPU. One prep task per unit resolves its edges to node indices and
sorts them by dst once; the result stays in the object store (spillable)
for every iteration. An iteration is the paper's pattern: one task per
unit returns a partial, the unit's distinct dst indices and their int64
sums, and the driver merges the partials into its node-scale vector.
Driver state is NODE-scale only (the rank/degree vectors — the
IVF-centroid bounded-driver-state pattern); a graph whose NODE table
outgrows the driver would sum the partials per dst on the hash exchange
instead — same iteration algebra.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.tables import read_table, table_rows
from epichypersketch_jl_ray.stages.exchange import group_aggregate, hash_partition, map_buckets
from epichypersketch_jl_ray.stages.join import bucketed_hash_join
from epichypersketch_jl_ray.stages.udaf import block_refs, broadcast_get, cluster_cpus, cpu_units

FP_ONE = 10**9
DAMP_NUM = 85
DAMP_DEN = 100
BASE = (FP_ONE * (DAMP_DEN - DAMP_NUM)) // DAMP_DEN
N_ITERS = 10


def _purchase_edges(sf_dir: str, *, broadcast_cap: int = 1 << 22) -> ray.data.Dataset:
    """Distinct symmetrized (src, dst) edges of the co-purchase graph.

    Size-gated join (the repo's standard switch): an orders table under
    ``broadcast_cap`` rows ships once as two sorted int64 arrays and the
    whole edge build is ONE map_batches over lineitem (plus the distinct
    hash exchange); a corpus-scale orders table goes through the bucketed
    hash join. Each batch emits its pairs pre-DEDUPED (lexsort +
    run-length), so the exchange ships per-batch-distinct rows only."""
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])

    def _distinct(src: np.ndarray, dst: np.ndarray) -> pa.Table:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(len(src), bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return pa.table({"src": pa.array(src[keep]), "dst": pa.array(dst[keep])})

    def _dedup_pairs(c: np.ndarray, s: np.ndarray) -> pa.Table:
        return _distinct(np.concatenate([c, s]), np.concatenate([s, c]))

    if table_rows(sf_dir, "orders") <= broadcast_cap:
        ok, ck = _orders_lookup(sf_dir)
        ok_ref, ck_ref = ray.put(ok), ray.put(ck)

        def to_edges_bc(batch: pa.Table) -> pa.Table:
            okeys = broadcast_get(ok_ref)
            custs = broadcast_get(ck_ref)
            lok = np.asarray(batch["l_orderkey"], dtype=np.int64)
            # inner-join semantics: drop lineitem rows whose orderkey is
            # missing (and guard the empty/out-of-range lookup, the ADVICE
            # empty-broadcast pattern) — referential inputs lose nothing
            pos = np.minimum(np.searchsorted(okeys, lok), max(len(okeys) - 1, 0))
            hit = (okeys[pos] == lok) if len(okeys) else np.zeros(len(lok), bool)
            c = custs[pos[hit]] * 2
            s = np.asarray(batch["l_suppkey"], dtype=np.int64)[hit] * 2 + 1
            return _dedup_pairs(c, s)

        paired = li.map_batches(to_edges_bc, batch_format="pyarrow")
    else:
        orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
        joined = bucketed_hash_join(
            li,
            orders,
            left_on="l_orderkey",
            right_on="o_orderkey",
            size_hint_rows=table_rows(sf_dir, "lineitem"),
        )

        def to_edges(batch: pa.Table) -> pa.Table:
            c = np.asarray(batch["o_custkey"], dtype=np.int64) * 2
            s = np.asarray(batch["l_suppkey"], dtype=np.int64) * 2 + 1
            return _dedup_pairs(c, s)

        paired = joined.map_batches(to_edges, batch_format="pyarrow")

    # global distinct via the hash exchange on (src, dst), not a 2-col sort
    # groupby: the multi-key sort exchange measured 12.1 s vs ~3 s bucketed
    # on 1.2M pairs at sf0.1 (the repo-wide lesson from duplicated_spans) —
    # each bucket dedupes all its pairs in one lexsort
    def dedup_bucket(group: pa.Table) -> pa.Table:
        return _distinct(
            np.asarray(group["src"], dtype=np.int64), np.asarray(group["dst"], dtype=np.int64)
        )

    buckets = cpu_units(table_rows(sf_dir, "lineitem") * 2)
    return map_buckets(dedup_bucket, hash_partition(block_refs(paired), ["src", "dst"], buckets))


def _orders_lookup(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(sorted o_orderkey, aligned o_custkey) — the broadcast side."""
    import pyarrow.parquet as pq
    import os

    t = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    ok = np.asarray(t["o_orderkey"], dtype=np.int64)
    ck = np.asarray(t["o_custkey"], dtype=np.int64)
    order = np.argsort(ok)
    return ok[order], ck[order]


def pagerank_fixedpoint(
    edges: ray.data.Dataset, *, n_iters: int = N_ITERS
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted node ids, final fixed-point ranks) after ``n_iters``.

    The node ids and out-degrees come from one ``group_aggregate`` of the
    materialized edges on ``src``. The edges' block refs are cut into at
    most ``cluster_cpus()`` units, and one ``_prep_unit`` task per unit
    resolves src/dst to node indices and sorts them by dst, once; its
    output stays in the object store for every iteration. An iteration
    puts the node-scale contribution vector ``rank // deg`` once, runs one
    ``_unit_partial`` task per unit (a COO partial: the unit's distinct
    dst indices and their int64 sums) and scatters the partials into one
    node-scale sum on the driver. Integer sums are order-free, so the ranks
    do not depend on the cut. A task lost with its worker is rerun by
    Ray's default task retry from the same refs."""
    edges = edges.materialize()
    deg_rows = group_aggregate(edges, ["src"], {"d": ([], "count_all")}, edges.count()).take_all()
    nodes = np.array([r["src"] for r in deg_rows], dtype=np.int64)
    deg = np.array([r["d"] for r in deg_rows], dtype=np.int64)
    order = np.argsort(nodes)
    nodes, deg = nodes[order], deg[order]
    if len(nodes) == 0:  # empty graph: no iterations, no tasks
        return nodes, np.empty(0, dtype=np.int64)
    refs = list(block_refs(edges))
    nodes_ref = ray.put(nodes)
    units = [
        _prep_unit.remote(nodes_ref, *(refs[i] for i in cut))
        for cut in np.array_split(np.arange(len(refs)), min(len(refs), cluster_cpus()))
    ]
    rank = np.full(len(nodes), FP_ONE, dtype=np.int64)
    for _ in range(n_iters):
        contrib_ref = ray.put(rank // deg)
        s_acc = np.zeros(len(nodes), dtype=np.int64)
        for dst, sums in ray.get([_unit_partial.remote(u, contrib_ref) for u in units]):
            s_acc[dst] += sums
        rank = BASE + (DAMP_NUM * s_acc) // DAMP_DEN
    return nodes, rank


@ray.remote
def _prep_unit(node_ids: np.ndarray, *blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One unit of edge blocks as (src node indices sorted by dst, the
    segment starts of each dst run, the distinct dst indices)."""
    from ray.data.block import BlockAccessor

    tbls = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks) if t.num_rows]
    col = lambda c: np.concatenate(
        [np.asarray(t[c], dtype=np.int64) for t in tbls] or [np.empty(0, np.int64)]
    )
    src_idx = np.searchsorted(node_ids, col("src"))  # every src is a known node
    dst_idx = np.searchsorted(node_ids, col("dst"))
    order = np.argsort(dst_idx, kind="stable")
    d_sorted = dst_idx[order]
    starts = np.flatnonzero(np.diff(d_sorted, prepend=-1))
    return src_idx[order], starts, d_sorted[starts]


@ray.remote
def _unit_partial(unit: tuple, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unit's iteration partial: its distinct dst indices and, per dst,
    the int64 sum of ``contrib`` over the dst's in-edges."""
    src_idx, starts, dst = unit
    if not len(src_idx):
        return dst, np.empty(0, dtype=np.int64)
    return dst, np.add.reduceat(contrib[src_idx], starts)


def copurchase_pagerank(sf_dir: str, *, n_iters: int = N_ITERS) -> pa.Table:
    """(node BIGINT, rank_fp BIGINT) — even nodes are customers (id//2),
    odd are suppliers."""
    nodes, rank = pagerank_fixedpoint(_purchase_edges(sf_dir), n_iters=n_iters)
    return pa.table({"node": pa.array(nodes), "rank_fp": pa.array(rank)})


def copurchase_pagerank_sql(n_iters: int = N_ITERS) -> str:
    """Unrolled integer-arithmetic oracle: one CTE per iteration."""
    parts = [
        f"""
eb AS (SELECT DISTINCT o_custkey * 2 AS src, l_suppkey * 2 + 1 AS dst
       FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
e AS (SELECT src, dst FROM eb UNION ALL SELECT dst AS src, src AS dst FROM eb),
deg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT node, CAST({FP_ONE} AS BIGINT) AS rank FROM deg)"""
    ]
    for t in range(1, n_iters + 1):
        parts.append(
            f"""
r{t} AS (SELECT deg.node,
         CAST({BASE} + ({DAMP_NUM} * CAST(COALESCE(s.c, 0) AS BIGINT)) // {DAMP_DEN} AS BIGINT) AS rank
         FROM deg LEFT JOIN (
           SELECT e.dst AS node, SUM(r{t-1}.rank // deg.d) AS c
           FROM e JOIN r{t-1} ON e.src = r{t-1}.node JOIN deg ON e.src = deg.node
           GROUP BY e.dst) s USING (node))"""
        )
    return (
        "WITH " + ",".join(parts) + f"\nSELECT node, rank AS rank_fp FROM r{n_iters}"
    )
