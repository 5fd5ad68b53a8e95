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

Scale shape: per iteration, ONE edge-scale map_batches (rank lookup via a
broadcast, per-worker-memoized contribution vector — stages/udaf
broadcast_get) + ONE groupby(dst) sum; driver state is NODE-scale only (the
rank/degree vectors — the IVF-centroid bounded-driver-state pattern). The
edge table is materialized once (object store, spillable) and re-read by
every iteration; a graph whose NODE table outgrows the driver would swap
the broadcast lookup for a bucketed_hash_join per iteration (edge-scale
shuffles, zero driver state) — same iteration algebra.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data.aggregate import Count, Sum

from epichypersketch_jl_ray.sources.tables import read_table, table_rows
from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
from epichypersketch_jl_ray.stages.join import bucketed_hash_join
from epichypersketch_jl_ray.stages.udaf import (
    block_refs,
    broadcast_evict,
    broadcast_get,
    cluster_cpus,
    cpu_units,
)

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
    edges: ray.data.Dataset,
    *,
    n_iters: int = N_ITERS,
    engine: str = "auto",
    driver_combine: bool | None = None,
    driver_node_cap: int = 1 << 20,
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted node ids, final fixed-point ranks) after ``n_iters``.

    Two byte-identical engines (integer sums; equality pinned in tests):

    - ``actors`` (default under ``driver_node_cap`` nodes): the one case in
      this repo where raw Ray actors beat the Dataset API — an iterative
      fixpoint re-reads the SAME edge set every round, so each shard actor
      ingests its edge blocks ONCE, pre-resolves src/dst to node indices and
      pre-sorts by dst (reduceat segments); an iteration is then one
      broadcast of the contribution vector + one node-scale partial per
      shard, ~no per-iteration scheduling or re-deserialization (Pregel /
      GraphX-persisted-RDD shape). Cost: edges live in actor heaps — spread
      across the cluster, but not spillable.
    - ``dataset``: per iteration one edge-scale map_batches over the
      materialized (spillable) edge table, partials combined on the driver
      (``driver_combine``, node-scale) or via groupby(dst) for node tables
      beyond the driver. More elastic, pays per-iteration stage overhead.
    """
    edges = edges.materialize()
    n_cpus = cluster_cpus()
    if edges.num_blocks() > 2 * n_cpus:
        # bound block count so per-iteration scheduling (dataset engine) or
        # shard count (actor engine) doesn't dwarf node-scale compute
        edges = edges.repartition(n_cpus).materialize()
    deg_rows = edges.groupby("src").aggregate(Count(alias_name="d")).take_all()
    nodes = np.array([r["src"] for r in deg_rows], dtype=np.int64)
    deg = np.array([r["d"] for r in deg_rows], dtype=np.int64)
    order = np.argsort(nodes)
    nodes, deg = nodes[order], deg[order]
    if len(nodes) == 0:  # empty graph: no iterations, no shards
        return nodes, np.empty(0, dtype=np.int64)
    if engine == "auto":
        engine = "actors" if len(nodes) <= driver_node_cap else "dataset"
    if engine == "actors":
        return nodes, _iterate_actor_shards(edges, nodes, deg, n_iters=n_iters)
    nodes_ref = ray.put(nodes)
    if driver_combine is None:
        driver_combine = len(nodes) <= driver_node_cap

    rank = np.full(len(nodes), FP_ONE, dtype=np.int64)
    prev_ref = None
    for _ in range(n_iters):
        contrib_ref = ray.put(rank // deg)

        def attach(batch: pa.Table, *, _c=contrib_ref, _p=prev_ref) -> pa.Table:
            if _p is not None:
                # only the latest contribution vector is ever re-read:
                # evict the superseded iteration's node-scale entry from
                # this worker's broadcast memo instead of letting n_iters
                # vectors accumulate (bounded-LRU backstop notwithstanding)
                broadcast_evict(_p)
            node_ids = broadcast_get(nodes_ref)
            contrib = broadcast_get(_c)
            src = np.asarray(batch["src"], dtype=np.int64)
            idx = np.searchsorted(node_ids, src)  # every src is a known node
            # map-side combine: pre-sum per dst inside the batch, so what
            # leaves the task is distinct-dst-per-batch rows, never the
            # edge stream
            dst = np.asarray(batch["dst"], dtype=np.int64)
            order = np.argsort(dst, kind="stable")
            d_sorted = dst[order]
            starts = np.flatnonzero(
                np.concatenate(([True], d_sorted[1:] != d_sorted[:-1]))
            )
            sums = np.add.reduceat(contrib[idx][order], starts)
            return pa.table({"dst": pa.array(d_sorted[starts]), "c": pa.array(sums)})

        partials = edges.map_batches(attach, batch_format="pyarrow")
        rank = np.full(len(nodes), BASE, dtype=np.int64)
        if driver_combine:
            s_acc = np.zeros(len(nodes), dtype=np.int64)
            for b in partials.iter_batches(batch_format="pyarrow"):
                dst = np.asarray(b["dst"], dtype=np.int64)
                np.add.at(s_acc, np.searchsorted(nodes, dst), np.asarray(b["c"], dtype=np.int64))
            rank += (DAMP_NUM * s_acc) // DAMP_DEN
        else:
            sums = partials.groupby("dst").aggregate(Sum("c", alias_name="s")).take_all()
            dst = np.array([r["dst"] for r in sums], dtype=np.int64)
            s = np.array([r["s"] for r in sums], dtype=np.int64)
            rank[np.searchsorted(nodes, dst)] += (DAMP_NUM * s) // DAMP_DEN
        prev_ref = contrib_ref
    return nodes, rank


@ray.remote
class _EdgeShard:
    """One edge shard, ingested once: src/dst pre-resolved to node indices,
    pre-sorted by dst with reduceat segment starts — an iteration is one
    exact int64 segmented sum scattered into a node-scale vector."""

    def __init__(self, block_refs: list, node_ids: np.ndarray) -> None:
        # node_ids arrives resolved: Ray substitutes top-level ObjectRef
        # args with their values; the refs INSIDE block_refs stay refs
        tbls = [t for t in ray.get(list(block_refs)) if len(t)]
        if tbls:
            src = np.concatenate([np.asarray(t["src"], dtype=np.int64) for t in tbls])
            dst = np.concatenate([np.asarray(t["dst"], dtype=np.int64) for t in tbls])
        else:
            src = dst = np.empty(0, dtype=np.int64)
        src_idx = np.searchsorted(node_ids, src)
        dst_idx = np.searchsorted(node_ids, dst)
        order = np.argsort(dst_idx, kind="stable")
        self.src_idx = src_idx[order]
        d_sorted = dst_idx[order]
        self.starts = np.flatnonzero(
            np.concatenate(([True], d_sorted[1:] != d_sorted[:-1]))
        )
        self.uniq_dst = d_sorted[self.starts] if len(d_sorted) else d_sorted
        self.n_nodes = len(node_ids)

    def partial(self, contrib: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_nodes, dtype=np.int64)
        if len(self.src_idx):
            out[self.uniq_dst] = np.add.reduceat(contrib[self.src_idx], self.starts)
        return out


def _iterate_actor_shards(
    edges: ray.data.Dataset,
    nodes: np.ndarray,
    deg: np.ndarray,
    *,
    n_iters: int,
    _iteration_hook=None,
) -> np.ndarray:
    """Fault tolerance: a shard's state is a pure function of its edge-block
    refs, which stay pinned in the (materialized) edges Dataset for the whole
    run — so when an actor dies mid-iteration (node loss, OOM kill), the
    shard is re-created FROM THE SAME REFS and its partial retried, and the
    result is byte-identical to an undisturbed run (pinned in tests via
    ``_iteration_hook``, which the kill test uses to murder an actor between
    iterations). A shard that dies twice in one iteration propagates the
    error — at that point the caller should fall back to the Dataset engine.
    """
    refs = edges.to_arrow_refs()
    n_shards = max(1, min(len(refs), cluster_cpus()))
    chunks = [c for c in np.array_split(np.arange(len(refs)), n_shards) if len(c)]
    nodes_ref = ray.put(nodes)

    def make_shard(chunk: np.ndarray):
        return _EdgeShard.remote([refs[i] for i in chunk], nodes_ref)

    shards = [make_shard(c) for c in chunks]
    rank = np.full(len(nodes), FP_ONE, dtype=np.int64)
    for it in range(n_iters):
        if _iteration_hook is not None:
            _iteration_hook(it, shards)
        contrib_ref = ray.put(rank // deg)
        futures = [s.partial.remote(contrib_ref) for s in shards]
        s_acc = np.zeros(len(nodes), dtype=np.int64)
        for i, f in enumerate(futures):
            try:
                part = ray.get(f)
            except ray.exceptions.RayActorError:
                # re-ingest the shard from the pinned edge blocks and retry
                shards[i] = make_shard(chunks[i])
                part = ray.get(shards[i].partial.remote(contrib_ref))
            s_acc += part
        rank = BASE + (DAMP_NUM * s_acc) // DAMP_DEN
    for s in shards:
        ray.kill(s)
    return rank


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
