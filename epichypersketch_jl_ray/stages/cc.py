"""Distributed connected components over an edge/pair Dataset.

Two-phase star contraction (Kiveris, Lattanzi, Mirrokni, Rastogi, Vassilvitskii,
"Connected Components in MapReduce and Beyond", SoCC 2014 — public paper;
independent numpy/Ray implementation):

  large-star(u): for every neighbor v > u, emit (v, m) with
                 m = min(N(u) | {u})
  small-star(u): for every v in {u} | {neighbors <= u}, emit (v, m)

Alternating the two passes preserves connectivity and monotonically shrinks
the graph until every component is a star rooted at its minimum node —
O(log^2 n) rounds in the worst case, 2-4 rounds for the shallow clusters
real near-dup graphs produce. Each pass is ONE hash exchange on the center
node (stages/exchange) whose per-bucket body is fully vectorized (one
lexsort + run-length segment mins) — no joins, no per-node Python, no
driver-side edge materialization. The driver only sees three scalars per
round (edge count + two independent 40-bit hash sums) for the fixpoint
test, so the pair volume a 100 TB near-dup scan produces streams through
the same exchange as any other table.

This is the transitive-closure step real corpus dedup needs: pair-wise
removal (drop doc_b of every verified pair) misses nodes that are only
transitively duplicated — components drop everything but the cluster
minimum (pipelines/curate.py curate_corpus_cc). The reference has no dedup
at all; this extends the mandate's curation chain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data.aggregate import Sum

from epichypersketch_jl_ray.functions.hashing import hash_int64
from epichypersketch_jl_ray.stages.exchange import (
    aggregate_table,
    group_aggregate,
    hash_partition,
    map_buckets,
)
from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units


def _empty_components() -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table({"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
    )


def _star_pass(
    edges: ray.data.Dataset, *, large: bool, rows: int, dedupe: bool = True
) -> ray.data.Dataset:
    """One large-star or small-star pass: every edge goes to the bucket of
    each of its ends (one hash exchange of the edges on ``u`` and one on
    ``v``, ``udaf.cpu_units(rows)`` buckets), so each bucket holds the
    symmetrized (center, neighbor) rows of its centers; then a vectorized
    per-bucket segment-min emit and a canonical (u < v) dedupe.

    ``dedupe=False`` skips the output's (u, v) distinct. Safe when
    the NEXT consumer is another star pass: min over a neighbor MULTISET
    equals min over the set, so duplicate edges (<= 2x volume) cannot
    change any emitted label — the round loop dedupes once per round
    (after small-star) instead of twice, 3 shuffles per round instead
    of 4. The fingerprint/fixpoint test always runs on DEDUPED output."""

    def per_bucket(by_u: pa.Table, by_v: pa.Table) -> pa.Table:
        u = [t["u"].to_numpy(zero_copy_only=False).astype(np.int64) for t in (by_u, by_v)]
        v = [t["v"].to_numpy(zero_copy_only=False).astype(np.int64) for t in (by_u, by_v)]
        c, n = np.concatenate([u[0], v[1]]), np.concatenate([v[0], u[1]])
        order = np.lexsort((n, c))
        c, n = c[order], n[order]
        first = np.ones(len(c), bool)  # a 0-row bucket keeps 0 rows
        first[1:] = c[1:] != c[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(c)))
        # n is sorted within each center segment, so n[starts] is the min
        # neighbor; m = min(N(u) | {u})
        m = np.minimum(c[starts], n[starts])
        mrep = np.repeat(m, counts)
        if large:
            mask = n > c
            src, dst = n[mask], mrep[mask]
        else:
            mask = n <= c
            # {neighbors <= u} plus u itself
            src = np.concatenate([n[mask], c[starts]])
            dst = np.concatenate([mrep[mask], m])
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return pa.table(
            {
                "u": pa.array(np.minimum(src, dst), pa.int64()),
                "v": pa.array(np.maximum(src, dst), pa.int64()),
            }
        )

    refs, buckets = list(block_refs(edges)), cpu_units(rows)
    out = map_buckets(
        per_bucket, hash_partition(refs, ["u"], buckets), hash_partition(refs, ["v"], buckets)
    )
    if not dedupe:
        return out
    return group_aggregate(out, ["u", "v"], {}, rows)


# 40-bit terms: up to 2^23 edges sum within int64 (2^63); beyond that the
# sum wraps mod 2^64 — deterministic and order-insensitive, so fingerprint
# EQUALITY (the only use) stays sound at any edge count.
_FP_MOD = np.uint64(1 << 40)


def _fingerprint(edges: ray.data.Dataset) -> tuple[int, int, int]:
    """(count, hashsum, hashsum') — an order-insensitive edge-multiset
    fingerprint computed distributed; the driver sees three scalars."""

    def sums(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = hash_int64(u, seed=101) ^ hash_int64(v, seed=202)
        h1 = (hash_int64(key.view(np.int64), seed=7) % _FP_MOD).astype(np.int64)
        h2 = (hash_int64(key.view(np.int64), seed=8) % _FP_MOD).astype(np.int64)
        return pa.table(
            {
                "cnt": pa.array([len(u)], pa.int64()),
                "h1": pa.array([int(h1.sum())], pa.int64()),
                "h2": pa.array([int(h2.sum())], pa.int64()),
            }
        )

    agg = edges.map_batches(sums, batch_format="pyarrow").aggregate(
        Sum("cnt", alias_name="cnt"), Sum("h1", alias_name="h1"), Sum("h2", alias_name="h2")
    )
    return (agg["cnt"] or 0, agg["h1"] or 0, agg["h2"] or 0)


def _single_task_components(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Union-find over the whole (small) edge set inside ONE Ray task —
    the size-aware shortcut: each alternating star round costs ~4 shuffle
    stages of fixed overhead, which dwarfs the work when the verified pair
    set is thousands of rows (the common case: near-dups are rare)."""

    def whole(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        parent = np.arange(len(nodes), dtype=np.int64)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            return x

        for a, b in zip(inv[: len(u)].tolist(), inv[len(u) :].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by min NODE id, so every root is its component min
                if nodes[ra] < nodes[rb]:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "component": pa.array(nodes[roots], pa.int64()),
            }
        )

    return edges.repartition(1).map_batches(whole, batch_format="pyarrow", batch_size=None)


def connected_components(
    pairs: ray.data.Dataset,
    *,
    src: str = "doc_a",
    dst: str = "doc_b",
    max_rounds: int = 64,
    single_task_threshold: int = 1_000_000,
) -> ray.data.Dataset:
    """(node, component) for every node appearing in ``pairs``; component is
    the minimum node id of the node's connected component.

    Size-aware (same strategy as the adaptive joins): an edge set at or
    below ``single_task_threshold`` rows runs as one union-find Ray task;
    larger sets run the distributed star rounds. Both paths are equal by
    construction and pinned together by tests (threshold=0 forces the star
    path)."""

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[src].cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch[dst].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table(
            {
                "u": pa.array(np.minimum(a, b), pa.int64()),
                "v": pa.array(np.maximum(a, b), pa.int64()),
            }
        )

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _empty_components()
    if n_edges <= single_task_threshold:
        return _single_task_components(edges)

    fp = _fingerprint(edges)
    # sized once, from the first round's symmetrized rows
    rows = 2 * n_edges
    for _ in range(max_rounds):
        edges = _star_pass(edges, large=True, rows=rows, dedupe=False)
        edges = _star_pass(edges, large=False, rows=rows).materialize()
        new_fp = _fingerprint(edges)
        # probabilistic fixpoint test: equal count + two independent 40-bit
        # hash sums. A collision (different edge multisets, same triple;
        # ~2^-80 per round) would stop early and emit wrong components —
        # accepted trade for never shipping the edge set to the driver.
        if new_fp == fp:
            break
        fp = new_fp
    else:
        raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")

    # fixpoint: every component is a star (root=u=min, child=v); labels are
    # the star edges (by v) plus each root labeling itself (by u), the min
    # label per node in the bucket of that node
    def to_labels(by_v: pa.Table, by_u: pa.Table) -> pa.Table:
        col = lambda t, c: t[c].to_numpy(zero_copy_only=False).astype(np.int64)
        labels = pa.table(
            {
                "node": np.concatenate([col(by_v, "v"), col(by_u, "u")]),
                "component": np.concatenate([col(by_v, "u"), col(by_u, "u")]),
            }
        )
        return aggregate_table(labels, ["node"], {"component": ("component", "min")})

    refs, buckets = list(block_refs(edges)), cpu_units(rows)
    return map_buckets(
        to_labels, hash_partition(refs, ["v"], buckets), hash_partition(refs, ["u"], buckets)
    )
