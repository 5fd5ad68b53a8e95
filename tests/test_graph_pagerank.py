"""Fixed-point PageRank: hand-checkable tiny graph, byte-exact SQL-oracle
parity, partition invariance, and mass bounds."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from epichypersketch_jl_ray.pipelines.graph import (
    BASE,
    DAMP_DEN,
    DAMP_NUM,
    FP_ONE,
    copurchase_pagerank,
    copurchase_pagerank_sql,
    pagerank_fixedpoint,
)


def _local_pagerank(edges: list[tuple[int, int]], n_iters: int) -> dict[int, int]:
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    deg = {n: 0 for n in nodes}
    for s, _ in edges:
        deg[s] += 1
    rank = {n: FP_ONE for n in nodes}
    for _ in range(n_iters):
        s_in = {n: 0 for n in nodes}
        for s, d in edges:
            s_in[d] += rank[s] // deg[s]
        rank = {n: BASE + (DAMP_NUM * s_in[n]) // DAMP_DEN for n in nodes}
    return rank


def test_tiny_graph_hand_checked(ray_session):
    import ray

    # triangle + pendant: 1<->2, 2<->3, 3<->1, 3<->4
    und = [(1, 2), (2, 3), (3, 1), (3, 4)]
    edges = und + [(b, a) for a, b in und]
    ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
    nodes, rank = pagerank_fixedpoint(ds, n_iters=6)
    want = _local_pagerank(edges, 6)
    assert {int(n): int(r) for n, r in zip(nodes, rank)} == want
    # the 3-degree hub must outrank the pendant
    got = dict(zip(nodes.tolist(), rank.tolist()))
    assert got[3] > got[4]
    # partition invariance: byte-identical under a different block split
    nodes2, rank2 = pagerank_fixedpoint(ds.repartition(7), n_iters=6)
    assert np.array_equal(nodes, nodes2) and np.array_equal(rank, rank2)


def test_copurchase_pagerank_matches_sql(ray_session, sf_dir):
    import sys

    sys.path.insert(0, "tests")
    from oracle_util import compare, duck_con, to_pandas

    for iters in (1, 10):
        got = to_pandas(copurchase_pagerank(sf_dir, n_iters=iters))
        exp = duck_con(sf_dir).execute(copurchase_pagerank_sql(iters)).df()
        assert compare(f"pagerank_{iters}", got, exp) == []


def test_mass_bound(ray_session, sf_dir):
    """Total fixed-point mass stays within n*FP_ONE (floor divisions only
    ever LOSE mass, never create it)."""
    t = copurchase_pagerank(sf_dir, n_iters=4)
    total = int(pa.compute.sum(t["rank_fp"]).as_py())
    n = len(t)
    assert n * BASE <= total <= n * FP_ONE


def test_one_engine_equals_local_pagerank_under_any_cut(ray_session):
    """The task engine's ranks equal the local fixed-point loop however
    the edges are cut into blocks (integer sums are order-free): one
    block, fewer blocks than CPUs, more blocks than CPUs, some empty."""
    import ray

    und = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 1), (2, 5)]
    edges = und + [(b, a) for a, b in und]
    want = _local_pagerank(edges, 9)
    ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
    for blocks in (1, 3, 5, 13, 20):
        nodes, rank = pagerank_fixedpoint(ds.repartition(blocks), n_iters=9)
        assert {int(n): int(r) for n, r in zip(nodes, rank)} == want, blocks


def test_unit_partials_combine_equals_per_dst_sum(ray_session):
    """The driver's combine of the unit partials: each ``_unit_partial``
    lists a dst index once (the scatter ``s_acc[dst] += sums`` needs
    that), and the scattered partials equal the per-dst sum over all
    edges, with a hub whose in-edges fall in every block of a unit."""
    import ray

    from epichypersketch_jl_ray.pipelines import graph

    spokes = [(0, n) for n in range(1, 12)]
    und = spokes + [(n, n + 1) for n in range(1, 11)]
    edges = und + [(b, a) for a, b in und]
    nodes = np.arange(12, dtype=np.int64)
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    contrib = np.arange(7, 7 + 12, dtype=np.int64) ** 3
    want = np.bincount(dst, weights=contrib[src].astype(np.float64), minlength=12)
    blocks = [
        pa.table({"src": pa.array(src[cut]), "dst": pa.array(dst[cut])})
        for cut in np.array_split(np.arange(len(edges)), 5)
    ]
    unit = graph._prep_unit.remote(ray.put(nodes), *blocks)
    got_dst, sums = ray.get(graph._unit_partial.remote(unit, ray.put(contrib)))
    assert np.all(np.diff(got_dst) > 0)
    s_acc = np.zeros(12, dtype=np.int64)
    s_acc[got_dst] += sums
    assert np.array_equal(s_acc, want.astype(np.int64))

    ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
    for blocks in (2, 6):
        nodes_out, rank = pagerank_fixedpoint(ds.repartition(blocks), n_iters=8)
        assert {int(n): int(r) for n, r in zip(nodes_out, rank)} == _local_pagerank(edges, 8)


def test_empty_edge_set(ray_session):
    import pyarrow as pa
    import ray

    empty = ray.data.from_arrow(
        pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
    )
    nodes, rank = pagerank_fixedpoint(empty, n_iters=3)
    assert len(nodes) == 0 and len(rank) == 0


def test_pagerank_survives_a_killed_worker(ray_session, tmp_path, monkeypatch):
    """The worker running the first iteration task exits mid-task; Ray's
    default task retry reruns it from the same refs (the prepared unit
    and the contribution vector stay in the object store) and the ranks
    equal the undisturbed run's byte for byte."""
    import os

    import ray

    from epichypersketch_jl_ray.pipelines import graph

    und = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 1), (2, 5), (4, 1)]
    edges = und + [(b, a) for a, b in und]
    ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges]).repartition(4)
    clean_nodes, clean = pagerank_fixedpoint(ds, n_iters=7)
    assert {int(n): int(r) for n, r in zip(clean_nodes, clean)} == _local_pagerank(edges, 7)

    marker = str(tmp_path / "killed")
    partial = graph._unit_partial._function  # the iteration task's own body

    def crash_once(unit, contrib):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return partial(unit, contrib)
        os._exit(1)  # the worker process dies, as on a lost node

    monkeypatch.setattr(graph, "_unit_partial", ray.remote(crash_once))
    nodes, rank = pagerank_fixedpoint(ds, n_iters=7)
    assert os.path.exists(marker)
    assert np.array_equal(nodes, clean_nodes) and np.array_equal(rank, clean)
