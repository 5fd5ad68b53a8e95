"""Connected-components dedup: the distributed min-contraction stage
(stages/cc.py) vs a driver union-find, and the cluster-vs-pairwise
divergence the CC-based curation chain exists to fix."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _union_find_minima(edges: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _run_cc(edges, *, single_task_threshold=0):
    """Default forces the distributed star path (over 4 buckets); pass a
    large threshold to exercise the single-task union-find shortcut."""
    from unittest import mock

    import ray

    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.stages.cc import connected_components

    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([a for a, _ in edges], pa.int64()),
                "doc_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
    )
    with mock.patch.object(udaf, "cluster_cpus", lambda: 4):
        out = connected_components(pairs, single_task_threshold=single_task_threshold)
    out = out.to_pandas()
    if len(out) == 0:
        return {}
    return dict(zip(out["node"].astype(int), out["component"].astype(int)))


def test_cc_matches_union_find_on_random_graph(ray_session):
    rng = np.random.default_rng(7)
    edges = [tuple(sorted(e)) for e in rng.integers(0, 120, size=(150, 2)) if e[0] != e[1]]
    want = _union_find_minima(edges)
    assert _run_cc(edges) == want  # distributed star path
    assert _run_cc(edges, single_task_threshold=10**6) == want  # shortcut path


def test_cc_long_path_converges(ray_session):
    """A 40-node path exercises multiple contraction rounds (min-contraction
    halves a path per round)."""
    edges = [(i, i + 1) for i in range(40)]
    got = _run_cc(edges)
    assert got == {i: 0 for i in range(41)}


def test_cc_star_and_isolated_pairs(ray_session):
    edges = [(100, i) for i in range(101, 110)] + [(5, 6), (7, 8)]
    want = _union_find_minima(edges)
    # self-loops drop, duplicate and reversed duplicates collapse
    noisy = edges + [(42, 42), (5, 6), (6, 5), (100, 105)]
    assert _run_cc(noisy) == want
    assert want[109] == 100 and want[6] == 5


def test_cc_empty_pairs(ray_session):
    assert _run_cc([]) == {}


@pytest.fixture()
def bridge_corpus(tmp_path):
    """Docs 10, 20, 30 where 10~30 and 20~30 but 10!~20 (30 is the union of
    10's and 20's shingles) — the configuration where pair-wise removal
    keeps {10, 20} but cluster dedup keeps only the component min 10 —
    plus unrelated noise docs."""
    rng = np.random.default_rng(3)
    t1 = " ".join(f"alpha{i}" for i in range(20))
    t2 = " ".join(f"beta{i}" for i in range(20))
    t3 = t1 + " " + t2
    ids = [10, 20, 30]
    texts = [t1, t2, t3]
    for k in range(8):
        ids.append(1000 + k)
        texts.append(" ".join(f"noise{k}w{j}" for j in rng.integers(0, 50, size=25)))
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    return str(tmp_path)


def test_curate_cc_drops_whole_cluster(ray_session, bridge_corpus):
    from epichypersketch_jl_ray.pipelines.curate import curate_corpus, curate_corpus_cc

    # J(10,30) = J(20,30) ~ 18/38, J(10,20) = 0: threshold between them
    pairwise = set(
        curate_corpus(bridge_corpus, min_chars=0, threshold=0.4)
        .to_pandas()["doc_id"]
        .astype(int)
    )
    clustered = set(
        curate_corpus_cc(bridge_corpus, min_chars=0, threshold=0.4)
        .to_pandas()["doc_id"]
        .astype(int)
    )
    noise = {1000 + k for k in range(8)}
    assert pairwise == {10, 20} | noise  # 20 survives pair-wise: never a pair max
    assert clustered == {10} | noise  # CC keeps only the component minimum


def test_curate_cc_matches_recursive_cte_oracle(ray_session, bridge_corpus):
    import duckdb

    from epichypersketch_jl_ray.pipelines.curate import curate_corpus_cc, curate_corpus_cc_sql

    ours = sorted(
        curate_corpus_cc(bridge_corpus, min_chars=0, threshold=0.4)
        .to_pandas()["doc_id"]
        .astype(int)
    )
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{bridge_corpus}/documents.parquet')"
    )
    want = sorted(con.sql(curate_corpus_cc_sql(min_chars=0, threshold=0.4)).df()["doc_id"])
    assert ours == want
