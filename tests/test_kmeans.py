"""Distributed fixed-point k-means (stages/kmeans.py) and SemDeDup semantic
dedup (pipelines/dedup.semantic_pairs)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _planted_dir(tmp_path, *, n_per: int = 60, dup_groups: int = 3) -> str:
    """Three well-separated clusters + planted near-duplicate groups.

    vec_ids 0..n-1; the first ``dup_groups`` vectors of cluster 0 each get a
    near-copy (cos > 0.99) appended at the end of the table.
    """
    rng = np.random.default_rng(5)
    dim = 16
    centers = np.zeros((3, dim))
    centers[0, 0] = 10.0
    centers[1, 1] = 10.0
    centers[2, 2] = 10.0
    rows = []
    for c in range(3):
        pts = centers[c] + rng.normal(0, 0.5, size=(n_per, dim))
        rows.append(pts)
    base = np.vstack(rows)
    dups = base[:dup_groups] + rng.normal(0, 1e-3, size=(dup_groups, dim))
    mat = np.vstack([base, dups])
    ids = np.arange(len(mat), dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
            "label": pa.array(np.repeat([0, 1, 2, 0], [n_per, n_per, n_per, dup_groups]).astype(np.int32)),
        }
    )
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(tbl, d / "embeddings.parquet")
    return str(d)


def test_kmeans_batching_and_parallelism_invariance(ray_session, sf_dir):
    """The north-rule reproducibility claim: fixed-point partial sums make
    the fitted centroids BIT-IDENTICAL for any batch size (the same
    mechanism covers block order and cluster size — integer addition is
    associative and commutative)."""
    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.kmeans import kmeans_fit

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    a = kmeans_fit(ds, k=6, iters=5, seed=11, batch_size=4096)
    b = kmeans_fit(ds, k=6, iters=5, seed=11, batch_size=37)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia  # exact fixed-point history too
    assert a.iterations == b.iterations


def test_kmeans_inertia_monotone_and_early_stop(ray_session, sf_dir):
    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.kmeans import kmeans_fit

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    m = kmeans_fit(ds, k=5, iters=30, seed=3)
    assert len(m.inertia) == m.iterations
    # Lloyd's never increases the objective (fixed-point rounding noise is
    # bounded by 2^-21 per coordinate; allow that epsilon)
    for prev, cur in zip(m.inertia, m.inertia[1:]):
        assert cur <= prev + 1e-5
    # exact-convergence early stop fires well before 30 iterations here
    assert m.iterations < 30


def test_kmeans_recovers_planted_clusters(ray_session, tmp_path):
    import ray

    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.kmeans import assign_clusters, kmeans_fit

    d = _planted_dir(tmp_path)
    ds = read_table(d, "embeddings", columns=["vec_id", "embedding"])
    model = kmeans_fit(ds, k=3, iters=10, seed=1)
    tagged = assign_clusters(ds, model, keep_embedding=False).to_pandas()
    truth = (
        ray.data.read_parquet(d + "/embeddings.parquet")
        .select_columns(["vec_id", "label"])
        .to_pandas()
    )
    j = tagged.merge(truth, on="vec_id")
    # perfect purity: every fitted cluster maps to exactly one true label
    purity = j.groupby("cluster")["label"].agg(lambda s: s.value_counts().iloc[0] / len(s))
    assert (purity == 1.0).all()
    assert j["cluster"].nunique() == 3


def test_semantic_pairs_precision_and_recall(ray_session, sf_dir):
    """Every emitted pair's cosine is exact (subset of the exact block-pair
    output); recall on the near-uniform fixture is bounded below — the
    misses are cross-cluster pairs, SemDeDup's accepted trade."""
    from epichypersketch_jl_ray.pipelines.dedup import dedup_embedding, semantic_pairs

    exact = dedup_embedding(sf_dir).to_pandas()
    sem = semantic_pairs(sf_dir).to_pandas()
    want = set(zip(exact["vec_a"].astype(int), exact["vec_b"].astype(int)))
    got = set(zip(sem["vec_a"].astype(int), sem["vec_b"].astype(int)))
    assert got <= want
    if want:
        assert len(got & want) / len(want) >= 0.4
    # emitted cosines equal the exact pipeline's values
    ex = {(a, b): c for a, b, c in exact[["vec_a", "vec_b", "cosine"]].itertuples(index=False)}
    for a, b, c in sem[["vec_a", "vec_b", "cosine"]].itertuples(index=False):
        assert abs(ex[(int(a), int(b))] - c) < 1e-9


def test_merged_embedding_neardup_pairs_shape(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.merged import embedding_neardup_pairs

    out = embedding_neardup_pairs(sf_dir).to_pandas()
    assert list(out.columns) == ["method", "vec_a", "vec_b", "cosine"]
    assert set(out["method"].unique()) <= {"lsh", "semantic"}
    assert (out["vec_a"] < out["vec_b"]).all()


def test_kmeans_k_larger_than_sample(ray_session, tmp_path):
    """k clamps to the sample size; tiny inputs still fit."""
    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.kmeans import kmeans_fit

    rng = np.random.default_rng(0)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(4, dtype=np.int64), pa.int64()),
            "embedding": pa.array(
                [list(map(float, rng.normal(size=8))) for _ in range(4)],
                pa.list_(pa.float32()),
            ),
        }
    )
    d = tmp_path / "tiny"
    d.mkdir()
    pq.write_table(tbl, d / "embeddings.parquet")
    ds = read_table(str(d), "embeddings", columns=["vec_id", "embedding"])
    m = kmeans_fit(ds, k=16, iters=3, seed=2)
    assert m.centroids.shape[0] <= 4


def test_embedding_analysis_merged_frame(ray_session, sf_dir):
    """The registry's merged PCA + k-means profile: row shape, cluster sizes
    sum to the corpus, quantized-sim determinism across calls and batchings."""
    from epichypersketch_jl_ray.pipelines.merged import embedding_analysis
    from epichypersketch_jl_ray.sources.tables import table_rows

    out = embedding_analysis(sf_dir)
    assert sorted(out.columns) == ["id", "method", "v1", "v2"]
    km = out[out["method"] == "kmeans"].sort_values("id").reset_index(drop=True)
    pca = out[out["method"] == "pca"]
    assert len(pca) == 8 and (pca["v1"].to_numpy() >= 0).all()
    assert int(km["v1"].sum()) == table_rows(sf_dir, "embeddings")
    again = embedding_analysis(sf_dir)
    assert out.equals(again)
