"""SpaceSaving heavy-hitter and mergeable reservoir sample kernels."""

import numpy as np
import pytest

from epichypersketch_jl_ray.functions.hashing import hash_int64
from epichypersketch_jl_ray.state import ReservoirSample, SpaceSaving


class TestSpaceSaving:
    def _stream(self, rng, n=50_000):
        # zipf-ish: heavy keys 0..9, long tail
        heavy = rng.integers(0, 10, size=n // 2)
        tail = rng.integers(10, 20_000, size=n // 2)
        return np.concatenate([heavy, tail])

    def test_guaranteed_heavy_hitters(self):
        rng = np.random.default_rng(0)
        stream = self._stream(rng)
        keys = stream.astype(np.uint64)
        ss = SpaceSaving(capacity=512)
        for chunk in np.array_split(keys, 20):
            ss.update_hashed(chunk)
        true = {int(k): int(c) for k, c in zip(*np.unique(stream, return_counts=True))}
        hh = ss.heavy_hitters(min_count=1000)
        found = {k for k, _, _ in hh}
        # every returned key truly meets the threshold (no false positives)
        for k, est, err in hh:
            assert true[k] >= 1000
            assert est - err <= true[k] <= est
        # every true heavy key is found (capacity >> 1/phi)
        for k, c in true.items():
            if c >= 2500:
                assert k in found, k

    def test_merge_bounds_hold(self):
        rng = np.random.default_rng(1)
        stream = self._stream(rng)
        keys = stream.astype(np.uint64)
        parts = [SpaceSaving(capacity=512).update_hashed(c) for c in np.array_split(keys, 8)]
        m = parts[0]
        for p in parts[1:]:
            m.merge(p)
        assert m.n == len(keys)
        true = {int(k): int(c) for k, c in zip(*np.unique(stream, return_counts=True))}
        for k, est, err in m.heavy_hitters(min_count=2000):
            assert est - err <= true[k] <= est

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError):
            SpaceSaving(8).merge(SpaceSaving(16))


class TestReservoir:
    def test_partition_invariant_sample(self):
        ids = np.arange(100_000)
        whole = ReservoirSample(k=500, seed=9).update(ids)
        parts = [ReservoirSample(k=500, seed=9).update(c) for c in np.array_split(ids, 7)]
        m = parts[3]
        for i in (0, 5, 1, 6, 2, 4):
            m.merge(parts[i])
        assert np.array_equal(m.sample(), whole.sample())
        assert m.digest() == whole.digest()
        assert m.n == whole.n

    def test_uniformity(self):
        # mean of a uniform sample of 0..N-1 should be ~N/2
        ids = np.arange(200_000)
        s = ReservoirSample(k=2000, seed=4).update(ids).sample()
        assert len(s) == 2000
        assert abs(s.mean() - 100_000) < 5000

    def test_duplicates_dont_bias(self):
        ids = np.concatenate([np.arange(1000), np.arange(1000)])
        s = ReservoirSample(k=100, seed=5).update(ids)
        assert len(np.unique(s.sample())) == 100


def test_stratified_sample_by_lang(ray_session, sf_dir):
    """Every lang contributes min(k, n_lang) docs; every sampled doc really
    has that lang; the sample is partitioning-invariant (deterministic)."""
    import duckdb

    from epichypersketch_jl_ray.pipelines.sketches import doc_sample_by_lang

    out = doc_sample_by_lang(sf_dir)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')")
    truth = con.sql("SELECT doc_id, lang FROM documents").df().set_index("doc_id")["lang"]
    counts = con.sql("SELECT lang, count(*) n FROM documents GROUP BY 1").df().set_index("lang")["n"]
    per_lang = out.groupby("lang").size()
    for lang, n in per_lang.items():
        assert n == min(20, counts[lang])
    for _, row in out.iterrows():
        assert truth[row["doc_id"]] == row["lang"]
    # deterministic across runs
    again = doc_sample_by_lang(sf_dir)
    assert out.equals(again)


def test_domain_cap_sample_matches_sql(ray_session, sf_dir, monkeypatch):
    """Per-domain cap: exact vs the window-function oracle, at default and
    adversarial (tiny batch / few buckets) shapes, and k sweep."""
    from oracle_util import duck_con

    from epichypersketch_jl_ray.pipelines.curate import (
        domain_cap_sample,
        domain_cap_sample_sql,
    )
    from epichypersketch_jl_ray.stages import udaf

    con = duck_con(sf_dir)
    for k in (1, 4, 25):
        exp = (
            con.execute(domain_cap_sample_sql(k=k))
            .df()
            .sort_values(["source", "doc_id"])
            .reset_index(drop=True)
        )
        exp["doc_id"] = exp["doc_id"].astype("int64")
        got = (
            domain_cap_sample(sf_dir, k=k)
            .to_pandas()
            .sort_values(["source", "doc_id"])
            .reset_index(drop=True)
        )
        assert got.equals(exp), f"k={k}"
    # partial-path stress: batches smaller than k, single-bucket merge
    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 1)
    got = (
        domain_cap_sample(sf_dir, k=4, batch_size=3)
        .to_pandas()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    exp = (
        con.execute(domain_cap_sample_sql(k=4))
        .df()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    exp["doc_id"] = exp["doc_id"].astype("int64")
    assert got.equals(exp)

def test_domain_cap_sample_exact_under_total_hash_collision(ray_session, sf_dir, monkeypatch):
    """The partial groups by batch-local dictionary codes of the STRING;
    hashes only route merge buckets. Force EVERY domain hash to collide —
    the result must still match the exact window-SQL oracle (a hash-grouped
    partial would share one quota across all domains and drop rows)."""
    import numpy as np
    from oracle_util import duck_con

    from epichypersketch_jl_ray.pipelines import curate

    def all_collide(arr):
        return np.zeros(len(arr), dtype=np.uint64)

    # domain_cap_sample imports hash_strings_fast at call time on the
    # driver; the patched function is captured by the partial closure and
    # shipped to the workers with it
    import epichypersketch_jl_ray.functions.hashing as hashing

    monkeypatch.setattr(hashing, "hash_strings_fast", all_collide)

    got = (
        curate.domain_cap_sample(sf_dir, k=4, batch_size=7)
        .to_pandas()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    con = duck_con(sf_dir)
    exp = (
        con.execute(curate.domain_cap_sample_sql(k=4))
        .df()
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    exp["doc_id"] = exp["doc_id"].astype("int64")
    assert got.equals(exp)
