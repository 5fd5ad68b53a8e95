"""Dedup pipeline correctness beyond the oracle harness: SimHash pigeonhole
completeness vs brute force; MinHash-LSH no-miss at fixture scale."""

import numpy as np
import pytest


def test_simhash_pipeline_complete_vs_bruteforce(ray_session, sf_dir):
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.functions.text import token_hashes
    from epichypersketch_jl_ray.pipelines.dedup import dedup_simhash
    from epichypersketch_jl_ray.state.minhash import hamming_distance64, simhash64_batch

    out = dedup_simhash(sf_dir).to_pandas()
    tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    flat, off = token_hashes(tbl["text"].combine_chunks())
    sh = simhash64_batch(flat, off)
    ids = tbl["doc_id"].to_numpy()
    # brute force: all pairs hamming <= 3
    expected = set()
    for i in range(len(ids)):
        d = hamming_distance64(np.full(len(ids) - i - 1, sh[i]), sh[i + 1 :])
        for j in np.flatnonzero(d <= 3):
            a, b = int(ids[i]), int(ids[i + 1 + j])
            expected.add((min(a, b), max(a, b)))
    got = set(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)))
    assert got == expected  # pigeonhole banding is exact for hamming <= 3


def test_simhash_registered_oracle_over_stored_signatures(ray_session, sf_dir):
    """Driver-mirror of the stored-signature oracle: run the pipeline (which
    writes the signature table), then the exhaustive bit_count(xor) SQL join
    over that table must hash-match the banded pairs."""
    from oracle_util import compare, duck_con

    from epichypersketch_jl_ray.pipelines.dedup import dedup_simhash, dedup_simhash_sql

    out = dedup_simhash(sf_dir)
    con = duck_con(sf_dir)
    problems = compare("dedup_simhash", out, con.sql(dedup_simhash_sql()).df())
    assert not problems, problems


def test_minhash_lsh_matches_exact_jaccard(ray_session, sf_dir):
    import duckdb

    from epichypersketch_jl_ray.pipelines.dedup import dedup_minhash_lsh, dedup_minhash_lsh_sql

    out = dedup_minhash_lsh(sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    truth = con.sql(dedup_minhash_lsh_sql()).df()
    got = set(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)))
    want = set(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)))
    assert got == want


def test_minhash_sketch_prune_path_equals_exact_path(ray_session, sf_dir):
    """exact_prune_cap=0 forces the HLL+Bloom semi-join prune (the fallback
    the sf fixtures never reach on their own — they produce few candidate
    pairs); its verified output must equal the exact broadcast-membership
    path, pair for pair with matching Jaccard values."""
    import ray

    from epichypersketch_jl_ray.pipelines.dedup import minhash_pairs
    from epichypersketch_jl_ray.sources.tables import read_table

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    exact = minhash_pairs(docs).to_pandas()
    sketch = minhash_pairs(docs, exact_prune_cap=0).to_pandas()
    cols = ["doc_a", "doc_b"]
    exact = exact.sort_values(cols).reset_index(drop=True)
    sketch = sketch.sort_values(cols).reset_index(drop=True)
    assert len(exact) > 0
    assert exact[cols].equals(sketch[cols])
    assert (exact["jaccard"] - sketch["jaccard"]).abs().max() < 1e-12


def test_minhash_lsh_distributed_verification_at_10x_candidates(ray_session, tmp_path):
    """The distributed verification path (bucketed attach + vectorized
    Jaccard) at ~10x the sf-fixture candidate-pair count: 40 near-dup
    families x 8 docs each -> >1000 candidate pairs, all verified exactly."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.dedup import dedup_minhash_lsh, dedup_minhash_lsh_sql

    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(500)]
    docs, ids = [], []
    doc_id = 0
    for fam in range(40):
        base = list(rng.choice(vocab, size=30))
        for member in range(8):
            words = list(base)
            # light mutation keeps Jaccard mostly >= 0.5
            for _ in range(int(rng.integers(0, 4))):
                words[int(rng.integers(0, len(words)))] = str(rng.choice(vocab))
            docs.append(" ".join(words))
            ids.append(doc_id)
            doc_id += 1
    for _ in range(100):  # noise docs
        docs.append(" ".join(rng.choice(vocab, size=25)))
        ids.append(doc_id)
        doc_id += 1
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(docs, pa.string())}),
        sf / "documents.parquet",
    )
    out = dedup_minhash_lsh(str(sf)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    truth = con.sql(dedup_minhash_lsh_sql()).df()
    assert len(truth) > 250  # the fixture really is ~10x the sf candidate count
    got = set(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)))
    want = set(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)))
    assert got == want
    jac = dict(zip(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)), out["jaccard"]))
    tru = dict(zip(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)), truth["jaccard"]))
    assert all(abs(jac[k] - tru[k]) < 1e-12 for k in want)


def test_embedding_lsh_recall_vs_exact(ray_session, sf_dir):
    """The LSH-bucketed approximate variant: precision 1 (every emitted
    cosine is exact and >= threshold) and high recall on the fixture's
    qualifying pairs vs the exact block-pair pipeline."""
    from epichypersketch_jl_ray.pipelines.dedup import dedup_embedding, dedup_embedding_lsh

    exact = dedup_embedding(sf_dir).to_pandas()
    approx = dedup_embedding_lsh(sf_dir).to_pandas()
    want = set(zip(exact["vec_a"].astype(int), exact["vec_b"].astype(int)))
    got = set(zip(approx["vec_a"].astype(int), approx["vec_b"].astype(int)))
    assert got <= want  # precision 1: no pair below threshold can appear
    if want:
        recall = len(got & want) / len(want)
        assert recall >= 0.5, f"recall {recall:.2f} over {len(want)} pairs"


def test_embedding_cosine_near_tie_matches_oracle(ray_session, tmp_path):
    """Planted near ties: vec 1 and vec 2 have a cosine whose decimal
    rounding to 12 places is a tie (np.round rounds it half to even,
    DuckDB's round half away from zero), and vec 1 and vec 3 have a cosine
    just above the threshold whose 2^-16 quantization falls below it. The
    exact pipeline and its SQL oracle quantize the cosine the same binary
    way and compare the quantized value with the threshold: equal frames,
    the tie pair kept, the threshold pair dropped."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.dedup import dedup_embedding, dedup_embedding_sql

    x, y = 0.8289249539375305, 0.3251425325870514  # float32 values
    tie = x / np.sqrt(x * x + y * y)
    assert np.round(tie, 12) != duckdb.sql(f"SELECT round({tie!r}, 12)").fetchone()[0]
    z = 0.450005
    vecs = [[1.0, 0.0, 0.0], [x, y, 0.0], [z, 0.0, np.sqrt(1 - z * z)]]
    tbl = pa.table(
        {
            "vec_id": pa.array([1, 2, 3], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")

    got = dedup_embedding(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{tmp_path}/embeddings.parquet'")
    want = con.sql(dedup_embedding_sql()).df()
    key = ["vec_a", "vec_b"]
    got = got.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.sort_values(key).reset_index(drop=True))
    assert (1, 2) in set(zip(got["vec_a"], got["vec_b"]))
    assert (1, 3) not in set(zip(got["vec_a"], got["vec_b"]))
    assert got["cosine"].iloc[0] == np.floor(tie * 2**16) / 2**16


def test_jaccard_verify_batch_property():
    """jaccard_verify_batch (vectorized lexsort intersection) equals the
    per-pair set computation on random distinct-per-side lists."""
    import numpy as np
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.stages.dedup import jaccard_verify_batch

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 20))
    def check(seed, n_pairs):
        rng = np.random.default_rng(seed)
        la, lb, fa, fb = [], [], [], []
        for _ in range(n_pairs):
            a = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)).astype(np.uint64))
            b = np.unique(rng.integers(0, 50, size=rng.integers(0, 30)).astype(np.uint64))
            fa.append(a)
            fb.append(b)
            la.append(len(a))
            lb.append(len(b))
        def mk(flats, lens):
            off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
            vals = (np.concatenate(flats) if sum(lens) else np.empty(0, np.uint64)).view(np.int64)
            return pa.ListArray.from_arrays(pa.array(off, pa.int32()), pa.array(vals, pa.int64()))
        batch = pa.table(
            {
                "doc_a": pa.array(np.arange(n_pairs), pa.int64()),
                "doc_b": pa.array(np.arange(n_pairs) + 1000, pa.int64()),
                "shingles_a": mk(fa, la),
                "shingles_b": mk(fb, lb),
            }
        )
        out = jaccard_verify_batch(batch)
        for i in range(n_pairs):
            sa, sb = set(fa[i].tolist()), set(fb[i].tolist())
            u = len(sa | sb)
            want = (len(sa & sb) / u) if u else 0.0
            assert abs(out["jaccard"][i].as_py() - want) < 1e-12

    check()


def test_attach_list_column_property(ray_session, monkeypatch):
    """attach_list_column == an inner join attaching the list payload
    (random pairs, some referencing missing keys, which drop), over 7
    buckets."""
    import numpy as np
    import pyarrow as pa

    import ray

    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.stages.dedup import attach_list_column

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 7)

    rng = np.random.default_rng(123)
    doc_ids = np.arange(50, dtype=np.int64)
    lists = {int(d): rng.integers(0, 99, size=rng.integers(1, 8)).tolist() for d in doc_ids}
    pairs_a = rng.integers(0, 60, size=200).astype(np.int64)  # some keys (50-59) missing
    pairs_b = rng.integers(0, 60, size=200).astype(np.int64)
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array(pairs_a), "doc_b": pa.array(pairs_b)})
    )
    shingles = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "shingles": pa.array([lists[int(d)] for d in doc_ids], pa.list_(pa.int64())),
            }
        )
    )
    out = attach_list_column(pairs, "doc_a", shingles, "doc_id", "shingles", "sh_a").to_pandas()
    present = pairs_a < 50
    assert len(out) == present.sum()
    for _, row in out.sample(n=min(30, len(out)), random_state=0).iterrows():
        assert list(row["sh_a"]) == lists[int(row["doc_a"])]


def test_attach_list_column_dedupe_on(ray_session, monkeypatch):
    """dedupe_on drops duplicate pair rows inside each bucket (all duplicates
    of a pair co-locate via the key-side bucket), over 4 buckets."""
    import numpy as np
    import pyarrow as pa

    import ray

    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.stages.dedup import attach_list_column

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 4)

    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "doc_b": pa.array([5, 5, 6, 7, 7], pa.int64()),
            }
        )
    )
    shingles = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "shingles": pa.array([[10, 11], [20]], pa.list_(pa.int64())),
            }
        )
    )
    out = attach_list_column(
        pairs, "doc_a", shingles, "doc_id", "shingles", "sh", dedupe_on=["doc_a", "doc_b"]
    ).to_pandas()
    got = sorted(zip(out["doc_a"], out["doc_b"]))
    assert got == [(1, 5), (1, 6), (2, 7)]


def test_minhash_pairs_empty_candidates(ray_session):
    """A corpus with no shared band buckets returns an empty typed pair set
    instead of crashing on a zero-partial merge."""
    import pyarrow as pa

    import ray

    from epichypersketch_jl_ray.pipelines.dedup import minhash_pairs

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    ["alpha beta gamma delta epsilon", "one two three four five"], pa.string()
                ),
            }
        )
    )
    out = minhash_pairs(ds)
    assert out.count() == 0
    # schema survives at the Dataset level (to_pandas on a zero-row Ray
    # dataset drops columns — a Ray quirk, not a pipeline property)
    assert out.schema().names == ["doc_a", "doc_b", "jaccard"]


def test_minhash_exact_family_mulmod():
    """exact_family=True implements the true universal family
    h_i(x) = (a_i x + b_i) mod (2^61 - 1) — verified against Python big-int
    arithmetic; signatures still estimate Jaccard."""
    import numpy as np

    from epichypersketch_jl_ray.state.minhash import MinHasher, _P, _mulmod_mersenne61

    rng = np.random.default_rng(8)
    P = (1 << 61) - 1
    x = rng.integers(0, P, size=2000, dtype=np.uint64)
    a = rng.integers(0, P, size=2000, dtype=np.uint64)
    got = _mulmod_mersenne61(x, a)
    want = np.array([(int(xi) * int(ai)) % P for xi, ai in zip(x, a)], dtype=np.uint64)
    assert np.array_equal(got, want)

    mh = MinHasher(num_perms=256, seed=5, exact_family=True)
    base = rng.integers(0, 2**63, size=400, dtype=np.uint64)
    other = np.concatenate([base[:200], rng.integers(0, 2**63, size=200, dtype=np.uint64)])
    sa = mh.signature(base)
    sb = mh.signature(other)
    est = (sa == sb).mean()  # true Jaccard = 200/600
    assert abs(est - 200 / 600) < 0.12


def test_ngram_jaccard_matches_exact_oracle(ray_session, sf_dir):
    """dedup_ngram_jaccard is EXACT by construction: pair set and jaccard
    values equal the brute-force SQL all-pairs answer."""
    import duckdb

    from epichypersketch_jl_ray.pipelines.dedup import (
        dedup_ngram_jaccard,
        dedup_ngram_jaccard_sql,
    )

    out = dedup_ngram_jaccard(sf_dir).to_pandas().sort_values(["doc_a", "doc_b"])
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    truth = con.sql(dedup_ngram_jaccard_sql()).df().sort_values(["doc_a", "doc_b"])
    got = list(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)))
    want = list(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)))
    assert got == want
    np.testing.assert_allclose(
        out["jaccard"].to_numpy(), truth["jaccard"].to_numpy(), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("df_cap", [8, 3, 1, 0])
def test_ngram_jaccard_hot_correction_exact(ray_session, sf_dir, df_cap):
    """The hot-set correction routes (cold-only / attach / hot-dominated
    brute) produce EXACTLY the cold-only answer at every df_cap — including
    df_cap=0 where every shingle is hot and everything flows through the
    hot-dominated path. The sf fixtures never trigger the hot path at the
    default cap (max df ~25 < 64), so this sweep is what exercises it."""
    from epichypersketch_jl_ray.pipelines.dedup import ngram_jaccard_pairs
    from epichypersketch_jl_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    base = (
        ngram_jaccard_pairs(ds, threshold=0.5, df_cap=1 << 30)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    got = (
        ngram_jaccard_pairs(ds, threshold=0.5, df_cap=df_cap)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert got.equals(base)


def test_ngram_jaccard_at_10x_planted_families(ray_session, tmp_path):
    """Prefix-filter pipeline on the same 40-family planted corpus the
    minhash 10x test uses: EXACT equality with brute-force SQL — the
    no-false-negative guarantee is structural here, not probabilistic."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.dedup import (
        dedup_ngram_jaccard,
        dedup_ngram_jaccard_sql,
    )

    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(500)]
    docs, ids = [], []
    doc_id = 0
    for fam in range(40):
        base = list(rng.choice(vocab, size=30))
        for member in range(8):
            words = list(base)
            for _ in range(int(rng.integers(0, 4))):
                words[int(rng.integers(0, len(words)))] = str(rng.choice(vocab))
            docs.append(" ".join(words))
            ids.append(doc_id)
            doc_id += 1
    for _ in range(100):
        docs.append(" ".join(rng.choice(vocab, size=25)))
        ids.append(doc_id)
        doc_id += 1
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(docs, pa.string())}),
        sf / "documents.parquet",
    )
    out = dedup_ngram_jaccard(str(sf)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    truth = con.sql(dedup_ngram_jaccard_sql()).df()
    assert len(truth) > 250
    got = set(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)))
    want = set(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)))
    assert got == want
    jac = dict(zip(zip(out["doc_a"].astype(int), out["doc_b"].astype(int)), out["jaccard"]))
    tru = dict(zip(zip(truth["doc_a"].astype(int), truth["doc_b"].astype(int)), truth["jaccard"]))
    assert all(abs(jac[k] - tru[k]) < 1e-12 for k in want)


def test_dedup_incremental_planted(ray_session, tmp_path):
    """Snapshot-incremental dedup: prior slice = doc_id % 3 == 0; new docs
    survive iff their text is absent from the prior snapshot."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.dedup import dedup_incremental

    rows = [
        (0, "already ingested alpha"),
        (3, "already ingested beta"),
        (1, "already ingested alpha"),   # dup of prior 0 -> dropped
        (2, "fresh gamma"),              # novel -> kept
        (4, "already ingested beta"),    # dup of prior 3 -> dropped
        (5, "fresh delta"),              # novel -> kept
        (7, "fresh gamma"),              # dup of NEW doc 2, not of prior -> kept
    ]
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        ),
        sf / "documents.parquet",
    )
    got = sorted(dedup_incremental(str(sf)).to_pandas()["doc_id"])
    assert got == [2, 5, 7]
    # saturated Bloom (capacity 1): everything is a candidate; the exact
    # verify path must produce the identical answer
    sat = sorted(dedup_incremental(str(sf), bloom_capacity=1).to_pandas()["doc_id"])
    assert sat == [2, 5, 7]


def test_dedup_incremental_empty_prior(ray_session, tmp_path):
    """No prior snapshot (no doc_id % 3 == 0 rows): every new doc survives."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.dedup import dedup_incremental

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 4], pa.int64()),
                "text": pa.array(["a", "a", "b"], pa.string()),
            }
        ),
        sf / "documents.parquet",
    )
    got = sorted(dedup_incremental(str(sf)).to_pandas()["doc_id"])
    assert got == [1, 2, 4]
