"""HLL / KLL / t-digest / Bloom kernel tests: published error bounds + merge
associativity (north_rule; FIXTURES.md F5)."""

import numpy as np
import pytest

from epichypersketch_jl_ray.functions.hashing import hash_int64
from epichypersketch_jl_ray.state import BloomFilter, HyperLogLog, KLL, TDigest


def _split_merge(parts_factory, items, splits, seed_order):
    parts = [parts_factory().__class__ for _ in range(splits)]  # unused
    return parts


class TestHLL:
    def test_accuracy_bound(self):
        for n in [100, 1000, 50_000, 200_000]:
            h = HyperLogLog(p=12)
            keys = hash_int64(np.arange(n), seed=99)
            h.update_hashed(keys)
            rse = 1.04 / np.sqrt(h.m)
            assert abs(h.estimate() - n) <= 4 * rse * n + 2, n

    def test_merge_associative(self):
        keys = hash_int64(np.arange(30_000), seed=1)
        whole = HyperLogLog(p=10).update_hashed(keys)
        chunks = np.array_split(keys, 8)
        for order in [range(8), reversed(range(8)), [5, 2, 7, 0, 3, 6, 1, 4]]:
            m = HyperLogLog(p=10)
            for i in order:
                m.merge(HyperLogLog(p=10).update_hashed(chunks[i]))
            assert m.digest() == whole.digest()

    def test_duplicates_dont_inflate(self):
        keys = hash_int64(np.arange(500), seed=3)
        h = HyperLogLog(p=12).update_hashed(np.tile(keys, 50))
        assert abs(h.estimate() - 500) / 500 < 0.1


class TestKLL:
    def test_exact_regime(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1000)
        k = KLL(k=2048)
        k.update(vals)
        s = np.sort(vals)
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]:
            # lower/discrete quantile: smallest item with cumweight >= ceil(q*n)
            expect = s[max(1, int(np.ceil(q * len(s)))) - 1]
            assert k.quantile(q) == expect

    def test_rank_error_bound(self):
        rng = np.random.default_rng(1)
        vals = rng.exponential(size=200_000)
        k = KLL(k=200)
        for c in np.array_split(vals, 40):
            k.update(c)
        s = np.sort(vals)
        for q in [0.1, 0.5, 0.9, 0.99]:
            est = k.quantile(q)
            true_rank = np.searchsorted(s, est) / len(s)
            assert abs(true_rank - q) < 0.03, (q, true_rank)

    def test_merge_bound(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=100_000)
        chunks = np.array_split(vals, 16)
        sketches = [KLL(k=200, seed=7).update(c) for c in chunks]
        m = sketches[0]
        for s in sketches[1:]:
            m.merge(s)
        assert m.n == len(vals)
        srt = np.sort(vals)
        for q in [0.25, 0.5, 0.75]:
            est = m.quantile(q)
            true_rank = np.searchsorted(srt, est) / len(srt)
            assert abs(true_rank - q) < 0.04


class TestTDigest:
    def test_quantile_accuracy(self):
        rng = np.random.default_rng(5)
        vals = rng.lognormal(size=100_000)
        td = TDigest(compression=100)
        for c in np.array_split(vals, 25):
            td.update(c)
        srt = np.sort(vals)
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999]:
            est = td.quantile(q)
            true_rank = np.searchsorted(srt, est) / len(srt)
            # rank error tightens toward the tails for t-digest
            tol = 0.01 if 0.1 <= q <= 0.9 else 0.005
            assert abs(true_rank - q) < tol, (q, true_rank)

    def test_merge(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=50_000)
        parts = [TDigest(100).update(c) for c in np.array_split(vals, 10)]
        m = parts[0]
        for p in parts[1:]:
            m.merge(p)
        assert m.n == len(vals)
        srt = np.sort(vals)
        for q in [0.1, 0.5, 0.9]:
            true_rank = np.searchsorted(srt, m.quantile(q)) / len(srt)
            assert abs(true_rank - q) < 0.02

    def test_centroid_count_bounded(self):
        td = TDigest(compression=100)
        td.update(np.random.default_rng(8).uniform(size=500_000))
        td._compress()
        assert len(td.means) <= 2 * td.compression


class TestBloom:
    def test_no_false_negatives_and_fp_rate(self):
        present = hash_int64(np.arange(10_000), seed=11)
        absent = hash_int64(np.arange(10_000, 60_000), seed=11)
        bf = BloomFilter(capacity=10_000, p=0.01, seed=3)
        bf.add_hashed(present)
        assert bf.contains_hashed(present).all()  # zero false negatives
        fp = bf.contains_hashed(absent).mean()
        assert fp <= 0.02, fp  # ~2x target p head-room

    def test_merge_or(self):
        a_keys = hash_int64(np.arange(500), seed=1)
        b_keys = hash_int64(np.arange(500, 1000), seed=1)
        a = BloomFilter(1000, p=1e-4, seed=2).add_hashed(a_keys)
        b = BloomFilter(1000, p=1e-4, seed=2).add_hashed(b_keys)
        whole = BloomFilter(1000, p=1e-4, seed=2).add_hashed(np.concatenate([a_keys, b_keys]))
        a.merge(b)
        assert a.digest() == whole.digest()
        assert a.contains_hashed(np.concatenate([a_keys, b_keys])).all()

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(100, seed=1).merge(BloomFilter(200, seed=1))


def test_grouped_sketch_merge_order_invariant():
    """GroupedSketch: key-wise merge is associative/commutative for
    digest-stable member sketches (CMS here); missing-key merge adopts."""
    import random

    import numpy as np

    from epichypersketch_jl_ray.state.countmin import CountMin
    from epichypersketch_jl_ray.state.grouped import GroupedSketch

    def factory():
        return CountMin(1, delta=1e-2, epsilon=1e-3, seed=5)

    rng = np.random.default_rng(0)
    keys = ["en", "de", "fr", "ja"]
    updates = [
        (keys[int(rng.integers(0, 4))], rng.integers(0, 1000, size=50).astype(np.uint64))
        for _ in range(40)
    ]
    digests = set()
    for order_seed in range(5):
        parts = []
        for chunk_start in range(0, 40, 8):
            g = GroupedSketch(factory)
            for key, vals in updates[chunk_start : chunk_start + 8]:
                g.get(key).add_keys(vals)
            parts.append(g)
        random.Random(order_seed).shuffle(parts)
        merged = parts[0]
        merged.merge_many(parts[1:])
        digests.add(merged.digest())
        assert sorted(merged.keys()) == sorted(set(k for k, _ in updates))
    assert len(digests) == 1  # identical state for every merge order


def test_grouped_hll_accuracy(ray_session, sf_dir):
    """Per-type HLL estimates within the published rse bound of the exact
    grouped distinct counts."""
    import duckdb

    from epichypersketch_jl_ray.pipelines.merged import distinct_users_hll
    from epichypersketch_jl_ray.pipelines.sketches import distinct_users_by_type_exact_sql

    out = distinct_users_hll(sf_dir)
    approx = out[(out["bucket"] == -1) & (out["event_type"] != "*")].rename(
        columns={"value": "distinct_users_est"}
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')")
    exact = con.sql(distinct_users_by_type_exact_sql()).df().set_index("event_type")["distinct_users"]
    assert set(approx["event_type"]) == set(exact.index)
    for _, row in approx.iterrows():
        true = exact[row["event_type"]]
        # 5 sigma of rse ~= 1.04/sqrt(2^14)
        assert abs(row["distinct_users_est"] - true) / true < 5 * 1.04 / (2**7)


@pytest.mark.parametrize("regime", ["no_empty_register", "raw_estimate_above_2.5m"])
def test_distinct_users_hll_rejects_sketch_outside_linear_counting(monkeypatch, regime):
    """The registry HLL query is oracled by SQL linear counting m*ln(m/V);
    a sketch outside that regime must fail with a message naming it, not
    leave a hash mismatch for the oracle to find."""
    from types import SimpleNamespace

    from epichypersketch_jl_ray.pipelines import merged, sketches

    hll = HyperLogLog(p=14)
    hll.registers[:] = 10
    if regime == "raw_estimate_above_2.5m":
        hll.registers[0] = 0  # V = 1 > 0, but E ~ 1.1e7 > 2.5m
    no_types = SimpleNamespace(keys=lambda: [], parts={})
    monkeypatch.setattr(sketches, "_distinct_users_by_type_sketches", lambda sf_dir: no_types)
    monkeypatch.setattr(sketches, "_distinct_users_hll_sketch", lambda sf_dir: hll)
    with pytest.raises(ValueError, match="outside the linear-counting regime"):
        merged.distinct_users_hll("unused")


@pytest.mark.parametrize(
    "n_chars, in_domain",
    [([1, 40, 1 << 17], True), ([0, 40, 500], False), ([1, 40, (1 << 17) + 1], False)],
)
def test_doc_length_quantiles_approx_rejects_n_chars_outside_pinned_domain(
    ray_session, monkeypatch, n_chars, in_domain
):
    """The ddsketch rows are oracled only where the bucket index is pinned
    against DuckDB, n_chars in [1, 2^17]: a document outside it must fail
    with a message naming the bound, and the bounds themselves pass."""
    import pyarrow as pa
    import ray.data

    from epichypersketch_jl_ray.pipelines import merged, sketches

    docs = pa.table({"n_chars": pa.array(n_chars * 100, pa.int64())})
    monkeypatch.setattr(
        sketches, "read_table", lambda sf_dir, table, columns: ray.data.from_arrow(docs)
    )
    if in_domain:
        out = merged.doc_length_quantiles_approx("unused")
        assert set(out["method"]) == {"tdigest", "ddsketch"}
    else:
        with pytest.raises(ValueError, match=r"outside the \[1, 131072\] domain"):
            merged.doc_length_quantiles_approx("unused")


def test_ddsketch_relative_error_and_merge():
    """DDSketch: every quantile within the alpha relative-error bound of
    the exact order statistic; merge == single-sketch build (bucket-wise
    exact); zero/negative handling."""
    import numpy as np
    import pytest

    from epichypersketch_jl_ray.state.ddsketch import DDSketch

    rng = np.random.default_rng(9)
    vals = np.concatenate(
        [rng.lognormal(5, 2, size=20_000), np.zeros(50)]  # heavy-tailed + zeros
    )
    alpha = 0.01
    whole = DDSketch(alpha).update(vals)
    parts = [DDSketch(alpha).update(c) for c in np.array_split(vals, 7)]
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.digest() == whole.digest()  # merge is exact
    s = np.sort(vals)
    for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        true = s[int(q * (len(s) - 1))]
        got = whole.quantile(q)
        if true == 0:
            assert got == 0
        else:
            assert abs(got - true) / true <= alpha + 1e-9, (q, got, true)
    with pytest.raises(ValueError):
        DDSketch(alpha).update(np.array([-1.0]))
    with pytest.raises(ValueError):
        DDSketch(0.01).merge(DDSketch(0.02))


def test_ddsketch_pipeline(ray_session, sf_dir):
    import duckdb

    from epichypersketch_jl_ray.pipelines.sketches import QS, doc_length_quantiles_dd

    out = doc_length_quantiles_dd(sf_dir)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')")
    for q, got in zip(out["q"], out["n_chars_q"]):
        true = con.sql(f"SELECT quantile_disc(n_chars, {q}) FROM documents").fetchone()[0]
        assert abs(got - true) / true <= 0.011


def test_theta_sketch_bounds_and_merge():
    import numpy as np

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.state.theta import ThetaSketch

    rng = np.random.default_rng(4)
    a_ids = rng.choice(200_000, size=50_000, replace=False)
    b_ids = np.concatenate([a_ids[:20_000], 200_000 + np.arange(30_000)])  # |A∩B|=20k
    ha, hb = hash_int64(a_ids, seed=1), hash_int64(b_ids, seed=1)
    # merge == single build
    whole = ThetaSketch(4096).update_hashed(ha)
    parts = [ThetaSketch(4096).update_hashed(c) for c in np.array_split(ha, 5)]
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.digest() == whole.digest()
    # cardinality / set-expression bounds: 5 sigma of rse ~ 1/sqrt(k-1)
    tol = 5 / np.sqrt(4095)
    tb = ThetaSketch(4096).update_hashed(hb)
    assert abs(whole.estimate() - 50_000) / 50_000 < tol
    assert abs(tb.estimate() - 50_000) / 50_000 < tol
    inter = ThetaSketch.intersection_estimate(whole, tb)
    assert abs(inter - 20_000) / 20_000 < 3 * tol  # intersection rse is larger
    union = ThetaSketch.union_estimate(whole, tb)
    assert abs(union - 80_000) / 80_000 < tol


def test_user_overlap_theta_pipeline(ray_session, sf_dir):
    import duckdb

    from epichypersketch_jl_ray.pipelines.sketches import user_overlap_theta

    out = user_overlap_theta(sf_dir).set_index("set_expr")["estimate"]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')")
    exact = {
        "click_users": "SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type='click'",
        "purchase_users": "SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type='purchase'",
        "click_and_purchase": """SELECT COUNT(*) FROM (
            SELECT user_id FROM events WHERE event_type='click'
            INTERSECT SELECT user_id FROM events WHERE event_type='purchase')""",
        "click_or_purchase": """SELECT COUNT(*) FROM (
            SELECT user_id FROM events WHERE event_type='click'
            UNION SELECT user_id FROM events WHERE event_type='purchase')""",
    }
    for expr, sql in exact.items():
        true = con.sql(sql).fetchone()[0]
        # sf fixtures are below theta capacity -> estimates are EXACT
        assert out[expr] == true, (expr, out[expr], true)


def test_user_overlap_theta_registered_oracle(ray_session, sf_dir):
    """Driver-mirror: the registered user_overlap_theta_sql() exact twin
    hash-matches the theta frame (exact below capacity)."""
    from oracle_util import compare, duck_con

    from epichypersketch_jl_ray.pipelines.sketches import (
        user_overlap_theta,
        user_overlap_theta_sql,
    )

    con = duck_con(sf_dir)
    problems = compare(
        "user_overlap_theta", user_overlap_theta(sf_dir), con.sql(user_overlap_theta_sql()).df()
    )
    assert not problems, problems


def test_grouped_sketch_merge_copies_adopted_parts():
    """Merging must COPY sketches adopted from `other` (missing-key case):
    later updates to the merged sketch must not mutate `other`'s state
    (ADVICE r2: reference-adoption was a trap for the public API)."""
    import numpy as np

    from epichypersketch_jl_ray.state.grouped import GroupedSketch
    from epichypersketch_jl_ray.state.hll import HyperLogLog

    def factory():
        return HyperLogLog(p=10, seed=3)

    a, b = GroupedSketch(factory), GroupedSketch(factory)
    b.get("en").update_hashed(np.arange(100, dtype=np.uint64))
    before = b.parts["en"].digest()
    a.merge(b)
    a.parts["en"].update_hashed(np.arange(100, 200, dtype=np.uint64))
    assert b.parts["en"].digest() == before  # b untouched by a's updates


def test_grouped_update_native_scalar_keys():
    """grouped_update with a NUMERIC key column must produce parts keyed by
    the native scalar, so g.get(5) round-trips (ADVICE r2: str() coercion
    diverged from direct lookups)."""
    import numpy as np

    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update
    from epichypersketch_jl_ray.state.hll import HyperLogLog

    g = GroupedSketch(lambda: HyperLogLog(p=10, seed=3))
    keys = np.array([5, 5, 7, 7, 7], dtype=np.int64)
    vals = np.arange(5, dtype=np.int64)
    grouped_update(g, keys, vals, lambda sk, v: sk.update_hashed(v.astype('uint64')))
    assert set(g.parts) == {5, 7}
    assert g.get(5) is g.parts[5]


def test_ddsketch_rejects_nan():
    import numpy as np
    import pytest

    from epichypersketch_jl_ray.state.ddsketch import DDSketch

    d = DDSketch(alpha=0.01)
    with pytest.raises(ValueError):
        d.update(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        d.update(np.array([np.inf]))
    assert d.count == 0  # nothing half-applied


def test_theta_sketch_integer_domain_no_mantissa_collisions():
    """Retained values stay uint64: adjacent large hashes that would collide
    after a float64 mapping (low ~11 bits lost) must remain distinct
    (ADVICE r2)."""
    import numpy as np

    from epichypersketch_jl_ray.state.theta import ThetaSketch

    base = np.uint64(0xFFFFFFFFFFFFF000)
    hashes = base + np.arange(16, dtype=np.uint64)  # distinct, high magnitude
    t = ThetaSketch(16).update_hashed(hashes)
    assert t.values.dtype == np.uint64
    assert len(t.values) == 16  # float64 rounding would have merged some
    # estimate path still works and theta is in (0, 1]
    assert 0.0 < t.theta <= 1.0
    assert t.estimate() > 0


def test_kll_merge_order_byte_canonical_lossy_regime():
    """Merging a fixed set of COMPRESSED (lossy, n >> capacity) KLL partials
    must give byte-identical state and bytes for every merge order — the
    coin is content-keyed and merge defers compaction, so order cannot leak
    into the state."""
    import random

    rng = np.random.default_rng(11)
    vals = rng.normal(size=40_000)
    partial_bytes = [
        KLL(k=64, seed=5).update(c).to_bytes() for c in np.array_split(vals, 12)
    ]
    digests, blobs = set(), set()
    for order_seed in range(6):
        idx = list(range(len(partial_bytes)))
        random.Random(order_seed).shuffle(idx)
        acc = KLL.from_bytes(partial_bytes[idx[0]])
        for i in idx[1:]:
            acc.merge(KLL.from_bytes(partial_bytes[i]))
        digests.add(acc.digest())
        blobs.add(acc.to_bytes())
    assert len(digests) == 1
    assert len(blobs) == 1
    # and the merged sketch still answers within the KLL bound
    acc = KLL.from_bytes(next(iter(blobs)))
    s = np.sort(vals)
    for q in (0.1, 0.5, 0.9):
        est = acc.quantile(q)
        r = np.searchsorted(s, est) / len(s)
        assert abs(r - q) < 0.15


def test_tdigest_merge_order_byte_canonical_lossy_regime():
    """Same property for t-digest: concatenate-deferred merge + lexsorted
    canonical compression -> byte-identical merged digests per order."""
    import random

    rng = np.random.default_rng(12)
    vals = rng.exponential(size=30_000)
    partial_bytes = [
        TDigest(compression=50).update(c).to_bytes() for c in np.array_split(vals, 10)
    ]
    digests, blobs, q50 = set(), set(), set()
    for order_seed in range(6):
        idx = list(range(len(partial_bytes)))
        random.Random(order_seed).shuffle(idx)
        acc = TDigest.from_bytes(partial_bytes[idx[0]])
        for i in idx[1:]:
            acc.merge(TDigest.from_bytes(partial_bytes[i]))
        digests.add(acc.digest())
        blobs.add(acc.to_bytes())
        q50.add(acc.quantile(0.5))
    assert len(digests) == 1
    assert len(blobs) == 1
    assert len(q50) == 1
    assert abs(next(iter(q50)) - np.quantile(vals, 0.5)) < 0.05


def test_digest_leaves_state_unchanged():
    """digest() hashes a compacted COPY: a merged (compaction-deferred) KLL,
    a t-digest with a pending buffer and a WebSketchState holding both keep
    their pickled state, and answer quantile(0.5) and serialize exactly as
    a twin built the same way that was never digested."""
    import pickle

    from epichypersketch_jl_ray.state.websketch import WebSketchState

    parts = np.array_split(np.random.default_rng(13).exponential(size=20_000), 8)

    def kll():
        out = KLL(k=32, seed=5)
        for p in parts:
            out.merge(KLL(k=32, seed=5).update(p))
        return out

    def web():
        states = []
        for p in parts[:4]:
            lengths = np.round(p * 100).astype(np.int64)
            states.append(
                WebSketchState(
                    delta=0.1, epsilon=0.01, kll_k=32, compression=50, bloom_capacity=1024
                ).update(
                    ngram_keys=hash_int64(lengths, seed=1),
                    url_hashes=hash_int64(lengths, seed=2),
                    text_lengths=lengths,
                )
            )
        return states[0].merge_many(states[1:])

    for build, quantile in (
        (kll, KLL.quantile),
        (lambda: TDigest(compression=50).update(parts[0]).update(parts[1][:300]), TDigest.quantile),
        (web, lambda s, q: (s.kll.quantile(q), s.tdigest.quantile(q))),
    ):
        state, twin = build(), build()
        before = pickle.dumps(state)
        digest = state.digest()
        assert pickle.dumps(state) == before
        assert state.digest() == digest
        assert quantile(state, 0.5) == quantile(twin, 0.5)
        assert state.to_bytes() == twin.to_bytes()
