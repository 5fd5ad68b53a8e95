"""Scale-critical invariants: int64 counter headroom (the reference's Int32
counters overflow at 10^12 rows, SURVEY.md §7.4), and bit-identical results
across batch sizes / parallelism (the N-vs-4N reproducibility argument)."""

import numpy as np
import pandas as pd
import pytest

from epichypersketch_jl_ray.state.countmin import CountMin
from epichypersketch_jl_ray.state.hll import HyperLogLog


def test_countmin_counters_beyond_int32():
    """Weighted inserts past 2^31 — the exact point where the reference's
    Int32 sketch (/root/reference/src/sketch.jl:59) would wrap negative."""
    cm = CountMin(1, delta=0.01, epsilon=0.01, seed=3)
    big = np.int64(3_000_000_000)  # > 2^31 - 1
    cm.add(np.array([[7]]), weights=np.array([big]))
    cm.add(np.array([[7]]), weights=np.array([big]))
    assert cm.estimate(np.array([[7]]))[0] == 2 * big
    assert cm.n_inserts == 2 * big
    # survives serialization and merge
    other = CountMin.from_bytes(cm.to_bytes())
    cm.merge(other)
    assert cm.estimate(np.array([[7]]))[0] == 4 * big


def test_motif_results_invariant_to_batch_size(ray_session):
    """Same activation input, different map_batches batch sizes -> identical
    output rows and estimates (batching must never leak into results)."""
    from epichypersketch_jl_ray.pipelines.motifs import motif_pipeline
    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.sources.reference_fixtures import make_ordinary_dict
    import ray.data

    tbl, _ = activation_table_from_dict(make_ordinary_dict())
    outs = []
    for bs in (64, 2048):
        ds = ray.data.from_arrow(tbl)
        df = motif_pipeline(ds, motif_size=3, min_count=8, batch_size=bs).to_pandas()
        cols = sorted(df.columns)
        outs.append(df[cols].sort_values(cols).reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_hll_register_merge_is_max_not_add():
    """Merging the same data twice must NOT inflate the estimate."""
    from epichypersketch_jl_ray.functions.hashing import hash_int64

    keys = hash_int64(np.arange(5000), seed=2)
    a = HyperLogLog(p=12).update_hashed(keys)
    b = HyperLogLog(p=12).update_hashed(keys)
    est_before = a.estimate()
    a.merge(b)
    assert a.estimate() == est_before


def _tree_merge_equals_merge_many(parts, cls) -> bool:
    """tree_merge over one state block per partial equals ONE in-process
    merge_many of the same partials. More than MERGE_FANOUT**2 blocks, so a
    remote merge round runs before the driver finish."""
    import ray.data

    from epichypersketch_jl_ray.stages import udaf

    assert len(parts) > udaf.MERGE_FANOUT**2
    states = ray.data.from_arrow([udaf._state_table([p]) for p in parts])
    reference = parts[0].merge_many(parts[1:])  # after serializing: mutates parts[0]
    return udaf.tree_merge(states, cls).digest() == reference.digest()


def test_tree_merge_equals_merge_many_hll(ray_session):
    from epichypersketch_jl_ray.functions.hashing import hash_int64

    parts = [
        HyperLogLog(p=10).update_hashed(hash_int64(ids, seed=3))
        for ids in np.array_split(np.arange(50_000), 80)
    ]
    assert _tree_merge_equals_merge_many(parts, HyperLogLog)


def test_tree_merge_equals_merge_many_coo_countmin(ray_session):
    """The COO CountMin regression guard: grouped remote merges + driver
    finish must give byte-identical state to one k-way merge_many (round-4
    found the pairwise fold was quadratic AND order-sensitive flushes could
    diverge; this pins both semantics and determinism, sparse and
    densified)."""
    from epichypersketch_jl_ray.functions.hashing import hash_int64

    for eps in (1e-5, 1e-2):  # sparse regime, dense regime
        parts = [
            CountMin(1, delta=0.01, epsilon=eps, seed=5).add_keys(hash_int64(ids % 997, seed=4))
            for ids in np.array_split(np.arange(30_000), 80)
        ]
        assert _tree_merge_equals_merge_many(parts, CountMin), f"eps={eps}"


@pytest.mark.parametrize("per_block", [False, True])
@pytest.mark.parametrize("with_empty_block", [False, True])
def test_partial_states_merge_equals_in_process_fold(ray_session, with_empty_block, per_block):
    """Both partial_states modes merge to one in-process merge_many of the
    same batch_size-row slices, and a 0-row block contributes no state (Ray
    passes an empty block through a batch_size=None map as a 0-row block
    without a ``state`` column, which tree_merge must skip). per_block=True
    folds each block's slices into ONE state."""
    import pyarrow as pa
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages.udaf import partial_states, tree_merge

    def key_cms(batch: pa.Table) -> CountMin:
        keys = hash_int64(batch["k"].to_numpy(), seed=4)
        return CountMin(1, delta=0.01, epsilon=0.01, seed=5).add_keys(keys)

    blocks = [pa.table({"k": np.arange(i * 1000, i * 1000 + 1000)}) for i in range(3)]
    if with_empty_block:
        blocks.insert(1, blocks[0].slice(0, 0))
    ds = ray.data.from_arrow(blocks)
    states = partial_states(ds, key_cms, batch_size=256, per_block=per_block).materialize()
    if per_block:
        assert states.count() == 3
    slices = [key_cms(t.slice(i, 256)) for t in blocks for i in range(0, len(t), 256)]
    assert len(slices) == 12
    reference = slices[0].merge_many(slices[1:])
    assert tree_merge(states, CountMin).digest() == reference.digest()


def test_tree_merge_auto_bounds_driver_states(ray_session, monkeypatch):
    """tree_merge with a forced 10k-partial run: the driver must
    deserialize at most MERGE_FANOUT**2 states — everything else is
    pre-merged by remote tasks over object-store block refs. The counter is
    a driver-process monkeypatch; remote workers import the library fresh,
    so only driver-side from_bytes calls are counted."""
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages.udaf import MERGE_FANOUT, _state_table, tree_merge

    n_partials, per_block = 10_000, 10
    parts = []
    reference = HyperLogLog(p=4)
    for i in range(n_partials):
        keys = hash_int64(np.arange(i * 3, i * 3 + 3), seed=9)
        parts.append(HyperLogLog(p=4).update_hashed(keys))
        reference.update_hashed(keys)
    tables = [_state_table(parts[i : i + per_block]) for i in range(0, n_partials, per_block)]
    states = ray.data.from_arrow(tables)  # 1000 blocks x 10 states

    calls = {"n": 0}
    orig = HyperLogLog.from_bytes.__func__

    def counting_from_bytes(cls, data):
        calls["n"] += 1
        return orig(cls, data)

    monkeypatch.setattr(HyperLogLog, "from_bytes", classmethod(counting_from_bytes))
    merged = tree_merge(states, HyperLogLog)
    assert calls["n"] <= MERGE_FANOUT * MERGE_FANOUT, calls["n"]
    assert merged.digest() == reference.digest()


def test_motif_k2(ray_session):
    """motif_size=2 (pairs) works end-to-end, ordinary and conv."""
    from epichypersketch_jl_ray.api import obtain_enriched_configurations

    d = {i: [(5, 1.0), (9, 2.0), (100 + i, 1.0)] for i in range(1, 11)}
    out = obtain_enriched_configurations(d, motif_size=2, min_count=10)
    pair = out[(out.m1 == 5) & (out.m2 == 9)]
    assert len(pair) == 10
    assert (pair["estimate"] == 10).all()
    assert np.allclose(pair["contribution"], 3.0)

    dc = {i: [(5, 1.0, 0), (9, 1.0, 12)] for i in range(1, 11)}
    outc = obtain_enriched_configurations(dc, motif_size=2, min_count=10, filter_len=8)
    assert len(outc) == 10
    assert (outc["d12"] == 4).all()
    assert (outc["end"] == 19).all()


def _fixture_motifs(fixture: str, **kwargs):
    """motif_pipeline over a reference fixture (k=3, planted counts 8..25)."""
    import ray.data

    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.pipelines.motifs import motif_pipeline
    from epichypersketch_jl_ray.sources import reference_fixtures as rf

    if fixture == "conv":
        tbl, _ = activation_table_from_dict(rf.make_conv_dict())
        kwargs.update(conv=True, filter_len=rf.FILTER_LEN)
    else:
        tbl, _ = activation_table_from_dict(rf.make_ordinary_dict())
    return motif_pipeline(ray.data.from_arrow(tbl), motif_size=3, **kwargs)


@pytest.mark.parametrize("recount", ["driver", "groupby"])
@pytest.mark.parametrize("fixture", ["ordinary", "conv"])
def test_motif_exact_verify_survives_coarse_sketch(ray_session, monkeypatch, fixture, recount):
    """A deliberately under-sized CMS (55 columns — massive collisions) must
    still produce EXACTLY the collision-free output: the exact-recount tail
    (stages/udaf.exact_recount) drops CMS false survivors and replaces
    inflated estimates with exact counts. Guards the round-4 sf0.1 finding
    that no fixed geometry stays collision-free as the distinct-combination
    count grows. The coarse run recounts in the driver (default gate) or
    through the bucket groupby (gate 0); both must give the default-gate,
    collision-free output."""
    from epichypersketch_jl_ray.pipelines import motifs as pm
    from epichypersketch_jl_ray.stages import udaf

    def frame(**kwargs) -> pd.DataFrame:
        df = _fixture_motifs(fixture, min_count=8, **kwargs).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    exact = frame(delta=9e-3, epsilon=3.24e-7)
    selected = []

    def spy(out, *args, **kwargs):
        selected.append(out.count())
        return udaf.exact_recount(out, *args, **kwargs)

    monkeypatch.setattr(pm, "exact_recount", spy)
    if recount == "groupby":
        monkeypatch.setattr(udaf, "DRIVER_RECOUNT_MAX_ROWS", 0)
    coarse = frame(delta=0.5, epsilon=0.05)  # 1x55 sketch
    pd.testing.assert_frame_equal(exact, coarse)
    assert len(exact) > 0
    assert selected[0] > len(coarse)  # the recount dropped CMS false survivors


@pytest.mark.parametrize("fixture", ["ordinary", "conv"])
def test_motif_empty_selection_keeps_schema(ray_session, fixture):
    """A min_count above every count selects nothing; the result is a 0-row
    dataset that still has every typed output column."""
    import pyarrow as pa

    ds = _fixture_motifs(fixture, min_count=10**6)
    i32, i64 = pa.int32(), pa.int64()
    cols = [("m1", i32), ("m2", i32), ("m3", i32)]
    if fixture == "conv":
        cols += [("d12", i32), ("d23", i32), ("start", i32), ("end", i32)]
    cols += [("data_index", i64), ("contribution", pa.float64()), ("estimate", i64)]
    assert ds.count() == 0
    schema = ds.schema()
    assert list(zip(schema.names, schema.types)) == cols


NGRAM_QUERIES = ["heavy_ngrams", "heavy_ngrams_by_lang"]


@pytest.mark.parametrize("recount", ["driver", "groupby"])
@pytest.mark.parametrize("query", NGRAM_QUERIES)
def test_heavy_ngrams_exact_verify_survives_coarse_sketch(
    ray_session, sf_dir, monkeypatch, query, recount
):
    """Same guard as the motif one, for the n-gram heavy hitters: a 55-column
    CMS (massive collisions) must produce exactly the collision-free output.
    The coarse run selects in 64-row batches, so an n-gram's rows spread
    over several batches; the recount sums their per-batch counts and drops
    CMS false survivors, in the driver (default gate) or through the bucket
    groupby (gate 0)."""
    from epichypersketch_jl_ray.pipelines import ngrams
    from epichypersketch_jl_ray.stages import udaf

    def frame(**kwargs) -> pd.DataFrame:
        df = getattr(ngrams, query)(sf_dir, **kwargs).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    exact = frame()
    selected = []

    def spy(out, *args, **kwargs):
        selected.append(out.to_pandas()["h"].nunique())
        return udaf.exact_recount(out, *args, **kwargs)

    monkeypatch.setattr(ngrams, "exact_recount", spy)
    monkeypatch.setattr(ngrams, "NGRAM_DELTA", 0.5)
    monkeypatch.setattr(ngrams, "NGRAM_EPSILON", 0.05)  # 1x55 sketch
    if recount == "groupby":
        monkeypatch.setattr(udaf, "DRIVER_RECOUNT_MAX_ROWS", 0)
    coarse = frame(batch_size=16)  # selects in batches of 4 * 16 rows
    pd.testing.assert_frame_equal(exact, coarse)
    assert len(exact) > 0
    assert selected[0] > len(coarse)  # the recount dropped CMS false survivors


@pytest.mark.parametrize("query", NGRAM_QUERIES)
def test_heavy_ngrams_empty_selection_keeps_schema(ray_session, sf_dir, query):
    """A min_count above every count selects nothing; the result is a 0-row
    dataset that still has every typed output column."""
    import pyarrow as pa

    from epichypersketch_jl_ray.pipelines import ngrams

    ds = getattr(ngrams, query)(sf_dir, min_count=10**9)
    cols = [("lang", pa.string())] if query == "heavy_ngrams_by_lang" else []
    cols += [("ngram", pa.string()), ("estimate", pa.int64())]
    assert ds.count() == 0
    schema = ds.schema()
    assert list(zip(schema.names, schema.types)) == cols


@pytest.mark.parametrize("query", NGRAM_QUERIES)
def test_heavy_ngrams_selection_same_on_threshold_view(ray_session, sf_dir, monkeypatch, query):
    """The select pass emits the same n-grams whether it reads the merged
    sketch or the ``at_least(min_count)`` view the pipeline broadcasts. The
    exact recount is bypassed so CMS false survivors would show too;
    per-batch counts are summed so Ray's batching cannot differ the runs."""
    from epichypersketch_jl_ray.pipelines import ngrams

    monkeypatch.setattr(ngrams, "exact_recount", lambda selected, *a, **kw: selected)

    def selected() -> pd.DataFrame:
        df = getattr(ngrams, query)(sf_dir).to_pandas()
        keys = [c for c in df.columns if c != "batch_n"]
        return df.groupby(keys, as_index=False)["batch_n"].sum().sort_values(keys, ignore_index=True)

    view = selected()
    monkeypatch.setattr(CountMin, "at_least", lambda self, t: self)
    full = selected()
    assert len(full) > 0
    pd.testing.assert_frame_equal(view, full)


def test_broadcast_cache_is_bounded_lru(ray_session):
    """The per-worker broadcast memo must not grow with the number of
    broadcasts in a session: iterative engines put one node-scale vector
    per iteration, so the cache is a bounded LRU with explicit eviction
    for superseded refs."""
    import ray

    from epichypersketch_jl_ray.stages import udaf

    udaf._BROADCAST_CACHE.clear()
    refs = [ray.put(i) for i in range(udaf._BROADCAST_CACHE_MAX + 10)]
    for i, r in enumerate(refs):
        assert udaf.broadcast_get(r) == i
    assert len(udaf._BROADCAST_CACHE) == udaf._BROADCAST_CACHE_MAX
    # oldest entries evicted, newest retained (and still readable via ray.get)
    assert udaf.broadcast_get(refs[-1]) == len(refs) - 1
    assert udaf.broadcast_get(refs[0]) == 0  # re-fetch after eviction works
    # explicit eviction of a superseded ref drops it immediately
    udaf.broadcast_evict(refs[-1])
    key = refs[-1].hex()
    assert key not in udaf._BROADCAST_CACHE
    udaf._BROADCAST_CACHE.clear()
