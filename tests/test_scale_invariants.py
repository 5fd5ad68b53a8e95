"""Scale-critical invariants: int64 counter headroom (the reference's Int32
counters overflow at 10^12 rows, SURVEY.md §7.4), and bit-identical results
across batch sizes / parallelism (the N-vs-4N reproducibility argument)."""

import itertools

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


@pytest.mark.parametrize("blocks", ["arrow", "with_empty_block", "pandas"])
def test_sketch_dataset_equals_in_process_fold(ray_session, blocks):
    """sketch_dataset merges to one in-process merge_many of the same
    per-block batch_size-row slices, a 0-row block contributes no state,
    and pandas blocks fold like Arrow ones."""
    import pyarrow as pa
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset

    def add_keys(cms: CountMin, batch: pa.Table) -> None:
        cms.add_keys(hash_int64(batch["k"].to_numpy(), seed=4))

    def key_cms() -> CountMin:
        return CountMin(1, delta=0.01, epsilon=0.01, seed=5)

    # 1000-row blocks cut into 256-row slices: the last slice of a block is
    # not filled from the next block
    tables = [pa.table({"k": np.arange(i * 1000, i * 1000 + 1000)}) for i in range(3)]
    if blocks == "with_empty_block":
        tables.insert(1, tables[0].slice(0, 0))
    if blocks == "pandas":
        ds = ray.data.from_pandas([t.to_pandas() for t in tables])
    else:
        ds = ray.data.from_arrow(tables)
    slices = []
    for t in tables:
        for i in range(0, len(t), 256):
            slices.append(key_cms())
            add_keys(slices[-1], t.slice(i, 256))
    assert len(slices) == 12
    reference = slices[0].merge_many(slices[1:])
    merged = sketch_dataset(ds, key_cms, add_keys, CountMin, batch_size=256)
    assert merged.digest() == reference.digest()


@pytest.mark.parametrize("weighted", [False, True], ids=["keys", "weighted_keys"])
@pytest.mark.parametrize("shards", [1, 4, 7])
def test_count_at_least_equals_merge_at_least(ray_session, monkeypatch, shards, weighted):
    """count_at_least over blocks of a 1 x 2,719-cell sketch (overlapping
    cells, one block whose in-process sketch is dense and whose 6,000 keys
    key_cells dedups into weighted cells, one 0-row block) equals the
    in-process merge_many of the blocks' sketches with at_least(t): the
    threshold_view of its range sums and totals has the same digest and
    n_inserts, count_totals the same n_inserts and the side count summed.
    Unweighted and weighted keys; 1, 4 and 7 ranges; blocks cut into one
    slice each and into slices of 256 rows; an input with no row raises
    as merge_state_refs does."""
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: shards)
    geometry = CountMin(1, delta=0.5, epsilon=1e-3, seed=5)

    def inserts(batch: pa.Table):
        k = batch["k"].to_numpy()
        return hash_int64(k, seed=4), (k % 3 + 1 if weighted else None)

    def cells(batches: list[pa.Table]) -> tuple:
        parts, n_inserts = [], 0
        for batch in batches:
            keys, w = inserts(batch)
            parts.append(geometry.key_cells(keys, w))
            n_inserts += len(keys) if w is None else int(w.sum())
        return parts, n_inserts, sum(b.num_rows for b in batches)

    rng = np.random.default_rng(2)
    tables = [pa.table({"k": rng.integers(0, n, size=n)}) for n in (900, 300, 0, 6000, 500)]
    partials = [
        CountMin(1, delta=0.5, epsilon=1e-3, seed=5).add_keys(*inserts(t)) for t in tables if len(t)
    ]
    assert [p.dense is not None for p in partials] == [False, False, True, False]
    reference = partials[0].merge_many(partials[1:])
    refs = [ray.put(t) for t in tables]
    for t, batch_size in itertools.product((1, 3, 10**9), (10_000, 256)):
        sums, totals = udaf.count_at_least(refs, cells, geometry, batch_size=batch_size, t=t)
        assert len(sums) == shards
        n_inserts, truncated = udaf.count_totals(totals)
        got = udaf.threshold_view(geometry, ray.get(sums), ray.get(totals))
        want = reference.at_least(t)
        assert truncated == sum(len(x) for x in tables)
        assert got.n_inserts == n_inserts == want.n_inserts == reference.n_inserts
        assert got.digest() == want.digest()
    assert len(geometry.ids) == 0 and geometry.n_inserts == 0  # threshold_view copies
    with pytest.raises(ValueError, match="no partial states"):
        udaf.count_totals(
            udaf.count_at_least([refs[2]], cells, geometry, batch_size=10, t=1)[1]
        )


def test_cms_queries_never_merge_on_the_driver(ray_session, sf_dir, monkeypatch):
    """The motif count and the n-gram count go through the sharded
    threshold merge: neither calls merge_state_refs."""
    from epichypersketch_jl_ray.pipelines import motifs, ngrams
    from epichypersketch_jl_ray.stages import udaf

    def refuse(*args, **kwargs):
        raise AssertionError("merge_state_refs called")

    monkeypatch.setattr(udaf, "merge_state_refs", refuse)
    assert motifs.motifs_ordinary(sf_dir).count() > 0
    assert ngrams.heavy_ngrams(sf_dir).count() > 0


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

    def spy(refs, n_selected, *args, **kwargs):
        selected.append(n_selected)
        return udaf.exact_recount(refs, n_selected, *args, **kwargs)

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
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.pipelines import ngrams
    from epichypersketch_jl_ray.stages import udaf

    def frame(**kwargs) -> pd.DataFrame:
        df = getattr(ngrams, query)(sf_dir, **kwargs).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    exact = frame()
    selected = []

    def spy(refs, n_selected, *args, **kwargs):
        selected.append(pa.concat_tables(ray.get(refs)).to_pandas()["h"].nunique())
        return udaf.exact_recount(refs, n_selected, *args, **kwargs)

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
    full sketch is the threshold merge run with threshold 1, which keeps
    every nonzero cell. The exact recount is bypassed so CMS false survivors
    would show too; per-batch counts are summed so Ray's batching cannot
    differ the runs."""
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.pipelines import ngrams
    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(
        ngrams, "exact_recount", lambda refs, *a, **kw: pa.concat_tables(ray.get(refs))
    )

    def selected() -> pd.DataFrame:
        df = getattr(ngrams, query)(sf_dir).to_pandas()
        keys = [c for c in df.columns if c != "batch_n"]
        return df.groupby(keys, as_index=False)["batch_n"].sum().sort_values(keys, ignore_index=True)

    view = selected()
    monkeypatch.setattr(
        ngrams,
        "count_at_least",
        lambda *args, **kwargs: udaf.count_at_least(*args, **{**kwargs, "t": 1}),
    )
    full = selected()
    assert len(full) > 0
    pd.testing.assert_frame_equal(view, full)


@pytest.mark.parametrize("query", NGRAM_QUERIES)
def test_ngram_count_cells_of_a_block_do_not_depend_on_its_slices(
    ray_session, sf_dir, monkeypatch, query
):
    """The n-gram count hashes the keys of all of a block's slices
    together, so an n-gram repeated across slices is shipped once with its
    count: the raw cells of the whole table cut into 4 slices equal those
    of it as one slice, and are deduped (weighted) cells."""
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.pipelines import ngrams
    from epichypersketch_jl_ray.stages import udaf

    seen = {}

    def capture(blocks, cells, geometry, **kwargs):
        seen.update(blocks=list(blocks), cells=cells, rows=geometry.rows)
        return udaf.count_at_least(seen["blocks"], cells, geometry, **kwargs)

    monkeypatch.setattr(ngrams, "count_at_least", capture)
    getattr(ngrams, query)(sf_dir).materialize()
    tbl = pa.concat_tables(udaf.block_slices(b, 10**9)[0] for b in ray.get(seen["blocks"]))
    whole, n_whole, _ = seen["cells"]([tbl])
    cut, n_cut, _ = seen["cells"](udaf.block_slices(tbl, -(-tbl.num_rows // 4)))
    [(ids, w)], [(cut_ids, cut_w)] = whole, cut
    assert w is not None and n_whole == n_cut and int(w.sum()) == n_whole * seen["rows"]
    np.testing.assert_array_equal(cut_ids, ids)
    np.testing.assert_array_equal(cut_w, w)


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


def _normalized_rows(fixture: str):
    """The reference fixture as normalized occurrence rows (one row per
    feature), shuffled so the activation build has to regroup and sort."""
    import pyarrow as pa

    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.sources import reference_fixtures as rf

    d = rf.make_conv_dict() if fixture == "conv" else rf.make_ordinary_dict()
    act, conv = activation_table_from_dict(d)
    feats = act["features"].combine_chunks()
    flat = feats.flatten()
    cols = {
        "key": np.repeat(act["data_index"].to_numpy(), np.asarray(feats.value_lengths())),
        "feat": flat.field("feature"),
        "contrib": flat.field("contribution"),
    }
    if conv:
        cols["pos"] = flat.field("position")
    rows = pa.table(cols)
    return rows.take(np.random.default_rng(5).permutation(rows.num_rows)), conv


@pytest.mark.parametrize("source", ["arrow", "pandas"])
@pytest.mark.parametrize("fixture", ["ordinary", "conv"])
def test_activation_buckets_equal_one_in_process_build(ray_session, fixture, source):
    """The split/build tasks over a 3-block input with 64 buckets
    (size_hint_rows = 64 * 2**16 on 4 CPUs) give one block per bucket, a 0-row block (with the full schema) for each bucket
    no key hashes to, and, sorted by data_index, exactly the rows of one
    in-process _build_sequences over the whole table; conv sequences stay
    in position order."""
    import pyarrow as pa
    import ray
    import ray.data

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.sources.activation import _build_sequences, activation_from_table

    rows, conv = _normalized_rows(fixture)
    pos = "pos" if conv else None
    cuts = [i * rows.num_rows // 3 for i in range(4)]
    thirds = [rows.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    if source == "pandas":
        ds = ray.data.from_pandas([t.to_pandas() for t in thirds])
    else:
        ds = ray.data.from_arrow(thirds)
    act = activation_from_table(
        ds, key_col="key", feature_col="feat", contribution_col="contrib",
        position_col=pos, size_hint_rows=64 * 2**16,
    )
    blocks = ray.get(act.to_arrow_refs())
    whole = _build_sequences(rows, "key", "feat", "contrib", pos)
    assert len(blocks) == 64
    keys = np.unique(rows["key"].to_numpy())
    unused = 64 - len(np.unique(hash_int64(keys, seed=1) % np.uint64(64)))
    assert sum(b.num_rows == 0 for b in blocks) == unused
    if conv:
        assert unused > 0  # 200 sequences leave some of the 64 buckets empty
    assert all(b.schema == whole.schema for b in blocks)
    got = pa.concat_tables(blocks).sort_by("data_index")
    assert got.equals(whole)
    if conv:
        for seq in got["features"].to_pylist():
            p = [f["position"] for f in seq]
            assert p == sorted(p)


@pytest.mark.parametrize("hint", [None, 1_000, 5 * 2**16 + 1, 9 * 2**16])
def test_activation_default_buckets_are_a_multiple_of_cpus(ray_session, hint):
    """The activation has one block per bucket, and the bucket count is the
    smallest multiple of the cluster's CPU count that is at least
    ceil(size_hint_rows / 2**16): 4, 4, 8 and 12 buckets on the
    session's 4 CPUs; the rows equal one in-process build."""
    import pyarrow as pa
    import ray
    import ray.data

    from epichypersketch_jl_ray.sources.activation import _build_sequences, activation_from_table
    from epichypersketch_jl_ray.stages.udaf import cluster_cpus

    rows, _ = _normalized_rows("ordinary")
    cuts = [i * rows.num_rows // 3 for i in range(4)]
    ds = ray.data.from_arrow([rows.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])
    act = activation_from_table(
        ds, key_col="key", feature_col="feat", contribution_col="contrib", size_hint_rows=hint
    )
    blocks = ray.get(act.to_arrow_refs())
    cpus = cluster_cpus()
    need = -(-(hint or 0) // 2**16)
    assert cpus == 4
    assert len(blocks) % cpus == 0 and len(blocks) >= need
    assert len(blocks) == {None: 4, 1_000: 4, 5 * 2**16 + 1: 8, 9 * 2**16: 12}[hint]
    whole = _build_sequences(rows, "key", "feat", "contrib", None)
    assert pa.concat_tables(blocks).sort_by("data_index").equals(whole)


def test_motif_count_and_select_per_block_equal_one_block(ray_session, caplog):
    """Count and select run one task per activation block. Over blocks of
    uneven size, one of them 0-row and two holding sequences longer than
    max_active_len, the output equals the one-block run, and the warning
    reports the truncations of every block summed. An activation with no
    row at all has no partial state to merge."""
    import logging

    import ray.data

    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.pipelines.motifs import motif_pipeline
    from epichypersketch_jl_ray.sources.reference_fixtures import make_ordinary_dict

    tbl, _ = activation_table_from_dict(make_ordinary_dict())
    cap = 6
    long_rows = np.asarray(tbl["features"].combine_chunks().value_lengths()) > cap
    cuts = [0, 250, 250, 500, tbl.num_rows]  # the second block has 0 rows
    parts = [tbl.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    assert sum(bool(long_rows[a:b].any()) for a, b in zip(cuts[:-1], cuts[1:])) >= 2

    def frame(ds) -> pd.DataFrame:
        df = motif_pipeline(ds, motif_size=3, min_count=8, max_active_len=cap).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    one = frame(ray.data.from_arrow(tbl))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="epichypersketch_jl_ray.pipelines.motifs"):
        several = frame(ray.data.from_arrow(parts))
    assert ray.data.from_arrow(parts).num_blocks() == 4
    pd.testing.assert_frame_equal(one, several)
    assert len(one) > 0
    assert f"{int(long_rows.sum())} sequences truncated to max_active_len={cap}" in caplog.text
    with pytest.raises(ValueError, match="no partial states"):
        motif_pipeline(ray.data.from_arrow(tbl.slice(0, 0)), motif_size=3, min_count=8)
