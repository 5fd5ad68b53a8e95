"""Join and hash-exchange tests: the bucketed hash join vs pandas ground
truth, the as-of join vs pandas merge_asof, the exchange's bucket rule and
group_aggregate, its parquet input units (``parquet_source``,
``input_units``), and guards that the registered queries group and join on
the exchange only and that a bare parquet read enters it unread by Ray
Data."""

import numpy as np
import pandas as pd
import pytest


def test_bucketed_hash_join_matches_pandas(ray_session):
    import ray.data

    from epichypersketch_jl_ray.stages.join import bucketed_hash_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 50, 500), "lv": rng.integers(0, 1000, 500)})
    right = pd.DataFrame({"rk": np.arange(0, 60), "rv": np.arange(100, 160)})
    out = bucketed_hash_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        left_on="k",
        right_on="rk",
    ).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk", how="inner")
    cols = ["k", "lv", "rk", "rv"]
    a = out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    b = want[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(a, b)


def test_bucketed_asof_join_matches_pandas(ray_session):
    import ray.data

    from epichypersketch_jl_ray.stages.join import bucketed_asof_join

    rng = np.random.default_rng(4)
    left = pd.DataFrame(
        {"u": rng.integers(0, 10, 200), "t": rng.integers(0, 10_000, 200).astype("int64")}
    )
    right = pd.DataFrame(
        {
            "u": rng.integers(0, 10, 100),
            "t": rng.integers(0, 10_000, 100).astype("int64"),
            "v": rng.integers(0, 100, 100).astype("int64"),
        }
    ).drop_duplicates(subset=["u", "t"])
    out = bucketed_asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), by="u", on="t"
    ).to_pandas()
    want = pd.merge_asof(
        left.sort_values("t", kind="stable"),
        right.sort_values("t", kind="stable").rename(columns={"t": "t_r", "v": "v_r"}),
        left_on="t",
        right_on="t_r",
        by="u",
        direction="backward",
        allow_exact_matches=True,
    ).dropna(subset=["t_r"])
    cols = ["u", "t", "t_r", "v_r"]
    a = out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    b = want[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(a, b)


def test_hash_join_keeps_all_null_columns_within_bucket(ray_session):
    """A nullable payload column that is entirely null inside one bucket must
    survive the join with nulls (the old dropna(axis=1) silently dropped it,
    producing inconsistent per-group schemas)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray

    from epichypersketch_jl_ray.stages.join import bucketed_hash_join

    keys = np.arange(200, dtype=np.int64)
    left = ray.data.from_arrow(
        pa.table({"k": pa.array(keys, pa.int64()), "lv": pa.array(keys * 2, pa.int64())})
    )
    # note: only key 0's rows carry a non-null payload -> in every bucket but
    # key 0's, "note" is all-null
    note = pa.array(["hit" if k == 0 else None for k in keys], pa.string())
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array(keys, pa.int64()), "note": note})
    )
    out = bucketed_hash_join(left, right, left_on="k", right_on="rk").to_pandas()
    assert len(out) == 200
    assert "note" in out.columns
    assert out.loc[out["k"] == 0, "note"].iloc[0] == "hit"
    assert out["note"].isna().sum() == 199


def _three_block_ds(df, source):
    """``df`` as a Dataset of three pandas or Arrow blocks (some may be
    0-row)."""
    import pyarrow as pa
    import ray.data

    parts = [df.iloc[i::3].reset_index(drop=True) for i in range(3)]
    if source == "pandas":
        return ray.data.from_pandas(parts)
    return ray.data.from_arrow([pa.Table.from_pandas(p, preserve_index=False) for p in parts])


def _sorted_int64(df, cols):
    return df[cols].sort_values(cols).reset_index(drop=True).astype("int64")


@pytest.mark.parametrize("source", ["pandas", "arrow"])
@pytest.mark.parametrize("right_keys", ["empty", "one_key"])
def test_joins_with_empty_buckets_keep_rows_and_schema(ray_session, source, right_keys):
    """A right side with no row, or with one key only, leaves most buckets
    0-row. The hash and as-of joins still equal pandas merge / merge_asof,
    and every output block, the 0-row ones too, has the join's schema (an
    empty bucket is the case relational.local_supplier_volume's sparse
    region-filtered dimension side hits)."""
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.stages.join import bucketed_asof_join, bucketed_hash_join

    rng = np.random.default_rng(5)
    left = pd.DataFrame(
        {"k": rng.integers(0, 40, 300), "t": rng.integers(0, 10_000, 300)}
    ).astype("int64")
    right = pd.DataFrame(
        {"k": np.arange(40), "t": rng.integers(0, 10_000, 40), "v": np.arange(100, 140)}
    ).astype("int64")
    right = right.iloc[:0] if right_keys == "empty" else right[right["k"] == 7]
    i64 = pa.int64()

    def run(join, want, names):
        blocks = ray.get(join.to_arrow_refs())
        assert len(blocks) > 1 and any(b.num_rows == 0 for b in blocks)
        assert all(b.schema == pa.schema([(c, i64) for c in names]) for b in blocks)
        got = pa.concat_tables(blocks).to_pandas()
        pd.testing.assert_frame_equal(_sorted_int64(got, names), _sorted_int64(want, names))

    hashed = bucketed_hash_join(
        _three_block_ds(left[["k", "t"]], source),
        _three_block_ds(right.rename(columns={"k": "rk"})[["rk", "v"]], source),
        left_on="k",
        right_on="rk",
    )
    want = left.merge(right.rename(columns={"k": "rk"})[["rk", "v"]], left_on="k", right_on="rk")
    run(hashed, want, ["k", "t", "rk", "v"])

    asof = bucketed_asof_join(
        _three_block_ds(left, source), _three_block_ds(right, source), by="k", on="t"
    )
    want = pd.merge_asof(
        left.sort_values("t", kind="stable"),
        right.sort_values("t", kind="stable").rename(columns={"t": "t_r", "v": "v_r"}),
        left_on="t",
        right_on="t_r",
        by="k",
        direction="backward",
        allow_exact_matches=True,
    ).dropna(subset=["t_r"])
    run(asof, want, ["k", "t", "t_r", "v_r"])


def test_exchange_users_run_no_ray_data_all_to_all(ray_session, monkeypatch):
    """The three joins, the activation and the bucketed exact recount all
    run on stages/exchange, never on a Ray Data groupby, union, sort or
    repartition: each raises for the length of this test. The recount over
    the exchange equals the driver recount."""
    import pyarrow as pa
    import ray
    import ray.data

    from epichypersketch_jl_ray.pipelines.motifs import _recount
    from epichypersketch_jl_ray.sources.activation import activation_from_table
    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.stages.join import (
        bucketed_asof_join,
        bucketed_hash_join,
        bucketed_range_count_join,
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a Ray Data all-to-all ran")

    for name in ("groupby", "union", "sort", "repartition", "random_shuffle"):
        monkeypatch.setattr(ray.data.Dataset, name, forbidden)

    rng = np.random.default_rng(9)
    n = 2_000
    left = pa.table({"k": rng.integers(0, 50, n), "t": rng.integers(0, 10_000, n)})
    right = pa.table({"k": rng.integers(0, 50, 200), "t": rng.integers(0, 10_000, 200)})
    ds = lambda t: ray.data.from_arrow([t.slice(0, len(t) // 2), t.slice(len(t) // 2)])
    joined = bucketed_hash_join(
        ds(left), ds(right.rename_columns(["rk", "rt"])), left_on="k", right_on="rk"
    )
    assert joined.count() == len(left.to_pandas().merge(right.to_pandas(), on="k"))
    assert bucketed_asof_join(ds(left), ds(right), by="k", on="t").count() > 0
    counted = bucketed_range_count_join(ds(left), ds(right), by="k", on="t", window=500)
    assert counted.count() == len(left.to_pandas().drop_duplicates())
    act = activation_from_table(
        ds(left.append_column("c", pa.array(np.ones(n)))),
        key_col="k", feature_col="t", contribution_col="c",
    )
    assert act.count() == 50

    schema = pa.schema(
        [("m1", pa.int32()), ("m2", pa.int32()), ("data_index", pa.int64()),
         ("contribution", pa.float64()), ("estimate", pa.int64())]
    )
    sel = pa.table(
        [pa.array(rng.integers(0, 30, n), pa.int32()), pa.array(rng.integers(0, 3, n), pa.int32()),
         pa.array(np.arange(n)), pa.array(np.ones(n)), pa.array(np.zeros(n, np.int64))],
        schema=schema,
    )
    refs = [ray.put(sel.slice(0, 700)), ray.put(sel.slice(700, 0)), ray.put(sel.slice(700))]
    recount = lambda t: _recount(t, ["m1", "m2"], 25)
    monkeypatch.setattr(udaf, "DRIVER_RECOUNT_MAX_ROWS", 0)
    got = udaf.exact_recount(refs, n, recount, schema=schema, key_cols=["m1", "m2"])
    got = pa.concat_tables(ray.get(got.to_arrow_refs())).sort_by("data_index")
    want = recount(sel)
    assert 0 < want.num_rows < n
    assert got.equals(want.sort_by("data_index"))


def _check_every_bucket(monkeypatch):
    """32 buckets, so some bucket gets no row, and every bucket task also
    runs its function on 0-row tables of its sides, which must give 0 rows
    of the bucket output's schema."""
    import ray

    from epichypersketch_jl_ray.stages import exchange, udaf

    run_bucket = exchange._map_bucket._function

    @ray.remote(num_returns=2)
    def checked_bucket(fn, counts, *slices):
        out, meta = run_bucket(fn, counts, *slices)
        sides, start = [], 0
        for n in counts:
            sides.append(max(slices[start : start + n], key=lambda t: t.num_columns).slice(0, 0))
            start += n
        empty, _ = run_bucket(fn, (1,) * len(counts), *sides)
        assert empty.num_rows == 0 and empty.schema == out.schema, (empty.schema, out.schema)
        return out, meta

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 32)
    monkeypatch.setattr(exchange, "_map_bucket", checked_bucket)


def test_routing_bucket_users_run_no_ray_data_map_groups(ray_session, monkeypatch):
    """Every per-bucket map whose bucket only routes rows runs on
    stages/exchange: with Ray Data's GroupedData.map_groups raising, each
    moved query at sf0.001 equals its DuckDB oracle (the semi-joins forced
    onto their scale path), connected components equals a driver
    union-find and attach_list_column an inner join. 32 buckets leave some
    bucket without a row, and every bucket task also runs its function on
    0-row tables, which must give 0 rows of the bucket output's schema."""
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.grouped_data import GroupedData

    from oracle_util import compare, duck_con
    from epichypersketch_jl_ray.pipelines import curate, dedup, relational, textstats, windowfns
    from epichypersketch_jl_ray.pipelines.merged import (
        customer_orders_and_pagerank,
        customer_orders_and_pagerank_sql,
    )
    from epichypersketch_jl_ray.stages.cc import connected_components
    from epichypersketch_jl_ray.stages.dedup import attach_list_column

    def forbidden(*args, **kwargs):
        raise AssertionError("a Ray Data map_groups ran")

    monkeypatch.setattr(GroupedData, "map_groups", forbidden)
    _check_every_bucket(monkeypatch)

    sf = "/root/testdata/sf0.001"
    con = duck_con(sf)
    cases = {
        "user_cumulative_spend": (
            windowfns.user_cumulative_spend(sf), windowfns.user_cumulative_spend_sql()
        ),
        "user_purchase_gaps": (windowfns.user_purchase_gaps(sf), windowfns.user_purchase_gaps_sql()),
        "sessionize": (relational.sessionize(sf), relational.sessionize_sql()),
        "customer_order_counts": (
            customer_orders_and_pagerank(sf), customer_orders_and_pagerank_sql()
        ),
        "dedup_incremental": (
            dedup.dedup_incremental(sf, bloom_capacity=64), dedup.dedup_incremental_sql()
        ),
        "domain_cap_sample": (curate.domain_cap_sample(sf, k=4), curate.domain_cap_sample_sql(4)),
        "duplicated_spans": (dedup.duplicated_spans(sf), dedup.duplicated_spans_sql()),
        "distinctive_terms": (textstats.distinctive_terms(sf), textstats.distinctive_terms_sql()),
        "dedup_ngram_jaccard": (dedup.dedup_ngram_jaccard(sf), dedup.dedup_ngram_jaccard_sql()),
        "doc_stats": (textstats.doc_stats(sf, broadcast_cap=0), textstats.doc_stats_sql()),
        "decontaminate_corpus": (
            curate.decontaminate_corpus(sf, broadcast_cap=0), curate.decontaminate_corpus_sql()
        ),
    }
    for name, (ours, sql) in cases.items():
        theirs = con.sql(sql).df()
        assert len(theirs), name
        assert compare(name, ours.to_pandas(), theirs) == [], name
    blocks = ray.get(windowfns.user_cumulative_spend(sf).to_arrow_refs())
    assert len(blocks) == 32 and min(b.num_rows for b in blocks) == 0

    rng = np.random.default_rng(4)
    edges = rng.integers(0, 80, size=(120, 2))
    pairs = ray.data.from_arrow(pa.table({"doc_a": edges[:, 0], "doc_b": edges[:, 1]}))
    got = connected_components(pairs, single_task_threshold=0).to_pandas()
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges.tolist():
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent if any(n in e and e[0] != e[1] for e in edges.tolist())}
    assert dict(zip(got["node"].tolist(), got["component"].tolist())) == want

    lists = pa.table(
        {"doc_id": pa.array(np.arange(40)), "sh": pa.array([[i, i + 1] for i in range(40)])}
    )
    keys = rng.integers(0, 50, 300)
    out = attach_list_column(
        ray.data.from_arrow(pa.table({"doc_a": keys, "doc_b": keys + 1})).materialize(),
        "doc_a", ray.data.from_arrow(lists), "doc_id", "sh", "sh_a",
    ).to_pandas()
    assert sorted(out["doc_a"]) == sorted(keys[keys < 40])
    assert all(list(s) == [a, a + 1] for a, s in zip(out["doc_a"], out["sh_a"]))


def test_hash_partition_buckets_string_and_int_keys(ray_session):
    """A string key's rows all land in one bucket (its hash_strings_fast
    hash), and an int64 key's bucket is still hash_int64(k, seed=1) % R."""
    import pyarrow as pa
    import ray

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages.exchange import hash_partition

    rng = np.random.default_rng(6)
    n, r = 600, 7
    words = np.array(["A", "N", "R", "", "long-string-key", "é"], dtype=object)
    t = pa.table(
        {
            "s": pa.array(words[rng.integers(0, len(words), n)], pa.string()),
            "k": pa.array(rng.integers(-1_000, 1_000, n), pa.int64()),
            "row": pa.array(np.arange(n), pa.int64()),
        }
    )
    blocks = [ray.put(t.slice(0, 250)), ray.put(t.slice(250, 0)), ray.put(t.slice(250))]

    seen: dict = {}
    for b, parts in enumerate(hash_partition(blocks, ["s"], r)):
        for s in pa.concat_tables(ray.get(parts))["s"].to_pylist():
            assert seen.setdefault(s, b) == b, s
    assert set(seen) == set(words)

    for b, parts in enumerate(hash_partition(blocks, ["k"], r)):
        k = pa.concat_tables(ray.get(parts))["k"].to_numpy()
        assert (hash_int64(k, seed=1) % np.uint64(r) == b).all()


def test_group_aggregate_of_empty_blocks_keeps_types(ray_session):
    """Every block 0-row: the result is 0 rows with the keys' and the
    aggregates' types, the keys first, the aggregates in the caller's order."""
    import pyarrow as pa
    import ray.data

    from epichypersketch_jl_ray.stages.exchange import group_aggregate

    empty = pa.table(
        {
            "g": pa.array([], pa.string()),
            "k": pa.array([], pa.int64()),
            "v": pa.array([], pa.float64()),
        }
    )
    ds = ray.data.from_arrow([empty, empty])
    aggs = {"n": ([], "count_all"), "top": ("v", "max"), "total": ("v", "sum"), "low": ("k", "min")}
    got = group_aggregate(ds, ["g", "k"], aggs, None).to_arrow_refs()
    got = pa.concat_tables(ray.get(got))
    assert got.num_rows == 0
    assert got.schema == pa.schema(
        [("g", pa.string()), ("k", pa.int64()), ("n", pa.int64()), ("top", pa.float64()),
         ("total", pa.float64()), ("low", pa.int64())]
    )
    distinct = pa.concat_tables(ray.get(group_aggregate(ds, ["g"], {}, None).to_arrow_refs()))
    assert distinct.schema == pa.schema([("g", pa.string())])


def test_group_aggregate_combines_each_block_before_the_exchange(ray_session, monkeypatch):
    """A 4-group input of 6 blocks reaches its buckets as at most 6 × 4
    partial rows, not as its 3,000 raw rows, and the merged partials equal
    a pandas groupby."""
    import pyarrow as pa
    import ray
    import ray.data

    from epichypersketch_jl_ray.stages import exchange

    run_bucket = exchange._map_bucket._function

    @ray.remote(num_returns=2)
    def bounded_bucket(fn, counts, *slices):
        assert sum(t.num_rows for t in slices) <= len(slices) * 4, [t.num_rows for t in slices]
        return run_bucket(fn, counts, *slices)

    monkeypatch.setattr(exchange, "_map_bucket", bounded_bucket)
    rng = np.random.default_rng(8)
    df = pd.DataFrame(
        {
            "flag": np.array(["A", "N", "R", "F"])[rng.integers(0, 4, 3_000)],
            "v": rng.integers(-50, 50, 3_000),
        }
    )
    blocks = [
        pa.Table.from_pandas(df.iloc[i : i + 500], preserve_index=False)
        for i in range(0, 3_000, 500)
    ]
    aggs = {
        "n": ([], "count_all"), "total": ("v", "sum"), "low": ("v", "min"), "high": ("v", "max")
    }
    got = exchange.group_aggregate(ray.data.from_arrow(blocks), ["flag"], aggs, 3_000).to_pandas()
    want = df.groupby("flag")["v"].agg(n="size", total="sum", low="min", high="max").reset_index()
    got = got.sort_values("flag", ignore_index=True).astype({c: "int64" for c in aggs})
    pd.testing.assert_frame_equal(got, want.astype({c: "int64" for c in aggs}))


def test_grouped_queries_run_no_ray_data_aggregate_or_join(ray_session, sf_dir, monkeypatch):
    """Every grouped aggregate, distinct and equi-join of the registered
    queries runs on stages/exchange: with Ray Data's GroupedData.aggregate,
    GroupedData.count and Dataset.join raising, each query with such a site
    equals its DuckDB oracle at sf0.001 (the join paths of revenue_by_nation,
    top_parts_per_brand and local_supplier_volume forced by a 0-row
    broadcast threshold). 32 buckets leave some bucket without a row, and
    every bucket task also runs its function on 0-row tables, which must
    give 0 rows of the bucket output's schema."""
    import ray
    import ray.data
    from ray.data.grouped_data import GroupedData

    import __ray_entry__ as entry
    from oracle_util import compare, duck_con
    from epichypersketch_jl_ray.pipelines import relational, windowfns

    def forbidden(*args, **kwargs):
        raise AssertionError("a Ray Data sort-shuffle aggregate or join ran")

    monkeypatch.setattr(GroupedData, "aggregate", forbidden)
    monkeypatch.setattr(GroupedData, "count", forbidden)
    monkeypatch.setattr(ray.data.Dataset, "join", forbidden)
    _check_every_bucket(monkeypatch)

    sf = sf_dir
    con = duck_con(sf)
    queries, oracles = entry.queries(), entry.oracle_sql()
    registered = [
        "distinct_users_exact", "dedup_exact", "dedup_minhash_lsh", "dedup_ngram_jaccard",
        "dedup_embedding_lsh", "curate_corpus", "embedding_principal_components", "doc_stats",
        "token_count_bpe", "export_by_lang", "pricing_summary", "top_suppliers",
        "revenue_by_nation", "windowed_events", "part_revenue_by_brand",
        "parts_never_discounted", "click_purchase_set_ops", "customer_order_counts",
        "event_props_by_type", "local_supplier_volume", "top_parts_per_brand",
        "user_spend_rank", "revenue_rollup",
    ]
    cases = {name: (queries[name], oracles[name]) for name in registered}
    for fn in (
        relational.revenue_by_nation, windowfns.top_parts_per_brand,
        relational.local_supplier_volume,
    ):
        cases[f"{fn.__name__}[join]"] = (
            lambda s, fn=fn: fn(s, broadcast_threshold_rows=0), oracles[fn.__name__]
        )
    for name, (query, sql) in cases.items():
        ours = query(sf)  # before the oracle: some oracles read the state a query stores
        theirs = con.sql(sql).df()
        assert len(theirs), name
        assert compare(name, ours, theirs) == [], name


def _write_groups(path, sizes, start=0):
    """One parquet file whose row groups hold ``sizes`` rows (k, v, s)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = sum(sizes)
    t = pa.table(
        {
            "k": pa.array(np.arange(start, start + n), pa.int64()),
            "v": pa.array(np.arange(n) * 0.5, pa.float64()),
            "s": pa.array([f"r{i}" for i in range(n)], pa.string()),
        }
    )
    with pq.ParquetWriter(path, t.schema) as w:
        at = 0
        for size in sizes:
            w.write_table(t.slice(at, size))
            at += size
    return str(path)


def test_parquet_source_accepts_only_a_bare_parquet_read(ray_session, tmp_path):
    """A bare ``read_parquet`` of a directory or of a file (with a column
    projection) gives its files and columns; a row filter, a map, a
    materialized read, ``from_arrow`` and hive partition columns give None.
    A Ray upgrade that moves the private attributes fails here."""
    import pyarrow as pa
    import pyarrow.dataset as pds
    import ray.data

    from epichypersketch_jl_ray.sources.tables import parquet_source

    files = [_write_groups(tmp_path / f"part-{i}.parquet", [5, 3], 8 * i) for i in range(3)]
    assert parquet_source(ray.data.read_parquet(str(tmp_path))) == (files, None)
    assert parquet_source(ray.data.read_parquet(files[1], columns=["v", "k"])) == (
        [files[1]], ["v", "k"]
    )
    for ds in (
        ray.data.read_parquet(str(tmp_path), filter=pds.field("k") > 3),
        ray.data.read_parquet(str(tmp_path)).map_batches(lambda b: b, batch_format="pyarrow"),
        ray.data.read_parquet(files[0]).materialize(),
        ray.data.from_arrow(pa.table({"k": [1, 2]})),
    ):
        assert parquet_source(ds) is None
    hive = tmp_path / "hive" / "day=1"
    hive.mkdir(parents=True)
    _write_groups(hive / "part-0.parquet", [4])
    assert parquet_source(ray.data.read_parquet(str(tmp_path / "hive"))) is None


@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_input_units_cut_whole_row_groups_into_balanced_runs(
    ray_session, tmp_path, monkeypatch, cpus
):
    """Every row group lands in exactly one run, none is split, the runs
    follow file order and there are min(row groups, cpu_units(N)) of them;
    each run reads back exactly its rows."""
    import pyarrow.parquet as pq
    import ray.data

    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: cpus)
    sizes = [[700, 10, 300], [0], [50], [400, 400]]
    starts = np.cumsum([0] + [sum(s) for s in sizes])
    files = [
        _write_groups(tmp_path / f"f{i}.parquet", s, int(starts[i])) for i, s in enumerate(sizes)
    ]
    groups = []  # (path, lo, hi) of every row group, in file order
    for f in files:
        meta = pq.ParquetFile(f).metadata
        bounds = np.cumsum([0] + [meta.row_group(g).num_rows for g in range(meta.num_row_groups)])
        groups += [(f, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    units = list(udaf.input_units(ray.data.read_parquet(str(tmp_path), columns=["k", "s"])))
    assert len(units) == min(len(groups), udaf.cpu_units(int(starts[-1])))
    covered = []
    for unit in units:
        assert isinstance(unit, udaf.ParquetRun) and unit.columns == ["k", "s"]
        for path, lo, hi in unit.pieces:
            inside = [g for g in groups if g[0] == path and lo <= g[1] and g[2] <= hi]
            assert sum(g[2] - g[1] for g in inside) == hi - lo  # whole groups only
            covered += inside
    assert covered == groups
    tables = [u.read() for u in units]
    assert all(t.column_names == ["k", "s"] for t in tables)
    k = np.concatenate([t["k"].to_numpy() for t in tables])
    assert np.array_equal(k, np.arange(starts[-1]))


def test_input_units_of_a_read_with_no_row_is_one_typed_unit(ray_session, tmp_path):
    import ray.data

    from epichypersketch_jl_ray.stages import udaf

    path = _write_groups(tmp_path / "empty.parquet", [0])
    (unit,) = udaf.input_units(ray.data.read_parquet(path, columns=["s", "k"]))
    empty = unit.read()
    assert empty.num_rows == 0 and empty.schema.names == ["s", "k"]
    assert empty.schema.field("k").type == "int64" and empty.schema.field("s").type == "string"


def _bucket_row_hashes(parts) -> list[list[int]]:
    """Per bucket, the sorted hashes of its rows."""
    import pyarrow as pa
    import ray

    out = []
    for refs in parts:
        t = pa.concat_tables(ray.get(refs))
        out.append(sorted(pd.util.hash_pandas_object(t.to_pandas(), index=False).tolist()))
    return out


@pytest.mark.parametrize("source", ["motifs_k3", "lineitem"])
def test_input_units_fill_the_same_buckets_as_block_refs(
    ray_session, tmp_path, monkeypatch, source
):
    """Per bucket, splitting a bare read's runs gives the same multiset of
    rows as splitting its Ray Data blocks: on the motifs_k3 benchmark input
    (seed 1, 8 files) and on sf0.001 lineitem over 32 buckets, some of them
    empty."""
    import ray.data

    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.stages.exchange import hash_partition

    if source == "motifs_k3":
        from perfbench.motifs import Motifs

        wl = Motifs(tiny=False)
        wl.prepare(1, str(tmp_path / "in"))
        ds = ray.data.read_parquet(wl.in_dir)
        key, cols, rows = "l_orderkey", ["l_orderkey", "l_suppkey", "l_quantity"], wl.rows
    else:
        monkeypatch.setattr(udaf, "cluster_cpus", lambda: 32)
        cols = ["l_orderkey", "l_suppkey", "l_returnflag", "l_extendedprice"]
        ds = read_table("/root/testdata/sf0.001", "lineitem", columns=cols)
        key, rows = "l_suppkey", None
    buckets = udaf.cpu_units(rows)
    units = list(udaf.input_units(ds))
    assert all(isinstance(u, udaf.ParquetRun) for u in units)
    got = _bucket_row_hashes(hash_partition(units, [key], buckets, cols))
    want = _bucket_row_hashes(hash_partition(udaf.block_refs(ds), [key], buckets, cols))
    assert got == want
    assert sum(map(len, got)) == ds.count()
    if source == "lineitem":
        assert min(map(len, got)) == 0


def test_exchange_reads_a_bare_parquet_read_itself(ray_session, sf_dir, monkeypatch):
    """A Dataset that ``parquet_source`` accepts never streams its blocks
    into the exchange: with ``Dataset.iter_internal_ref_bundles`` raising
    for one, motifs_ordinary, pricing_summary, customer_order_counts and
    top_parts_per_brand (its join path, with a 0-row broadcast threshold)
    equal their DuckDB oracles at sf0.001, and every bare read reaches the
    exchange as parquet runs (pricing_summary's too: its per-row prep runs
    in the split task, ``group_aggregate(prep=)``)."""
    import ray.data

    from oracle_util import compare, duck_con
    from epichypersketch_jl_ray.pipelines import motifs, relational, windowfns
    from epichypersketch_jl_ray.sources import tables

    source = tables.parquet_source
    iterate = ray.data.Dataset.iter_internal_ref_bundles
    accepted = []

    def counted(ds):
        found = source(ds)
        accepted.extend([found] if found else [])
        return found

    def guarded(self, *args, **kwargs):
        assert source(self) is None, "a bare parquet read streamed its blocks"
        return iterate(self, *args, **kwargs)

    monkeypatch.setattr(tables, "parquet_source", counted)
    monkeypatch.setattr(ray.data.Dataset, "iter_internal_ref_bundles", guarded)
    monkeypatch.setattr(motifs, "_ACTIVATION_CACHE", {})

    sf = sf_dir
    con = duck_con(sf)
    cases = {
        "motifs_ordinary": (motifs.motifs_ordinary, motifs.motifs_ordinary_sql(), 1),
        "pricing_summary": (relational.pricing_summary, relational.pricing_summary_sql(), 1),
        "customer_order_counts": (
            relational.customer_order_counts, relational.customer_order_counts_sql(), 2
        ),
        "top_parts_per_brand": (
            lambda s: windowfns.top_parts_per_brand(s, broadcast_threshold_rows=0),
            windowfns.top_parts_per_brand_sql(),
            1,
        ),
    }
    for name, (query, sql, bare) in cases.items():
        accepted.clear()
        ours = query(sf)
        assert compare(name, ours, con.sql(sql).df()) == [], name
        assert len(accepted) == bare, (name, accepted)


def test_prepped_group_aggregates_of_a_0_row_table(ray_session, sf_dir, tmp_path):
    """pricing_summary and top_suppliers over a lineitem with no row give
    typed 0-row results: their per-row prep runs in the exchange's split
    task (``group_aggregate(prep=)``) on the typed 0-row parquet run, where
    a Ray Data map of the read handed on a block with no columns."""
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines import relational
    from epichypersketch_jl_ray.stages.exchange import to_table

    empty = pq.read_schema(f"{sf_dir}/lineitem.parquet").empty_table()
    pq.write_table(empty, tmp_path / "lineitem.parquet")
    summary = to_table(relational.pricing_summary(str(tmp_path)))
    assert summary.num_rows == 0
    names = ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents", "n"]
    assert summary.schema.names == names
    types = ["string", "string", "double", "int64", "int64"]
    assert [str(t) for t in summary.schema.types] == types
    top = to_table(relational.top_suppliers(str(tmp_path)))
    assert top.num_rows == 0
    assert top.schema.names == ["l_suppkey", "revenue_cents"]
    assert [str(t) for t in top.schema.types] == ["int64", "int64"]
