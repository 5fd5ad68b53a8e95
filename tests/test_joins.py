"""Join and hash-exchange tests: the bucketed hash join vs pandas ground
truth, the as-of join vs pandas merge_asof, the exchange's bucket rule and
group_aggregate, and guards that the registered queries group and join on
the exchange only."""

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

    @ray.remote
    def checked_bucket(fn, counts, *slices):
        out = run_bucket(fn, counts, *slices)
        sides, start = [], 0
        for n in counts:
            sides.append(max(slices[start : start + n], key=lambda t: t.num_columns).slice(0, 0))
            start += n
        empty = run_bucket(fn, (1,) * len(counts), *sides)
        assert empty.num_rows == 0 and empty.schema == out.schema, (empty.schema, out.schema)
        return out

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

    @ray.remote
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
