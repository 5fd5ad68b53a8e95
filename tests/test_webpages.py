"""Webtext flagship: fixture determinism, byte-identical extraction,
planted-truth sketch accuracy, checkpoint/resume equality, batching
invariance (north_rule test battery; FIXTURES.md F1/F2/F5)."""

import shutil

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

from epichypersketch_jl_ray.sources.webpages import (
    PLANTS,
    expected_distinct_urls,
    generate_webpages,
    held_out_urls,
    webpages_dir_for,
)

N = 3000


@pytest.fixture(scope="module")
def web_dir(ray_session):
    return webpages_dir_for(N, n_shards=8)


def test_fixture_deterministic_and_shard_invariant(tmp_path):
    a = generate_webpages(str(tmp_path / "a"), 500, n_shards=4)
    b = generate_webpages(str(tmp_path / "b"), 500, n_shards=10)
    ta = pq.read_table(a[0]).schema
    import pyarrow as pa

    tbl_a = pa.concat_tables([pq.read_table(f) for f in a])
    tbl_b = pa.concat_tables([pq.read_table(f) for f in b])
    assert tbl_a.equals(tbl_b)
    # regeneration is byte-stable
    c = generate_webpages(str(tmp_path / "c"), 500, n_shards=4)
    assert pa.concat_tables([pq.read_table(f) for f in c]).equals(tbl_a)


def test_extraction_byte_identical(web_dir):
    import pyarrow as pa

    from epichypersketch_jl_ray.functions.html import extract_text

    tbl = pq.read_table(f"{web_dir}/webpages-00000.parquet")
    out = extract_text(tbl["html"].combine_chunks())
    stored = tbl["text"].combine_chunks()
    assert out.equals(stored)


@pytest.fixture(scope="module")
def web_state(web_dir):
    from epichypersketch_jl_ray.pipelines.webpages import build_web_sketches

    return build_web_sketches(web_dir, batch_size=512)


def test_flagship_counts_and_bounds(web_dir, web_state):
    st = web_state
    assert st.rows_seen == N
    # distinct urls via HLL
    true_distinct = expected_distinct_urls(N)
    rse = 1.04 / np.sqrt(st.hll.m)
    assert abs(st.hll.estimate() - true_distinct) <= 4 * rse * true_distinct + 2
    # planted (lang, trigram) heavy hitters: exact truth via duckdb
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW w AS SELECT * FROM read_parquet('{web_dir}/*.parquet')"
    )
    from epichypersketch_jl_ray.pipelines.webpages import query_plants

    for phrase, _ in PLANTS:
        truth = {
            r[0]: r[1]
            for r in con.sql(
                f"SELECT lang, count(*) FROM w WHERE text LIKE '%{phrase}%' GROUP BY 1"
            ).fetchall()
        }
        est = query_plants(st, [(lang, phrase) for lang in truth])
        eps_n = 5e-5 * st.cms.n_inserts
        for _, row in est.iterrows():
            t = truth[row["lang"]]
            assert row["estimate"] >= t, (phrase, row["lang"])  # never undercounts
            assert row["estimate"] <= t + eps_n + 1, (phrase, row["lang"])
    # quantiles sane
    q50 = st.kll.quantile(0.5)
    lens = con.sql("SELECT length(text) FROM w ORDER BY 1").df().iloc[:, 0].to_numpy()
    true_rank = np.searchsorted(lens, q50) / len(lens)
    assert abs(true_rank - 0.5) < 0.05
    # bloom: all present urls hit, held-out absent
    from epichypersketch_jl_ray.functions.hashing import fnv1a64
    import pyarrow as pa

    urls = con.sql("SELECT DISTINCT url FROM w").df().iloc[:, 0].tolist()
    assert st.bloom.contains_hashed(fnv1a64(pa.array(urls))).all()
    absent = st.bloom.contains_hashed(fnv1a64(pa.array(held_out_urls())))
    assert absent.sum() == 0


def kll_rank_bound(k: int) -> float:
    """Published normalized rank error of a KLL sketch with parameter k
    (Apache DataSketches' fit, 99% confidence)."""
    return 2.296 / k**0.9723


def test_batching_invariance(web_dir, web_state):
    """Different batch size => byte-identical CMS/HLL/Bloom (the N-vs-4N
    reproducibility argument, SURVEY.md §4); KLL is not exact across
    batchings, so each state's p50 is held to the published rank bound
    against the exact text lengths. The two builds take both
    build_web_sketches paths: 375-row files are smaller than batch_size=512
    (one partial per batch) and larger than batch_size=200 (one partial
    per file)."""
    import pyarrow.compute as pc

    from epichypersketch_jl_ray.pipelines.webpages import build_web_sketches

    st2 = build_web_sketches(web_dir, batch_size=200)
    for name in ("cms", "hll", "bloom"):
        assert getattr(st2, name).digest() == getattr(web_state, name).digest(), name
    assert st2.kll.n == web_state.kll.n
    text = pq.read_table(web_dir, columns=["text"])["text"]
    lengths = np.sort(pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64))
    for st in (web_state, st2):
        p50 = st.kll.quantile(0.5)
        # ties make the exact rank of p50 an interval [lo, hi]
        lo = np.searchsorted(lengths, p50, side="left") / len(lengths)
        hi = np.searchsorted(lengths, p50, side="right") / len(lengths)
        assert max(0.0, lo - 0.5, 0.5 - hi) <= kll_rank_bound(st.kll.k), (p50, lo, hi)


def test_merge_order_invariance(web_dir):
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    tbl = pq.read_table(f"{web_dir}/webpages-00001.parquet")
    b = WebSketchBuilder()
    parts = [b(tbl.slice(i, 100)) for i in range(0, len(tbl), 100)]
    rng = np.random.default_rng(0)
    digests = set()
    for _ in range(3):
        order = rng.permutation(len(parts))
        acc = WebSketchState.from_bytes(parts[order[0]].to_bytes())  # merge mutates acc
        for i in order[1:]:
            acc.merge(parts[i])
        digests.add((acc.cms.digest(), acc.hll.digest(), acc.bloom.digest()))
    assert len(digests) == 1


def _drop_ranges(ck: str, drop: set[int]) -> None:
    """Simulate a build killed before the ranges ``drop`` finished: their
    manifest records and blobs are gone, the cut and the other records
    stay."""
    import json
    import os

    path = os.path.join(ck, "manifest.jsonl")
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    for rec in recs:
        if rec.get("range") in drop:
            os.remove(rec["blob"])
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in recs if r.get("range") not in drop)


def test_checkpoint_resume_identical(web_dir, tmp_path):
    from epichypersketch_jl_ray.checkpoint import build_checkpointed
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.state.websketch import WebSketchState
    import glob

    files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    make_partial = WebSketchBuilder()

    ck = str(tmp_path / "ck")
    full, m_full = build_checkpointed(files, make_partial, WebSketchState, ck)
    full_bytes = full.to_bytes()
    assert m_full["resumed_partitions"] == 0 and m_full["rows"] == N
    assert m_full["partitions"] == 4  # 3000 rows on 4 CPUs

    # simulate a killed run: two of the four ranges never finished
    _drop_ranges(ck, {1, 3})
    resumed, m_res = build_checkpointed(files, make_partial, WebSketchState, ck)
    assert m_res["resumed_partitions"] == 2 and m_res["rows"] == N
    assert resumed.to_bytes() == full_bytes
    for name in ("cms", "hll", "bloom", "kll", "tdigest"):
        assert getattr(resumed, name).digest() == getattr(full, name).digest(), name
    # rerunning resume with everything done is a no-op with identical state
    again, m2 = build_checkpointed(files, make_partial, WebSketchState, ck)
    assert m2["resumed_partitions"] == m2["partitions"] == 4
    assert again.to_bytes() == full_bytes


def test_checkpoint_resume_on_another_cpu_count_reuses_the_cut(web_dir, tmp_path, monkeypatch):
    """A resume on another CPU count folds the missing ranges of the
    RECORDED cut, not a new one, so the state is byte-identical to the
    uninterrupted build's, KLL and t-digest included."""
    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.state.websketch import WebSketchState
    import glob

    files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    make_partial = WebSketchBuilder()
    ck = str(tmp_path / "ck")
    full, _ = build_checkpointed(files, make_partial, WebSketchState, ck, batch_size=256)
    cut, _ = read_manifest(ck)
    _drop_ranges(ck, {0, 2})
    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 3)
    assert udaf.cpu_units(N) == 3  # a fresh build would cut 3 ranges, not 4
    resumed, m = build_checkpointed(files, make_partial, WebSketchState, ck, batch_size=256)
    assert m["partitions"] == 4 and m["resumed_partitions"] == 2
    assert read_manifest(ck)[0] == cut
    for name in ("cms", "hll", "bloom", "kll", "tdigest"):
        assert getattr(resumed, name).to_bytes() == getattr(full, name).to_bytes(), name


def test_checkpoint_resume_after_a_row_count_change_starts_over(ray_session, tmp_path):
    """When an input file's row count differs from the recorded cut's, the
    resume recomputes every range over a new cut: its state equals a fresh
    build's over the changed files."""
    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    src = webpages_dir_for(1500, n_shards=4)
    d = tmp_path / "web"
    shutil.copytree(src, d)
    files = sorted(str(f) for f in d.glob("*.parquet"))
    make_partial = WebSketchBuilder(n_docs_hint=1500)
    ck = str(tmp_path / "ck")
    build_checkpointed(files, make_partial, WebSketchState, ck)
    pq.write_table(pq.read_table(files[1]).slice(0, 100), files[1])  # 375 -> 100 rows
    resumed, m = build_checkpointed(files, make_partial, WebSketchState, ck)
    assert m["resumed_partitions"] == 0 and m["rows"] == 1500 - 275
    assert read_manifest(ck)[0]["rows"] == [375, 100, 375, 375]
    fresh, _ = build_checkpointed(files, make_partial, WebSketchState, str(tmp_path / "ck2"))
    assert resumed.to_bytes() == fresh.to_bytes()


def test_checkpoint_cut_is_the_direct_builds(web_dir, tmp_path):
    """The checkpointed build records and folds the direct build's cut,
    row_ranges(files, rows, cpu_units(N)), one blob per range: with the
    same batch size the two builds give byte-identical states, KLL and
    t-digest included."""
    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import (
        WebSketchBuilder,
        build_web_sketches,
        file_rows,
        parquet_files,
    )
    from epichypersketch_jl_ray.stages.udaf import cpu_units, row_ranges
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    files = parquet_files(web_dir)
    rows = file_rows(files)
    ck = str(tmp_path / "ck")
    state, m = build_checkpointed(
        files, WebSketchBuilder(n_docs_hint=N), WebSketchState, ck, batch_size=256
    )
    cut, done = read_manifest(ck)
    want = row_ranges(files, rows, cpu_units(sum(rows)))
    assert cut["files"] == files and cut["rows"] == rows
    assert cut["ranges"] == [[list(p) for p in r] for r in want]
    assert sorted(done) == list(range(len(want)))
    assert len({rec["blob"] for rec in m["lineage"]}) == len(want)
    assert state.to_bytes() == build_web_sketches(web_dir, batch_size=256).to_bytes()


def test_checkpointed_equals_streaming(web_dir, web_state, tmp_path):
    """The checkpointed path (several batches folded per row range with
    one merge_many) and the streaming Dataset path share one partial
    function and give byte-identical CMS/HLL/Bloom."""
    from epichypersketch_jl_ray.checkpoint import build_checkpointed
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.state.websketch import WebSketchState
    import glob

    files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    batch_size = 100
    assert min(pq.ParquetFile(f).metadata.num_rows for f in files) > 2 * batch_size
    ck, _ = build_checkpointed(
        files, WebSketchBuilder(n_docs_hint=N), WebSketchState, str(tmp_path / "ck"),
        batch_size=batch_size,
    )
    assert ck.rows_seen == N
    for name in ("cms", "hll", "bloom"):
        assert getattr(ck, name).digest() == getattr(web_state, name).digest(), name


def test_checkpointed_merge_bounds_driver_states(ray_session, tmp_path, monkeypatch):
    """Above MERGE_FANOUT**2 range blobs the checkpointed merge validates
    and merges blob groups in Ray tasks, then runs remote merge rounds
    until at most udaf.MERGE_FANOUT**2 states are left, so the driver
    deserializes that many, not one per blob. The merged CMS/HLL/Bloom
    equal an in-process fold of the per-file states."""
    from epichypersketch_jl_ray import checkpoint
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.stages import udaf
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    files = generate_webpages(str(tmp_path / "web"), 400, n_shards=20)  # one batch each
    make_partial = WebSketchBuilder(n_docs_hint=400)
    states = [make_partial(pq.read_table(f)) for f in files]
    want = states[0].merge_many(states[1:])

    fanout = 2
    monkeypatch.setattr(udaf, "MERGE_FANOUT", fanout)
    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 10)  # 10 ranges > fanout**2 blobs
    driver_loads = []
    from_bytes = WebSketchState.from_bytes

    def counting_from_bytes(cls, data):
        driver_loads.append(len(data))
        return from_bytes(data)

    monkeypatch.setattr(WebSketchState, "from_bytes", classmethod(counting_from_bytes))
    got, m = checkpoint.build_checkpointed(
        files, make_partial, WebSketchState, str(tmp_path / "ck")
    )
    assert m["partitions"] == 10
    assert 0 < len(driver_loads) <= fanout**2, len(driver_loads)
    assert got.rows_seen == 400
    for name in ("cms", "hll", "bloom"):
        assert getattr(got, name).digest() == getattr(want, name).digest(), name


def test_row_ranges_fold_each_row_once(ray_session, tmp_path):
    """The build cuts the corpus's global row range into cpu_units(N)
    contiguous ranges (5 files, 990 rows on 4 CPUs: 4 ranges). The files
    have odd row counts, one has several row groups and a 0-row file sits
    in the middle, so range edges fall inside row groups, inside batches
    and across file boundaries. No row at an edge is read twice or
    skipped: each range folds exactly its rows, as batch_size-row tables
    but for its last one, rows_seen is the footer total, and the
    CMS/HLL/Bloom equal an in-process merge_many over the whole table. With
    fewer rows than ranges, the empty ranges add nothing."""
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.webpages import (
        WEB_COLUMNS,
        WebSketchBuilder,
        build_web_sketches,
        file_rows,
        parquet_files,
    )
    from epichypersketch_jl_ray.stages.udaf import cpu_units, fold_parquet_rows, row_ranges

    tbl = pq.read_table(webpages_dir_for(1000, n_shards=2), columns=WEB_COLUMNS)
    d = tmp_path / "web"
    d.mkdir()
    pq.write_table(tbl.slice(0, 301), d / "a.parquet")
    pq.write_table(tbl.slice(301, 257), d / "b.parquet", row_group_size=53)
    pq.write_table(tbl.schema.empty_table(), d / "c.parquet")
    pq.write_table(tbl.slice(558, 233), d / "d.parquet")
    pq.write_table(tbl.slice(791, 199), d / "e.parquet")
    files = parquet_files(str(d))
    rows = file_rows(files)
    assert rows == [301, 257, 0, 233, 199]
    assert pq.ParquetFile(files[1]).metadata.num_row_groups == 5
    assert cpu_units(sum(rows)) == 4
    fa, fb, _, fd, fe = files
    ranges = row_ranges(files, rows, cpu_units(sum(rows)))
    # edges 247, 495 and 742: inside a 64-row batch each, 495 inside b's
    # row group [159, 212); ranges 1-3 cross file boundaries, range 2 the
    # 0-row file c
    assert ranges == [
        [(fa, 0, 247)],
        [(fa, 247, 301), (fb, 0, 194)],
        [(fb, 194, 257), (fd, 0, 184)],
        [(fd, 184, 233), (fe, 0, 199)],
    ]

    batch_size = 64
    make_partial = WebSketchBuilder(n_docs_hint=1000)
    for pieces in ranges:
        sizes = []

        def spy(t):
            sizes.append(t.num_rows)
            return make_partial(t)

        st = fold_parquet_rows(pieces, spy, batch_size, WEB_COLUMNS)
        assert st.rows_seen == sum(sizes) == sum(hi - lo for _, lo, hi in pieces)
        assert set(sizes[:-1]) <= {batch_size} and 0 < sizes[-1] <= batch_size

    def whole(t):
        states = [make_partial(t.slice(i, batch_size)) for i in range(0, len(t), batch_size)]
        return states[0].merge_many(states[1:])

    built = build_web_sketches(str(d), batch_size=batch_size)
    assert built.rows_seen == sum(rows) == 990
    want = whole(tbl.slice(0, 990))
    for name in ("cms", "hll", "bloom"):
        assert getattr(built, name).digest() == getattr(want, name).digest(), name

    # 3 rows on 4 ranges: range 0 is empty
    tiny = tmp_path / "tiny"
    tiny.mkdir()
    pq.write_table(tbl.slice(0, 2), tiny / "a.parquet")
    pq.write_table(tbl.slice(2, 1), tiny / "b.parquet")
    files = parquet_files(str(tiny))
    assert [len(p) for p in row_ranges(files, file_rows(files), 4)] == [0, 1, 1, 1]
    built = build_web_sketches(str(tiny), batch_size=batch_size, n_docs_hint=1000)
    assert built.rows_seen == 3
    want = whole(tbl.slice(0, 3))
    for name in ("cms", "hll", "bloom"):
        assert getattr(built, name).digest() == getattr(want, name).digest(), name


def test_empty_shard_in_web_build(ray_session, tmp_path):
    """A 0-row parquet shard among non-empty ones contributes an empty
    partial: rows_seen and the CMS/HLL/Bloom equal the build without it."""
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines.webpages import build_web_sketches

    src = webpages_dir_for(1500, n_shards=4)
    d = tmp_path / "web"
    shutil.copytree(src, d)
    base = build_web_sketches(str(d), batch_size=256)
    schema = pq.ParquetFile(f"{src}/webpages-00000.parquet").schema_arrow
    pq.write_table(schema.empty_table(), d / "zz-empty.parquet")
    with_empty = build_web_sketches(str(d), batch_size=256)
    assert with_empty.rows_seen == base.rows_seen == 1500
    for name in ("cms", "hll", "bloom"):
        assert getattr(with_empty, name).digest() == getattr(base, name).digest(), name


def test_build_without_parquet_files_raises(tmp_path):
    from epichypersketch_jl_ray.pipelines.webpages import build_web_sketches

    (tmp_path / "notes.txt").write_text("not parquet")
    with pytest.raises(ValueError, match="no parquet files"):
        build_web_sketches(str(tmp_path))


def test_bloom_capacity_sized_to_corpus(ray_session):
    """The Bloom capacity derives from the corpus row count (round-1 soak
    lesson: the fixed default overfilled to 0.78 at 10M docs). Rule:
    capacity >= docs (distinct urls <= docs), floored at 2^16; at its rated
    capacity a Bloom's fill stays at/below ~0.55."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines.webpages import (
        bloom_capacity_for,
        build_web_sketches,
        file_rows,
        make_state,
        parquet_files,
    )
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for

    assert bloom_capacity_for(10_000_000) >= 10_000_000
    assert bloom_capacity_for(100) == 1 << 16
    st = make_state(n_docs_hint=3_000_000)
    assert st.bloom.capacity >= 3_000_000
    # explicit bloom_capacity wins over the hint
    st2 = make_state(n_docs_hint=3_000_000, bloom_capacity=1 << 20)
    assert st2.bloom.capacity == 1 << 20

    web_dir = webpages_dir_for(3000, n_shards=4)
    assert sum(file_rows(parquet_files(web_dir))) == 3000
    state = build_web_sketches(web_dir)
    assert state.bloom.capacity >= 3000
    assert state.bloom.fill_ratio() < 0.55

    # at rated capacity, fill stays at the ~0.5 design point
    probe = make_state(n_docs_hint=100_000)
    rng = np.random.default_rng(3)
    probe.bloom.add_hashed(rng.integers(0, 2**63, size=probe.bloom.capacity, dtype=np.uint64))
    assert probe.bloom.fill_ratio() <= 0.55
