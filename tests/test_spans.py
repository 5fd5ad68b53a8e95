"""Exact duplicated-substring span detection (pipelines/dedup.duplicated_spans,
Lee et al. 2022) and the rolling-hash kernel behind it."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _docs_dir(tmp_path, texts):
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["t"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def test_rolling_gram_hashes_equal_iff_equal_substrings():
    from epichypersketch_jl_ray.functions.hashing import rolling_gram_hashes

    rng = np.random.default_rng(9)
    texts = ["".join(rng.choice(list("abcd"), 40)) for _ in range(30)]
    texts += [texts[0], texts[1][5:]]  # full dup + suffix dup
    arr = pa.array(texts, pa.string())
    h1, h2, rows, pos = rolling_gram_hashes(arr, 7)
    seen: dict[str, tuple[int, int]] = {}
    for r, p, a, b in zip(rows, pos, h1, h2):
        s = texts[r][p : p + 7]
        key = (int(a), int(b))
        if s in seen:
            assert seen[s] == key
        else:
            seen[s] = key
    # distinct substrings never collide on the 128-bit pair at this scale
    assert len(set(seen.values())) == len(seen)


def test_duplicated_spans_planted(ray_session, tmp_path):
    """A 40-char block shared by two docs becomes one maximal span in each;
    unique text produces none; an internal repeat within ONE doc also
    counts (corpus occurrence >= 2)."""
    from epichypersketch_jl_ray.pipelines.dedup import duplicated_spans

    shared = "the quick brown fox jumps over lazy dogs"  # 40 chars
    assert len(shared) == 40
    uniq1 = "completely original material nr one with nothing repeated here at all ok"
    uniq2 = "another singular body of text that shares no long substring with others"
    # separators are distinct characters so no gram crossing a boundary is
    # itself duplicated (a shared " " before the block would legitimately
    # extend the span one char left — correct, but ambiguous to assert on)
    internal = "zzz&" + shared + "@mid@" + shared + "!end"
    texts = [uniq1 + "#" + shared, shared + "%" + uniq2, internal, uniq1[::-1]]
    d = _docs_dir(tmp_path, texts)
    out = duplicated_spans(d, gram_len=32).to_pandas().sort_values(
        ["doc_id", "span_start"]
    )
    by_doc = {k: v for k, v in out.groupby("doc_id")}
    # doc 0: span covers the trailing shared block
    s0 = by_doc[0]
    assert len(s0) == 1
    assert int(s0["span_start"].iloc[0]) == len(uniq1) + 1
    assert int(s0["span_end"].iloc[0]) == len(texts[0])
    # doc 1: span covers the leading shared block
    s1 = by_doc[1]
    assert len(s1) == 1 and int(s1["span_start"].iloc[0]) == 0
    assert int(s1["span_end"].iloc[0]) == len(shared)
    # doc 2 contains the shared block twice -> spans cover both sites
    s2 = by_doc[2]
    covered = set()
    for _, r in s2.iterrows():
        covered.update(range(int(r["span_start"]), int(r["span_end"])))
    first = internal.find(shared)
    second = internal.find(shared, first + 1)
    assert set(range(first, first + 40)) <= covered
    assert set(range(second, second + 40)) <= covered
    # doc 3 (unique) emits nothing
    assert 3 not in by_doc


def test_duplicated_spans_oracle_sf0001(ray_session, sf_dir):
    """Full DuckDB parity on the fixture corpus (the registry's merged
    dedup_exact entry carries the same union oracle)."""
    import duckdb

    from epichypersketch_jl_ray.pipelines.dedup import duplicated_spans, duplicated_spans_sql

    out = (
        duplicated_spans(sf_dir)
        .to_pandas()
        .sort_values(["doc_id", "span_start"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'"
    )
    oracle = (
        con.sql(duplicated_spans_sql())
        .df()
        .sort_values(["doc_id", "span_start"])
        .reset_index(drop=True)
    )
    assert len(out) == len(oracle)
    assert (out["doc_id"].to_numpy() == oracle["doc_id"].to_numpy()).all()
    assert (out["span_start"].to_numpy() == oracle["span_start"].to_numpy()).all()
    assert (out["span_end"].to_numpy() == oracle["span_end"].to_numpy()).all()
