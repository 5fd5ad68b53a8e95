"""tf-idf-style distinctive terms (pipelines/textstats.distinctive_terms):
exact DuckDB parity (score is one IEEE division — bit-identical), planted
tie-break behavior, and bucket-count invariance."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from epichypersketch_jl_ray.pipelines.textstats import (
    distinctive_terms,
    distinctive_terms_sql,
)


def _compare(sf: str, **kw) -> None:
    ours = (
        distinctive_terms(sf, **kw)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    theirs = (
        con.execute(distinctive_terms_sql(kw.get("k", 3)))
        .df()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "tf": "int64", "df": "int64"})
    )
    assert ours.equals(theirs[list(ours.columns)]), f"mismatch at {sf}"


def test_matches_duckdb_at_sf0001(ray_session):
    _compare("/root/testdata/sf0.001")


def test_bucket_count_invariance(ray_session, monkeypatch):
    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 7)
    _compare("/root/testdata/sf0.001", k=2)


def test_planted_scores_and_tiebreak(ray_session, tmp_path):
    rows = [
        # doc 1: "rare" appears once and only here (score 1.0); "common"
        # is in every doc (score 1/3); "amber"/"azure" tie at 1.0 -> term order
        (1, "common rare amber azure"),
        (2, "common common usual usual usual"),
        (3, "common usual"),
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    out = distinctive_terms(str(sf), k=2).to_pandas()
    d1 = out[out.doc_id == 1].sort_values("term")
    # top-2 of doc 1: amber and azure (1.0 each, term asc beats rare? no —
    # all three score 1.0; tie-break keeps amber, azure)
    assert sorted(d1["term"]) == ["amber", "azure"]
    assert (d1["score"] == 1.0).all()
    d2 = out[out.doc_id == 2]
    # doc 2: usual tf=3/df=2 = 1.5 beats common tf=2/df=3
    assert list(d2.sort_values("score", ascending=False)["term"]) == ["usual", "common"]
    _compare(str(sf), k=2)
