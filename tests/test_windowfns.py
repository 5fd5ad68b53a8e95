"""Window-function operator edge cases beyond the oracle harness: the NTILE
split math (uneven tiles, N < tiles, cents ties) and the LAG gap shape
(tie-broken by event_id) on tiny synthetic event tables."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events_dir(tmp_path, rows: dict) -> str:
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "event_id": pa.array(rows["event_id"], pa.int64()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
            "user_id": pa.array(rows["user_id"], pa.int64()),
            "event_type": pa.array(rows["event_type"], pa.string()),
            "value": pa.array(rows["value"], pa.float64()),
            "props": pa.array([""] * len(rows["event_id"]), pa.string()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir(parents=True)
    pq.write_table(t, d / "events.parquet")
    return str(d)


@pytest.mark.parametrize("n_users,tiles", [(10, 4), (3, 4), (4, 4), (7, 3)])
def test_ntile_split_matches_duckdb(ray_session, tmp_path, n_users, tiles):
    import duckdb

    from epichypersketch_jl_ray.pipelines.windowfns import (
        user_spend_quartile,
        user_spend_quartile_sql,
    )

    rng = np.random.default_rng(n_users * 7 + tiles)
    # deliberate cents ties: draw totals from a tiny value set
    vals = rng.choice([5.0, 10.0, 10.0, 25.0], size=n_users)
    sf = _events_dir(
        tmp_path / f"{n_users}_{tiles}",
        {
            "event_id": np.arange(n_users),
            "ts": np.arange(n_users).astype("datetime64[us]"),
            "user_id": np.arange(100, 100 + n_users),
            "event_type": ["purchase"] * n_users,
            "value": vals,
        },
    )
    got = (
        user_spend_quartile(sf, tiles=tiles)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    want = (
        con.sql(user_spend_quartile_sql(tiles=tiles))
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"quartile": "int64", "total_cents": "int64"}),
        want.astype({"quartile": "int64", "total_cents": "int64"}),
    )


def test_purchase_gaps_tie_broken_by_event_id(ray_session, tmp_path):
    """Two purchases at the SAME timestamp: the gap chain must follow
    event_id order deterministically (0 gap between the tied pair)."""
    from epichypersketch_jl_ray.pipelines.windowfns import user_purchase_gaps

    sf = _events_dir(
        tmp_path,
        {
            "event_id": [3, 1, 2, 4],
            "ts": np.array([100, 50, 50, 200]).astype("datetime64[us]"),
            "user_id": [7, 7, 7, 8],
            "event_type": ["purchase"] * 4,
            "value": [1.0, 2.0, 3.0, 4.0],
        },
    )
    out = (
        user_purchase_gaps(sf)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # user 7 order: (50,ev1) -> (50,ev2) gap 0 -> (100,ev3) gap 50; user 8 first-only
    assert out["event_id"].tolist() == [2, 3]
    assert out["gap_us"].tolist() == [0, 50]


def test_spend_ranks_of_events_without_a_purchase(ray_session, tmp_path):
    """An events table with no purchase has no spender: the quartile and
    percentile windows give 0 rows (their per-bucket histogram is typed,
    though every bucket of it has 0 rows)."""
    from epichypersketch_jl_ray.pipelines.windowfns import (
        user_spend_percentile,
        user_spend_quartile,
    )

    sf = _events_dir(
        tmp_path,
        {
            "event_id": [1, 2, 3],
            "ts": np.array([10, 20, 30]).astype("datetime64[us]"),
            "user_id": [7, 7, 8],
            "event_type": ["click", "view", "click"],
            "value": [0.0, 0.0, 0.0],
        },
    )
    assert user_spend_quartile(sf).count() == 0
    assert user_spend_percentile(sf).count() == 0
