"""Size-aware join strategy: the broadcast path (below the row threshold)
and the bucketed-hash-join path (above it) must produce identical,
oracle-exact results — threshold=0 forces the join path on fixture data."""

import sys

sys.path.insert(0, "/root/repo/tests")
from oracle_util import compare, duck_con, to_pandas


def test_revenue_by_nation_both_paths_match_oracle(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.relational import revenue_by_nation, revenue_by_nation_sql

    con = duck_con(sf_dir)
    want = con.sql(revenue_by_nation_sql()).df()
    bcast = to_pandas(revenue_by_nation(sf_dir))  # default: under threshold
    joined = to_pandas(revenue_by_nation(sf_dir, broadcast_threshold_rows=0))
    assert not compare("revenue_by_nation[broadcast]", bcast, want)
    assert not compare("revenue_by_nation[join]", joined, want)


def test_top_parts_per_brand_both_paths_match_oracle(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.windowfns import (
        top_parts_per_brand,
        top_parts_per_brand_sql,
    )

    con = duck_con(sf_dir)
    want = con.sql(top_parts_per_brand_sql()).df()
    bcast = to_pandas(top_parts_per_brand(sf_dir))
    joined = to_pandas(top_parts_per_brand(sf_dir, broadcast_threshold_rows=0))
    assert not compare("top_parts_per_brand[broadcast]", bcast, want)
    assert not compare("top_parts_per_brand[join]", joined, want)


def test_parts_never_discounted_all_paths_match_oracle(ray_session, sf_dir):
    """The selectivity-aware anti-join has four plans (broadcast exact key
    set; dense bucketed anti-join; sparse Bloom-miss + direct verify; very-sparse
    Bloom-miss + hit-Bloom pruned verify) — forced via the thresholds, all
    must equal the oracle."""
    from epichypersketch_jl_ray.pipelines.relational import (
        parts_never_discounted,
        parts_never_discounted_sql,
    )

    con = duck_con(sf_dir)
    want = con.sql(parts_never_discounted_sql()).df()
    bset = to_pandas(parts_never_discounted(sf_dir))  # default: broadcast set
    dense = to_pandas(
        parts_never_discounted(sf_dir, broadcast_threshold_rows=0, dense_keys_per_part=0.0)
    )
    direct = to_pandas(
        parts_never_discounted(
            sf_dir, broadcast_threshold_rows=0, dense_keys_per_part=1e18, sparse_hit_rate=0.0
        )
    )
    pruned = to_pandas(
        parts_never_discounted(
            sf_dir, broadcast_threshold_rows=0, dense_keys_per_part=1e18, sparse_hit_rate=2.0
        )
    )
    assert not compare("parts_never_discounted[broadcast-set]", bset, want)
    assert not compare("parts_never_discounted[dense]", dense, want)
    assert not compare("parts_never_discounted[direct-verify]", direct, want)
    assert not compare("parts_never_discounted[bloom-pruned]", pruned, want)


def test_local_supplier_volume_both_paths_match_oracle(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.relational import (
        local_supplier_volume,
        local_supplier_volume_sql,
    )

    con = duck_con(sf_dir)
    want = con.sql(local_supplier_volume_sql()).df()
    bcast = to_pandas(local_supplier_volume(sf_dir))
    joined = to_pandas(local_supplier_volume(sf_dir, broadcast_threshold_rows=0))
    assert not compare("local_supplier_volume[broadcast]", bcast, want)
    assert not compare("local_supplier_volume[join]", joined, want)
