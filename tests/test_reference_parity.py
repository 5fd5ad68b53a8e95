"""Reference-conformance tests on the translated planted-ground-truth
fixtures (reference test strategy layer 2, SURVEY.md §5):

- every planted motif whose true count >= min_count is found (the CMS
  no-false-negative property, the reference's central assertion,
  /root/reference/test/test_large_example_ordinary.jl:211-269);
- estimates never undercount and respect est <= true + eps*N;
- convolution distances/start/end arithmetic
  (/root/reference/test/test_distances.jl:13-23);
- overlap rejection: positions [8,20,25] with filter_len=8 yield NO motif
  (/root/reference/test/test_higher_order_motifs.jl:81-109);
- higher-order k=4,5 motifs with scrambled positions
  (/root/reference/test/test_higher_order_motifs.jl:7-78);
- partitioned == non-partitioned (/root/reference/test/test_partitioning.jl:243-281).
"""

import numpy as np
import pandas as pd
import pytest

from epichypersketch_jl_ray.sources.reference_fixtures import (
    CONV_PLANTS,
    FILTER_LEN,
    ORDINARY_PLANTS,
    brute_force_conv_counts,
    brute_force_subset_counts,
    make_conv_dict,
    make_ordinary_dict,
)


@pytest.fixture(scope="module")
def api(ray_session):
    from epichypersketch_jl_ray import api

    return api


def test_ordinary_planted_motifs_all_thresholds(api):
    d = make_ordinary_dict()
    truth = brute_force_subset_counts(d, 3)
    for min_count in (5, 8, 10, 15):
        out = api.obtain_enriched_configurations(d, motif_size=3, min_count=min_count)
        found = set(map(tuple, out[["m1", "m2", "m3"]].drop_duplicates().to_numpy()))
        for motif, count in ORDINARY_PLANTS:
            key = tuple(sorted(motif))
            true_count = truth[key]
            if true_count >= min_count:
                assert key in found, (motif, min_count)  # no false negatives
        # estimates never undercount truth
        grouped = out.groupby(["m1", "m2", "m3"])["estimate"].first()
        for key, est in grouped.items():
            assert est >= truth.get(tuple(key), 0)


def test_ordinary_occurrence_rows_and_contributions(api):
    d = make_ordinary_dict()
    out = api.obtain_enriched_configurations(d, motif_size=3, min_count=8)
    # one row per (combination, sequence): planted motif rows reference real
    # sequences whose features contain the motif
    sub = out[(out.m1 == 7) & (out.m2 == 19) & (out.m3 == 42)]
    assert len(sub) >= 25
    for _, row in sub.head(5).iterrows():
        feats = [t[0] for t in d[int(row.data_index)]]
        for m in (7, 19, 42):
            assert m in feats
        contribs = {f: c for f, c in d[int(row.data_index)]}
        expected = sum(contribs[m] for m in (7, 19, 42))
        assert abs(row.contribution - expected) < 1e-9


def test_conv_planted_motifs_distances(api):
    d = make_conv_dict()
    truth = brute_force_conv_counts(d, 3, FILTER_LEN)
    out = api.obtain_enriched_configurations(
        d, motif_size=3, min_count=8, filter_len=FILTER_LEN
    )
    for motif, positions, count in CONV_PLANTS:
        gaps = tuple(
            positions[i + 1] - positions[i] - FILTER_LEN for i in range(2)
        )
        if any(g < 0 for g in gaps):
            continue
        true_count = truth[tuple(motif) + gaps]
        if true_count < 8:
            continue
        sub = out[
            (out.m1 == motif[0])
            & (out.m2 == motif[1])
            & (out.m3 == motif[2])
            & (out.d12 == gaps[0])
            & (out.d23 == gaps[1])
        ]
        assert len(sub) >= true_count, motif
        # start/end arithmetic (/root/reference/src/count_cpu.jl:255-261)
        assert (sub["start"] == positions[0]).all()
        assert (sub["end"] == positions[2] + FILTER_LEN - 1).all()


def test_conv_overlap_rejection(api):
    # positions [8,20,25] with filter_len=8: gap23 = 25-20-8 = -3 -> rejected
    d = {1: [(1, 1.0, 8), (2, 1.0, 20), (3, 1.0, 25)]} | {
        i: [(1, 1.0, 8), (2, 1.0, 20), (3, 1.0, 25)] for i in range(2, 12)
    }
    out = api.obtain_enriched_configurations(d, motif_size=3, min_count=1, filter_len=8)
    assert len(out) == 0


def test_higher_order_motifs_scrambled_positions(api):
    # k=4 and k=5 motifs, inserted with scrambled input order — the
    # per-sequence position sort must recover them
    rng = np.random.default_rng(0)
    d = {}
    positions5 = [0, 10, 20, 30, 40]
    filters5 = [11, 22, 33, 44, 55]
    for i in range(1, 13):
        pairs = list(zip(filters5, positions5))
        rng.shuffle(pairs)
        d[i] = [(f, 1.0, p) for f, p in pairs]
    for k, expect_gaps in ((4, (2, 2, 2)), (5, (2, 2, 2, 2))):
        out = api.obtain_enriched_configurations(d, motif_size=k, min_count=12, filter_len=8)
        mcols = [f"m{j+1}" for j in range(k)]
        full = out[(out[mcols] == filters5[:k]).all(axis=1)]
        assert len(full) == 12, k
        import re

        dcols = [c for c in out.columns if re.fullmatch(r"d\d+", c)]
        assert tuple(full.iloc[0][dcols]) == expect_gaps


def test_partitioned_equals_single(api):
    d = make_ordinary_dict()
    a = api.obtain_enriched_configurations(d, motif_size=3, min_count=8)
    b = api.obtain_enriched_configurations_partitioned(
        d, motif_size=3, min_count=8, partition_width=10
    )
    cols = sorted(a.columns)
    a_s = a[cols].sort_values(cols).reset_index(drop=True)
    b_s = b[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a_s, b_s)


def test_empty_and_invalid_inputs(api):
    from epichypersketch_jl_ray.errors import SchemaError

    with pytest.raises(SchemaError):
        api.obtain_enriched_configurations({}, motif_size=3)
    with pytest.raises(SchemaError):
        api.obtain_enriched_configurations({1: [], 2: []}, motif_size=3)
    with pytest.raises(ValueError):
        api.obtain_enriched_configurations({1: [(1, 1.0, 5), (2, 1.0, 20)]}, motif_size=2)


def test_eps_n_bound_on_dense_sketch(api):
    """With the reference's own default geometry (delta=1e-4, epsilon=5e-5,
    /root/reference/src/EpicHyperSketch.jl:14-16) estimates obey
    est <= true + eps*N."""
    from epichypersketch_jl_ray.config import SketchConfig

    d = make_ordinary_dict()
    truth = brute_force_subset_counts(d, 3)
    n_inserts = sum(v for v in truth.values())
    cfg = SketchConfig(delta=1e-4, epsilon=5e-5)
    out = api.obtain_enriched_configurations(d, motif_size=3, min_count=5, config=cfg)
    grouped = out.groupby(["m1", "m2", "m3"])["estimate"].first()
    bound = 5e-5 * n_inserts
    for key, est in grouped.items():
        t = truth.get(tuple(key), 0)
        assert t <= est <= t + bound + 1


def test_statistical_recovery_2000_points(api):
    """2000 sequences of random noise with motifs planted at known rates
    (reference test_cpu_implementation.jl:6-130 analogue): the pipeline must
    recover each planted motif at thresholds its true count clears, and
    report nothing above any noise triple's true count bound."""
    rng = np.random.default_rng(99)
    d = {}
    for i in range(1, 2001):
        feats = rng.integers(500, 2000, size=rng.integers(3, 8)).tolist()
        if i % 10 == 0:
            feats = [11, 22, 33] + feats  # planted in 200 sequences
        elif i % 17 == 0:
            feats = [44, 55] + feats  # pair, not a full triple
        d[i] = [(int(f), 1.0) for f in feats]
    from epichypersketch_jl_ray.sources.reference_fixtures import brute_force_subset_counts

    truth = brute_force_subset_counts(d, 3)
    out = api.obtain_enriched_configurations(d, motif_size=3, min_count=150)
    found = set(map(tuple, out[["m1", "m2", "m3"]].drop_duplicates().to_numpy()))
    assert (11, 22, 33) in found
    # everything reported is genuinely frequent (estimates never undercount,
    # and in the collision-free regime they equal the truth)
    grouped = out.groupby(["m1", "m2", "m3"])["estimate"].first()
    for key, est in grouped.items():
        assert est == truth[tuple(key)]
        assert truth[tuple(key)] >= 150


def test_large_positions_and_features_hash_safety(api):
    """Hash-index range safety with large feature ids and positions
    (reference debug_negative_hash.jl analogue): no negative/overflowed
    indices, exact counting still works."""
    big_f = 2_000_000_000  # near int32 max
    big_p = 1_000_000
    d = {
        i: [
            (big_f, 1.0, big_p),
            (big_f + 7, 1.0, big_p + 100),
            (big_f + 13, 1.0, big_p + 250),
        ]
        for i in range(1, 21)
    }
    out = api.obtain_enriched_configurations(d, motif_size=3, min_count=20, filter_len=8)
    assert len(out) == 20
    assert (out["estimate"] == 20).all()
    assert (out["d12"] == 100 - 8).all()
    assert (out["d23"] == 150 - 8).all()
    assert (out["start"] == big_p).all()


@pytest.mark.parametrize(
    "geometry",
    [dict(delta=9e-3, epsilon=3.24e-7), dict(delta=0.05, epsilon=0.05)],
    ids=["oracle", "coarse"],
)
@pytest.mark.parametrize("conv", [False, True], ids=["ordinary", "conv"])
def test_selector_output_same_on_threshold_view(conv, geometry):
    """MotifSelector against the merged sketch and against its
    ``at_least(min_count)`` view (what motif_pipeline broadcasts) emits the
    same table, ``estimate`` included — in the collision-free geometry and
    in a 3 x 55 one where collisions inflate most estimates."""
    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.stages.motifs import MotifSelector, enumerate_batch
    from epichypersketch_jl_ray.state.countmin import CountMin

    tbl, _ = activation_table_from_dict(make_conv_dict() if conv else make_ordinary_dict())
    kwargs = dict(motif_size=3, conv=conv, filter_len=FILTER_LEN if conv else 0)
    cms = CountMin(5 if conv else 3, seed=20260817, **geometry)
    cms.add(enumerate_batch(tbl, 3, conv=conv, filter_len=kwargs["filter_len"])["hash_mat"])
    for min_count in (3, 8):
        full = MotifSelector(cms, min_count=min_count, **kwargs)(tbl)
        view = MotifSelector(cms.at_least(min_count), min_count=min_count, **kwargs)(tbl)
        assert full.num_rows > 0
        assert view.equals(full)
