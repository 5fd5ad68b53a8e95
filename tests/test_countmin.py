"""CountMin kernel tests — geometry vs reference formulas
(/root/reference/src/sketch.jl:5-25, mirrored from
/root/reference/test/runtests.jl:21-42), no-undercount property, eps*N bound,
merge associativity (north_rule)."""

import numpy as np
import pytest

from epichypersketch_jl_ray.state.countmin import CountMin, cms_cols, cms_num_counters, cms_rows


def test_geometry_matches_reference_formulas():
    # defaults delta=1e-4, epsilon=5e-5 -> 10 x 54366 (/root/reference/src/EpicHyperSketch.jl:14-16)
    assert cms_rows(1e-4) == 10
    assert cms_num_counters(10, 5e-5) == 10 * 54366
    assert cms_cols(10 * 54366, 10) == 54366
    cm = CountMin(3)
    assert cm.rows == 10 and cm.cols == 54366
    assert cm.coeffs.shape == (10, 3)
    assert cm.coeffs.min() >= 1 and cm.coeffs.max() <= cm.num_counters - 1


def test_never_undercounts_and_bound():
    rng = np.random.default_rng(7)
    items = rng.integers(1, 100, size=(5000, 3)).astype(np.int64)
    items.sort(axis=1)
    cm = CountMin(3, delta=1e-3, epsilon=1e-3, seed=42)
    cm.add(items)
    # exact counts
    uniq, true_counts = np.unique(items, axis=0, return_counts=True)
    est = cm.estimate(uniq)
    assert (est >= true_counts).all()  # CMS never undercounts (README.md:196)
    n = cm.n_inserts
    over = est - true_counts
    # est <= true + eps*N for the overwhelming majority (delta bound per item)
    assert (over <= 1e-3 * n).mean() > 0.99


def test_merge_equals_single_and_associative():
    rng = np.random.default_rng(3)
    items = rng.integers(1, 1000, size=(9000, 2)).astype(np.int64)
    whole = CountMin(2, seed=5).add(items)
    parts = [CountMin(2, seed=5).add(c) for c in np.array_split(items, 7)]
    for order in [range(7), reversed(range(7)), [3, 0, 6, 1, 5, 2, 4]]:
        merged = CountMin(2, seed=5)
        for i in order:
            merged.merge(CountMin.from_bytes(parts[i].to_bytes()))
        assert merged.digest() == whole.digest()
        assert merged.n_inserts == whole.n_inserts


def test_dense_sparse_equivalence():
    rng = np.random.default_rng(11)
    items = rng.integers(1, 50, size=(2000, 1)).astype(np.int64)
    a = CountMin(1, delta=0.01, epsilon=0.01, seed=9).add(items)
    b = CountMin(1, delta=0.01, epsilon=0.01, seed=9).add(items).densify()
    q = np.arange(1, 50, dtype=np.int64)[:, None]
    assert (a.estimate(q) == b.estimate(q)).all()
    assert a.digest() == b.digest()


def test_weighted_add():
    cm = CountMin(1, delta=0.01, epsilon=0.001, seed=1)
    cm.add(np.array([[5], [6]]), weights=np.array([10, 3]))
    assert cm.estimate(np.array([[5]]))[0] == 10
    assert cm.estimate(np.array([[6]]))[0] == 3
    assert cm.n_inserts == 13


def test_merge_geometry_mismatch_raises():
    with pytest.raises(ValueError):
        CountMin(1, seed=1).merge(CountMin(1, seed=2))


def test_compact_wire_format_round_trip_and_width():
    """CM01 wire: narrowest-width arrays, exact round trip (sparse + dense +
    estimates), pickle routes through the same format, and byte output is a
    pure function of content (merge-order canonical)."""
    import pickle

    from epichypersketch_jl_ray.functions.hashing import hash_int64

    c = CountMin(1, delta=1e-4, epsilon=6.5e-7, seed=9)
    c.add_keys(hash_int64(np.arange(50_000) % 997, seed=4))
    blob = c.to_bytes()
    assert blob[:4] == b"CM01"
    assert len(blob) < 0.55 * (c.ids.nbytes + c.counts.nbytes)  # ~2x smaller
    d = CountMin.from_bytes(blob)
    assert d.digest() == c.digest() and d.to_bytes() == blob
    q = hash_int64(np.arange(10) % 997, seed=4)
    np.testing.assert_array_equal(d.estimate_keys(q), c.estimate_keys(q))
    # pickle (composite-state path) routes through the wire format
    e = pickle.loads(pickle.dumps(c))
    assert e.digest() == c.digest()
    # dense variant round-trips too
    c2 = CountMin(1, delta=0.5, epsilon=0.05, seed=3)
    c2.add_keys(hash_int64(np.arange(5000), seed=1))
    c2.densify()
    d2 = CountMin.from_bytes(c2.to_bytes())
    assert d2.dense is not None and d2.digest() == c2.digest()


def test_wire_format_int64_fallback_for_wide_counts():
    """Counts past int32 range must switch that array to 8-byte width and
    still round-trip exactly (the 100 TB hot-cell case)."""
    c = CountMin(1, delta=0.5, epsilon=0.05, seed=3)
    big = np.int64(3_000_000_000)
    c.add(np.array([[7]]), weights=np.array([big]))
    d = CountMin.from_bytes(c.to_bytes())
    assert d.digest() == c.digest()
    assert d.estimate(np.array([[7]]))[0] == big


def test_from_bytes_reads_legacy_pickle_blobs():
    """Pre-CM01 checkpoints were plain pickles; from_bytes must still read
    them (resume compatibility)."""
    import copyreg
    import io
    import pickle

    c = CountMin(1, delta=0.5, epsilon=0.05, seed=3)
    c.add(np.array([[7]]))

    # emulate the old serialization: pickle WITHOUT the __reduce__ hook
    class _LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, CountMin):
                state = {k: getattr(obj, k) for k in CountMin.__slots__}
                return (_rebuild_legacy, (state,))
            return NotImplemented

    buf = io.BytesIO()
    _LegacyPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(c)
    d = CountMin.from_bytes(buf.getvalue())
    assert d.digest() == c.digest()


def _rebuild_legacy(state):
    obj = CountMin.__new__(CountMin)
    for k, v in state.items():
        setattr(obj, k, v)
    return obj


def _view_case(dense: bool, keys: bool):
    """A random sketch and its queries: every inserted item plus unseen
    ones. ``dense`` packs 300 inserts into 3 x 55 cells (densified, many
    estimates inflated by collisions); otherwise 5000 inserts into a sparse
    7 x 27183 sketch."""
    from epichypersketch_jl_ray.functions.hashing import hash_int64

    rng = np.random.default_rng(21 if dense else 22)
    geometry = dict(delta=0.05, epsilon=0.05) if dense else dict(delta=1e-3, epsilon=1e-4)
    items = rng.zipf(1.6, size=300 if dense else 5000) % 3000
    unseen = np.arange(3000, 3200)
    if keys:
        cm = CountMin(1, seed=17, **geometry).add_keys(hash_int64(items, seed=2))
        return cm, hash_int64(np.concatenate([np.unique(items), unseen]), seed=2), CountMin.estimate_keys
    pairs = np.stack([items, items // 7], axis=1)
    q = np.concatenate([np.unique(pairs, axis=0), np.stack([unseen, unseen], axis=1)])
    return CountMin(2, seed=17, **geometry).add(pairs), q, CountMin.estimate


@pytest.mark.parametrize("keys", [False, True], ids=["features", "keys"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_at_least_view_contract(dense, keys):
    """The threshold view passes exactly the queries the full sketch passes,
    with the same values; round-trips the wire format, keeps n_inserts and
    leaves the source sketch byte-identical."""
    cm, q, est = _view_case(dense, keys)
    assert (cm.dense is not None) == dense
    full = est(cm, q)
    before = cm.to_bytes()
    for t in (1, 2, 3, 5):
        view = cm.at_least(t)
        assert cm.to_bytes() == before
        assert view.n_inserts == cm.n_inserts
        got = est(view, q)
        passed = full >= t
        assert passed.any() and not passed.all()
        np.testing.assert_array_equal(got >= t, passed)
        np.testing.assert_array_equal(got[passed], full[passed])
        back = CountMin.from_bytes(view.to_bytes())
        assert back.to_bytes() == view.to_bytes() and back.n_inserts == cm.n_inserts
        np.testing.assert_array_equal(est(back, q), got)
        if not dense and t > 1:
            assert len(view.ids) < len(cm.ids)
    # survivors past half the cells keep the view dense (the densify rule)
    assert (cm.at_least(1).dense is not None) == dense


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_at_least_empty_view_estimates_zero(dense):
    cm, q, est = _view_case(dense, keys=False)
    top = int(cm.dense.max()) if dense else int(cm.counts.max())
    view = cm.at_least(top + 1)
    assert view.dense is None and len(view.ids) == 0
    assert not est(view, q).any()
    assert not est(CountMin.from_bytes(view.to_bytes()), q).any()
