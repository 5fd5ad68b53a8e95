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


def _view_case(dense: bool, keys: bool, weighted: bool = False):
    """A random sketch and its queries: every inserted item plus unseen
    ones. ``dense`` packs 300 inserts into 3 x 55 cells (densified, many
    estimates inflated by collisions); otherwise 5000 inserts into a sparse
    7 x 27183 sketch. ``weighted`` counts each insert 1-5 times."""
    from epichypersketch_jl_ray.functions.hashing import hash_int64

    rng = np.random.default_rng(21 if dense else 22)
    geometry = dict(delta=0.05, epsilon=0.05) if dense else dict(delta=1e-3, epsilon=1e-4)
    items = rng.zipf(1.6, size=300 if dense else 5000) % 3000
    w = rng.integers(1, 6, size=len(items)) if weighted else None
    unseen = np.arange(3000, 3200)
    if keys:
        cm = CountMin(1, seed=17, **geometry).add_keys(hash_int64(items, seed=2), w)
        return cm, hash_int64(np.concatenate([np.unique(items), unseen]), seed=2), CountMin.estimate_keys
    pairs = np.stack([items, items // 7], axis=1)
    q = np.concatenate([np.unique(pairs, axis=0), np.stack([unseen, unseen], axis=1)])
    return CountMin(2, seed=17, **geometry).add(pairs, w), q, CountMin.estimate


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


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("keys", [False, True], ids=["features", "keys"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_thresholded_estimate_is_where_est_at_least_t(dense, keys, weighted):
    """estimate_at_least / estimate_keys_at_least give where(est >= t, est,
    0) of the plain estimate, on the sketch and on its at_least(t) view (the
    select passes' broadcast), t = 1 included, where nothing drops out."""
    cm, q, est = _view_case(dense, keys, weighted)
    assert (cm.dense is not None) == dense
    thresholded = CountMin.estimate_keys_at_least if keys else CountMin.estimate_at_least
    full = est(cm, q)
    for t in (1, 2, 3, 5, 40):
        want = np.where(full >= t, full, 0)
        for sk in (cm, cm.at_least(t)):
            got = thresholded(sk, q, t)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert thresholded(cm, q[:0], t).shape == (0,)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_at_least_empty_view_estimates_zero(dense):
    cm, q, est = _view_case(dense, keys=False)
    top = int(cm.dense.max()) if dense else int(cm.counts.max())
    view = cm.at_least(top + 1)
    assert view.dense is None and len(view.ids) == 0
    assert not est(view, q).any()
    assert not est(CountMin.from_bytes(view.to_bytes()), q).any()


# (delta, epsilon): a 2 x 272 sketch and the web build's 10 x 54,366 one,
# counted by bincount, and a 1 x 18,121,880 one and a 5 x 3,397,853 one,
# past 2^24 cells, counted and merged by sort one sketch row at a time
_PIN_GEOMETRIES = {
    "small": (0.3, 0.01),
    "web": (1e-4, 5e-5),
    "large": (0.5, 1.5e-7),
    "large_rows": (9e-3, 8e-7),
}


def _pin_sketch(geometry: str, width: int) -> CountMin:
    delta, epsilon = _PIN_GEOMETRIES[geometry]
    return CountMin(width, delta=delta, epsilon=epsilon, seed=29)


def _cells(cm: CountMin) -> tuple[np.ndarray, np.ndarray]:
    """(flat ids, counts) of the nonzero cells, whatever the storage."""
    if cm.dense is not None:
        flat = cm.dense.ravel()
        ids = np.flatnonzero(flat)
        return ids, flat[ids]
    keep = cm.counts != 0
    return cm.ids[keep], cm.counts[keep]


def _reference_add(cm: CountMin, before: CountMin, batch, weights, keys: bool):
    """``before``'s cells plus the batch, added one sketch row at a time
    with unbuffered np.add.at, hashed per row as the hash family defines."""
    from epichypersketch_jl_ray.functions.hashing import splitmix64

    ref = np.zeros(cm.num_counters, dtype=np.int64)
    ids, counts = _cells(before)
    ref[ids] = counts
    w = 1 if weights is None else weights
    for r in range(cm.rows):
        if keys:
            col = (splitmix64(batch ^ cm.row_seeds[r]) % np.uint64(cm.cols)).astype(np.int64)
        else:
            col = ((batch % cm.num_counters) @ cm.coeffs[r]) % cm.num_counters % cm.cols
        np.add.at(ref, r * cm.cols + col, w)
    nz = np.flatnonzero(ref)
    return nz, ref[nz]


@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("start", ["fresh", "coo", "dense"])
@pytest.mark.parametrize("keys", [True, False], ids=["add_keys", "add"])
@pytest.mark.parametrize("geometry", list(_PIN_GEOMETRIES))
def test_add_matches_per_row_add_at_reference(geometry, keys, start, weighted, n):
    """add_keys / add on a fresh, a COO and a dense state give the cells a
    per-row np.add.at gives, and n_inserts counts the batch's weight."""
    rng = np.random.default_rng(n)
    width = 1 if keys else 2

    def batch(size):
        if keys:
            return rng.integers(0, 2**63, size=size // 3, dtype=np.int64).astype(np.uint64)[
                rng.integers(0, size // 3, size=size)
            ]
        return rng.integers(0, 10**9, size=(size, width), dtype=np.int64)

    cm = _pin_sketch(geometry, width)
    if start != "fresh":
        (cm.add_keys if keys else cm.add)(batch(200))
        if start == "dense":
            cm.densify()
    before = CountMin.from_bytes(cm.to_bytes())
    x = batch(n)
    w = rng.integers(1, 7, size=n) if weighted else None
    want_ids, want_counts = _reference_add(cm, before, x, w, keys)
    (cm.add_keys if keys else cm.add)(x, w)
    got_ids, got_counts = _cells(cm)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_counts, want_counts)
    assert cm.n_inserts == before.n_inserts + (n if w is None else int(w.sum()))
    assert (cm.dense is not None) == (start == "dense" or len(want_ids) > cm.num_counters // 2)


def test_born_dense_state_equals_densified_coo():
    """A fresh state whose first batch fills more than half the cells is
    built dense at once; it equals, byte for byte, the COO state of the same
    cells densified."""
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2**63, size=4000, dtype=np.int64).astype(np.uint64)
    born = _pin_sketch("small", 1).add_keys(x)
    assert born.dense is not None
    old = _pin_sketch("small", 1)
    flat = (old.key_columns(x).T + (np.arange(old.rows) * old.cols)[:, None]).ravel()
    counts = np.bincount(flat, minlength=old.num_counters)
    old.ids = np.flatnonzero(counts)
    old.counts = counts[old.ids]
    old.n_inserts = len(x)
    old.densify()
    assert born.to_bytes() == old.to_bytes()
    assert born.digest() == old.digest()
    # at or below half the cells a fresh state stays COO
    sparse = _pin_sketch("small", 1).add_keys(x[:40])
    assert sparse.dense is None and len(sparse.ids) <= sparse.num_counters // 2


@pytest.mark.parametrize("geometry", list(_PIN_GEOMETRIES))
def test_dense_merge_of_coo_partials_matches_reference(geometry):
    """merge_many folds COO partials into a dense accumulator cell by cell."""
    rng = np.random.default_rng(8)
    acc = _pin_sketch(geometry, 1).add_keys(rng.integers(0, 2**63, 500).astype(np.uint64))
    acc.densify()
    parts = [
        _pin_sketch(geometry, 1).add_keys(rng.integers(0, 2**63, 100).astype(np.uint64))
        for _ in range(3)
    ]
    assert all(p.dense is None for p in parts)
    ref = acc.dense.ravel().copy()
    for p in parts:
        np.add.at(ref, p.ids, p.counts)
    acc.merge_many(parts)
    np.testing.assert_array_equal(acc.dense.ravel(), ref)
    assert acc.n_inserts == 500 + 3 * 100


def test_coo_merge_many_past_2_24_matches_reference():
    """merge_many of COO partials at a multi-row sketch past 2^24 cells (the
    per-row sort merge) gives the cells np.add.at gives, with an empty
    partial, partials whose cells lie in some rows only, and weighted and
    unweighted counts."""
    rng = np.random.default_rng(9)
    acc = _pin_sketch("large_rows", 2)
    assert acc.rows == 5 and acc.num_counters > 1 << 24
    acc.add(rng.integers(0, 1000, size=(3000, 2)))

    def partial(n, weighted, rows=None):
        p = _pin_sketch("large_rows", 2)
        w = rng.integers(1, 9, size=n) if weighted else None
        p.add(rng.integers(0, 1000, size=(n, 2)), w)
        if rows is not None:  # keep the cells of some sketch rows only
            keep = np.isin(p.ids // p.cols, rows)
            p.ids, p.counts = p.ids[keep], p.counts[keep]
        return p

    parts = [
        _pin_sketch("large_rows", 2),
        partial(2000, False),
        partial(2000, True),
        partial(500, False, rows=[0, 3]),
        partial(500, True, rows=[4]),
        partial(500, False, rows=[]),
    ]
    assert all(p.dense is None for p in [acc, *parts])
    ref = np.zeros(acc.num_counters, dtype=np.int64)
    for p in [acc, *parts]:
        np.add.at(ref, p.ids, p.counts)
    n_inserts = acc.n_inserts + sum(p.n_inserts for p in parts)
    acc.merge_many(parts)
    assert acc.dense is None
    want = np.flatnonzero(ref)
    np.testing.assert_array_equal(acc.ids, want)
    np.testing.assert_array_equal(acc.counts, ref[want])
    assert acc.n_inserts == n_inserts


def _web_key_batch(rng) -> np.ndarray:
    """A batch shaped like one 4096-row web batch's trigram keys: 70,000
    keys, 45,000 of them distinct and the rest repeats, so a fresh state at
    the web geometry is born dense."""
    pool = rng.integers(0, 2**63, size=45_000, dtype=np.int64).astype(np.uint64)
    x = np.concatenate([pool, pool[rng.integers(0, len(pool), size=25_000)]])
    return x[rng.permutation(len(x))]


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("start", ["fresh", "coo", "dense"])
def test_add_keys_web_batch_matches_reference(start, weighted):
    rng = np.random.default_rng(5)
    cm = _pin_sketch("web", 1)
    if start != "fresh":
        cm.add_keys(rng.integers(0, 2**63, size=6000, dtype=np.int64).astype(np.uint64))
        assert cm.dense is None
        if start == "dense":
            cm.densify()
    before = CountMin.from_bytes(cm.to_bytes())
    x = _web_key_batch(rng)
    w = rng.integers(1, 7, size=len(x)) if weighted else None
    want_ids, want_counts = _reference_add(cm, before, x, w, keys=True)
    cm.add_keys(x, w)
    got_ids, got_counts = _cells(cm)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_counts, want_counts)
    assert cm.dense is not None  # more than half the cells are touched
    assert cm.n_inserts == before.n_inserts + (len(x) if w is None else int(w.sum()))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("start", ["fresh", "coo", "dense"])
@pytest.mark.parametrize("geometry", list(_PIN_GEOMETRIES))
def test_empty_key_batch_leaves_state_unchanged(geometry, start, weighted):
    rng = np.random.default_rng(4)
    cm = _pin_sketch(geometry, 1)
    if start != "fresh":
        cm.add_keys(rng.integers(0, 2**63, size=300, dtype=np.int64).astype(np.uint64))
        if start == "dense":
            cm.densify()
    before = cm.to_bytes()
    cm.add_keys(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64) if weighted else None)
    assert cm.to_bytes() == before
    assert cm.n_inserts == (0 if start == "fresh" else 300)


@pytest.mark.parametrize("view", [False, True], ids=["state", "at_least"])
@pytest.mark.parametrize("start", ["coo", "dense"])
def test_estimate_keys_is_row_min_over_key_columns(start, view):
    """At the web geometry estimate_keys gives, for each key, the min over
    rows of the cell key_columns names, on a COO and a dense state and on
    their at_least views (the n-gram select's broadcast shape)."""
    rng = np.random.default_rng(6)
    cm = _pin_sketch("web", 1)
    x = _web_key_batch(rng) if start == "dense" else _web_key_batch(rng)[:5000]
    cm.add_keys(x)
    assert (cm.dense is not None) == (start == "dense")
    if view:
        cm = cm.at_least(2)
    unseen = rng.integers(0, 2**63, size=3000, dtype=np.int64).astype(np.uint64)
    q = np.concatenate([x[:8000], unseen])
    table = np.zeros(cm.num_counters, dtype=np.int64)
    ids, counts = _cells(cm)
    table[ids] = counts
    cells = cm.key_columns(q) + np.arange(cm.rows) * cm.cols
    want = table[cells].min(axis=1)
    assert want.any() and not want.all()
    np.testing.assert_array_equal(cm.estimate_keys(q), want)


def test_key_columns_is_per_row_splitmix():
    """key_columns, the readable definition of a key's columns, is row r's
    ``splitmix64(key ^ row_seeds[r]) % cols``."""
    from epichypersketch_jl_ray.functions.hashing import splitmix64

    cm = _pin_sketch("web", 1)
    k = np.random.default_rng(3).integers(0, 2**63, size=1000, dtype=np.int64).astype(np.uint64)
    got = cm.key_columns(k)
    assert got.shape == (1000, cm.rows) and got.dtype == np.int64
    for r in range(cm.rows):
        want = (splitmix64(k ^ cm.row_seeds[r]) % np.uint64(cm.cols)).astype(np.int64)
        np.testing.assert_array_equal(got[:, r], want)


@pytest.mark.parametrize("start", ["fresh", "coo", "dense"])
@pytest.mark.parametrize("geometry", list(_PIN_GEOMETRIES))
def test_weighted_counts_stay_exact_past_2_53(geometry, start):
    """A float64 bincount would round a cell's total past 2^53; such batches
    are counted in int64, so the estimate equals n_inserts' exact sum."""
    cm = _pin_sketch(geometry, 1)
    if start != "fresh":
        cm.add_keys(np.arange(100, 400, dtype=np.uint64))
        if start == "dense":
            cm.densify()
    before = int(cm.estimate_keys(np.array([5], dtype=np.uint64))[0])
    w = np.array([2**52 + 1, 2**52 + 2])
    cm.add_keys(np.array([5, 5], dtype=np.uint64), weights=w)
    assert int(cm.estimate_keys(np.array([5], dtype=np.uint64))[0]) == before + 2**53 + 3
    assert cm.n_inserts == (0 if start == "fresh" else 300) + 2**53 + 3
    feat = _pin_sketch(geometry, 2).add(np.array([[7, 9], [7, 9]]), weights=w)
    assert int(feat.estimate(np.array([[7, 9]]))[0]) == 2**53 + 3


def test_multilinear_hash_bound_raises():
    """hash_width * (num_counters - 1)^2 must stay below 2^63, or the
    multilinear hash would wrap; a geometry past it raises instead."""
    wide = CountMin(5, delta=0.5, epsilon=2e-9)  # 1 x 1,359,140,914 cells
    assert 5 * (wide.num_counters - 1) ** 2 >= 2**63
    with pytest.raises(ValueError, match="overflow"):
        wide.add(np.ones((3, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="overflow"):
        wide.estimate(np.ones((3, 5), dtype=np.int64))
    # the same cells with one hash column stay inside the bound
    narrow = CountMin(1, delta=0.5, epsilon=2e-9)
    assert narrow.hash_columns(np.array([3])).shape == (1, 1)


def _threshold_merge(geometry: str, inserts: list, shards: int, t: int) -> CountMin:
    """merge_many(partials).at_least(t) as the sharded threshold count:
    each partial's inserts (keys, weights) hashed into raw cells by
    key_cells, cut into ``shards`` cell-id ranges by cut_cells, each range
    summed across the partials by sum_cells_at_least, and the ranges'
    cells put into a sketch of the geometry with no cell by merge_cells."""
    from epichypersketch_jl_ray.state.countmin import cut_cells, sum_cells_at_least

    view = _pin_sketch(geometry, 1)
    cuts = [cut_cells([view.key_cells(k, w)], view.rows, view.cols, shards) for k, w in inserts]
    assert all(len(c) == shards for c in cuts)
    cells = [sum_cells_at_least([c[s] for c in cuts], t) for s in range(shards)]
    for s in range(shards):
        lo, hi = s * view.num_counters // shards, (s + 1) * view.num_counters // shards
        for ids in [c[s][0] for c in cuts] + [cells[s][0]]:
            assert ((ids >= lo) & (ids < hi)).all()
    view.merge_cells(np.concatenate([i for i, _ in cells]), np.concatenate([c for _, c in cells]))
    view.n_inserts = sum(len(k) if w is None else int(w.sum()) for k, w in inserts)
    return view


@pytest.mark.parametrize("t", ["one", "three", "above_all"])
@pytest.mark.parametrize("shards", [1, 3, 7, 64])
@pytest.mark.parametrize("geometry", ["small", "large_rows"])
def test_sharded_threshold_merge_equals_merge_many_at_least(geometry, shards, t):
    """Hashing the inserts of random partials into raw cells, cutting them
    into cell-id ranges, summing each range with sum_cells_at_least and
    concatenating gives the cells, the n_inserts and the estimates of
    merge_many(partials).at_least(t). The partials: COO ones over one key
    pool (overlapping ids), weighted and not (so a range mixes weighted
    and unweighted cells), a dense one and an empty one; 7 and 64 ranges
    exceed the sketch's rows, and at the large geometry 64 ranges leave
    some ranges without a cell. Thresholds: 1 (every nonzero cell), 3, and
    one above every count (no cell)."""
    rng = np.random.default_rng(shards)
    # 20 keys at the large geometry: 100 cells, so 64 ranges leave some empty
    pool_size = 400 if geometry == "small" else 20
    pool = rng.integers(0, 2**63, size=pool_size, dtype=np.int64).astype(np.uint64)
    inserts = []

    def partial(n, weighted=False, dense=False):
        p = _pin_sketch(geometry, 1)
        keys = pool[rng.integers(0, len(pool), n)]
        w = rng.integers(1, 5, n) if weighted else None
        inserts.append((keys, w))
        if n:
            p.add_keys(keys, w)
        return p.densify() if dense else p

    # at the small geometry (544 cells) the merged sketch is dense, and so
    # is its at_least(1) view
    n = [300, 500, 0, 200, 80] if geometry == "large_rows" else [80, 110, 0, 60, 40]
    parts = [
        partial(n[0]),
        partial(n[1], weighted=True),
        partial(n[2]),
        partial(n[3], dense=True),
        partial(n[4]),
    ]
    assert [p.dense is not None for p in parts] == [False, False, False, True, False]
    n_inserts = sum(p.n_inserts for p in parts)
    copies = [CountMin.from_bytes(p.to_bytes()) for p in parts]
    full = copies[0].merge_many(copies[1:])
    top = int(_cells(full)[1].max())
    threshold = {"one": 1, "three": 3, "above_all": top + 1}[t]
    want = full.at_least(threshold)
    got = _threshold_merge(geometry, inserts, shards, threshold)

    for a, b in zip(_cells(got), _cells(want)):
        np.testing.assert_array_equal(a, b)
    assert (got.dense is None) == (want.dense is None)
    assert got.n_inserts == want.n_inserts == n_inserts
    q = np.concatenate([pool, rng.integers(0, 2**63, size=200, dtype=np.int64).astype(np.uint64)])
    np.testing.assert_array_equal(got.estimate_keys(q), want.estimate_keys(q))
    if t == "above_all":
        assert len(got.ids) == 0 and not got.estimate_keys(q).any()
    if geometry == "large_rows" and shards == 64:
        bounds = np.arange(65) * full.num_counters // 64
        assert len(np.unique(np.searchsorted(bounds, _cells(full)[0], side="right"))) < 64


@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("geometry", list(_PIN_GEOMETRIES))
def test_raw_cells_sum_to_the_cells_add_counts(geometry, n):
    """cells(features) and key_cells(keys, weights) are the cells add and
    add_keys count: summed per id they equal the sketch's cells, row r's
    ids lie in row r's range, and they are int32 below 2**31 counters.
    key_cells dedups an unweighted batch of more than 4096 keys into
    weighted distinct keys, as add_keys does."""
    rng = np.random.default_rng(n)
    feats = rng.integers(0, 50, size=(n, 2))
    keys = rng.integers(0, n // 3, size=n).astype(np.uint64)
    w = rng.integers(1, 9, n)
    pair, key = _pin_sketch(geometry, 2), _pin_sketch(geometry, 1)
    batches = [
        ("features", pair.cells(feats), None, _pin_sketch(geometry, 2).add(feats)),
        ("keys", *key.key_cells(keys), _pin_sketch(geometry, 1).add_keys(keys)),
        ("weighted", *key.key_cells(keys, w), _pin_sketch(geometry, 1).add_keys(keys, w)),
    ]
    for name, ids, weights, want in batches:
        assert ids.dtype == np.int32, name
        assert (weights is not None) == (name == "weighted" or (name == "keys" and n > 4096)), name
        per_row = len(ids) // want.rows
        for r in range(want.rows):
            row = ids[r * per_row : (r + 1) * per_row]
            assert ((row >= r * want.cols) & (row < (r + 1) * want.cols)).all(), name
        got = np.bincount(ids, weights, minlength=want.num_counters).astype(np.int64)
        np.testing.assert_array_equal(np.flatnonzero(got), _cells(want)[0])
        np.testing.assert_array_equal(got[got != 0], _cells(want)[1])
