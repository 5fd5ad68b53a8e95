"""HLL / KLL / t-digest / Bloom pipelines over the testdata tables —
the north_rule sketch suite (SURVEY.md §2.4 A4-A7) run through the same UDAF
harness as the CMS.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.stages.udaf import sketch_dataset
from epichypersketch_jl_ray.state import BloomFilter, HyperLogLog, KLL, TDigest
from epichypersketch_jl_ray.functions.hashing import hash_int64

SEED = 424242
QS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


# --- cardinality -----------------------------------------------------------


def _distinct_users_hll_sketch(sf_dir: str, *, p: int = 14) -> HyperLogLog:
    """Build the overall user_id HLL (merged across all blocks)."""
    ds = read_table(sf_dir, "events", columns=["user_id"])

    def update(h: HyperLogLog, batch: pa.Table) -> None:
        h.update_hashed(hash_int64(batch["user_id"].to_numpy(zero_copy_only=False), seed=SEED))

    return sketch_dataset(ds, lambda: HyperLogLog(p=p, seed=SEED), update, HyperLogLog)


def distinct_users_hll(sf_dir: str, *, p: int = 14) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT user_id) via HLL (rse ~= 1.04/sqrt(2^p)).

    The registry variant (pipelines/merged.distinct_users_hll) additionally
    dumps the registers and is FULLY SQL-oracled in the linear-counting
    regime; this plain-estimate form stays accuracy-tested in pytest.
    """
    hll = _distinct_users_hll_sketch(sf_dir, p=p)
    return pd.DataFrame({"distinct_users_est": [float(hll.estimate())]})


def distinct_users_exact(sf_dir: str) -> pd.DataFrame:
    """Exact distinct count — groupby-count then count (stays distributed:
    ``Dataset.unique`` would pull every distinct value to the driver). This
    is the shuffle-paying baseline the HLL answer is judged against."""
    ds = read_table(sf_dir, "events", columns=["user_id"])
    n = ds.groupby("user_id").count().count()
    return pd.DataFrame({"distinct_users": pd.array([int(n)], dtype="int64")})


def distinct_users_exact_sql() -> str:
    return "SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users FROM events"


def _hll_14() -> HyperLogLog:
    return HyperLogLog(p=14, seed=SEED)


def _distinct_users_by_type_sketches(sf_dir: str):
    """One HLL per event_type (state/grouped.GroupedSketch) — no corpus
    shuffle, only (n_types x 2^p registers) of state."""
    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def update(g, batch: pa.Table) -> None:
        types = batch["event_type"].to_numpy(zero_copy_only=False)
        users = hash_int64(batch["user_id"].to_numpy(zero_copy_only=False), seed=SEED)
        grouped_update(g, types, users, lambda sk, v: sk.update_hashed(v))

    return sketch_dataset(ds, lambda: GroupedSketch(_hll_14), update, GroupedSketch)


def distinct_users_by_type_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact grouped distinct count — two-level groupby (distinct pairs,
    then count per type); the shuffle-paying baseline for the grouped HLL."""
    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return (
        ds.groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .groupby("event_type")
        .aggregate(Count(alias_name="distinct_users"))
    )


def distinct_users_by_type_exact_sql() -> str:
    return """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users
FROM events GROUP BY event_type
"""


# --- quantiles -------------------------------------------------------------


def doc_length_quantiles_kll(sf_dir: str, *, k: int = 4096) -> pd.DataFrame:
    """n_chars quantiles via KLL.

    With k >= n (true at the sf0.01 correctness gate) the sketch never
    compacts and the answer is the exact lower order statistic — matching
    DuckDB quantile_disc; at bench scale it degrades gracefully to the KLL
    rank-error bound.
    """
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def update(s: KLL, batch: pa.Table) -> None:
        s.update(batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64))

    kll = sketch_dataset(ds, lambda: KLL(k=k, seed=SEED), update, KLL)
    return pd.DataFrame({"q": list(QS), "n_chars_q": [kll.quantile(q) for q in QS]})


def doc_length_quantiles_kll_sql() -> str:
    parts = [
        f"SELECT {q} AS q, CAST(quantile_disc(n_chars, {q}) AS DOUBLE) AS n_chars_q FROM documents"
        for q in QS
    ]
    return " UNION ALL ".join(parts)


def doc_length_quantiles_by_lang(sf_dir: str, *, k: int = 4096) -> pd.DataFrame:
    """GROUPED quantiles via one KLL per lang (state/grouped.GroupedSketch):
    per-block partial dicts merge key-wise through the UDAF harness, so the
    corpus is never shuffled — only (n_langs x sketch) states travel. Exact
    in KLL's no-compaction regime (k >= per-lang n at the gate scale), so
    the quantile_disc-by-lang oracle hash-matches; bounded-cardinality keys
    only (per-key state)."""
    from functools import partial

    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update

    factory = partial(KLL, k=k, seed=SEED)
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def update(g: GroupedSketch, batch: pa.Table) -> None:
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        vals = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        grouped_update(g, langs, vals, lambda sk, v: sk.update(v))

    grouped = sketch_dataset(ds, lambda: GroupedSketch(factory), update, GroupedSketch)
    rows = [
        (lang, q, grouped.parts[lang].quantile(q)) for lang in grouped.keys() for q in QS
    ]
    return pd.DataFrame(rows, columns=["lang", "q", "n_chars_q"])


def doc_length_quantiles_by_lang_sql() -> str:
    parts = [
        f"SELECT lang, {q} AS q, CAST(quantile_disc(n_chars, {q}) AS DOUBLE) AS n_chars_q "
        "FROM documents GROUP BY lang"
        for q in QS
    ]
    return " UNION ALL ".join(parts)


def doc_length_quantiles_tdigest(
    sf_dir: str, *, compression: float = 200.0, store_centroids: bool = False
) -> pd.DataFrame:
    """n_chars quantiles via merging t-digest.

    The clustering itself is not SQL-expressible (rank-error bound asserted
    in pytest), but the QUERY stage is: with ``store_centroids=True`` the
    sealed (idx, mean, weight) centroid table plus min/max sentinel rows
    (idx=-1/-2) is written to ``store_dir("tdigest_centroids")``, and
    merged.doc_length_quantiles_approx_sql() replays quantile()'s exact
    interpolation arithmetic over it in SQL. Bit-exactness holds because
    unit-weight inputs make every centroid weight integer-valued, so the
    cumulative half-weight centers are exact multiples of 0.5 in any
    summation order, and the interpolation expression tree matches
    state/tdigest.py term for term."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def update(s: TDigest, batch: pa.Table) -> None:
        s.update(batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64))

    td = sketch_dataset(ds, lambda: TDigest(compression), update, TDigest)
    td._compress()  # seal before both the store and the quantile queries
    if store_centroids:
        import os
        import shutil

        import pyarrow.parquet as pq

        from epichypersketch_jl_ray.sources.sinks import store_dir

        n_c = len(td.means)
        tbl = pa.table(
            {
                "idx": pa.array(
                    np.concatenate([np.arange(n_c), [-1, -2]]).astype(np.int64)
                ),
                "mean": pa.array(
                    np.concatenate([td.means, [td._min, td._max]]), pa.float64()
                ),
                "weight": pa.array(
                    np.concatenate([td.weights, [0.0, 0.0]]), pa.float64()
                ),
            }
        )
        store = store_dir("tdigest_centroids")
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(store)
        pq.write_table(tbl, f"{store}/part-0.parquet")
    return pd.DataFrame({"q": list(QS), "n_chars_q": [td.quantile(q) for q in QS]})


# --- heavy hitters without a second pass ------------------------------------


def top_ngrams_spacesaving(
    sf_dir: str, *, min_count: int = 3, capacity: int = 32768
) -> pd.DataFrame:
    """Heavy-hitter trigrams via SpaceSaving — enumerates the heavy keys in
    ONE pass (the CMS pipeline needs a second scan to recover strings; here
    a tiny string-lookup pass resolves only the surviving keys).

    With capacity >= distinct-trigram count (true at test scale) every key
    keeps its own counter, estimates are exact and the DuckDB oracle
    hash-matches; at web scale the capacity caps memory and the guaranteed
    (est - err >= min_count) set is reported instead — no false positives
    either way.
    """
    from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes
    from epichypersketch_jl_ray.state.spacesaving import SpaceSaving

    ds = read_table(sf_dir, "documents", columns=["text"])

    def update(s: SpaceSaving, batch: pa.Table) -> None:
        flat, off = token_hashes(batch["text"])
        ng, _ = ngram_hashes(flat, off, 3)
        s.update_hashed(ng)

    if ds.count() == 0:
        return pd.DataFrame({"ngram": [], "estimate": []}).astype({"estimate": "int64"})
    ss = sketch_dataset(ds, lambda: SpaceSaving(capacity=capacity), update, SpaceSaving)
    hh = ss.heavy_hitters(min_count=min_count)
    if not hh:
        return pd.DataFrame({"ngram": [], "estimate": []}).astype({"estimate": "int64"})
    wanted = np.array(sorted(k for k, _, _ in hh), dtype=np.uint64)
    est_by_key = {k: c for k, c, _ in hh}
    name_of = _resolve_ngram_strings(ds, wanted)
    rows = pd.DataFrame(
        {
            "ngram": [name_of[k] for k in wanted],
            "estimate": [est_by_key[k] for k in wanted],
        }
    ).astype({"estimate": "int64"})
    return rows.sort_values("ngram").reset_index(drop=True)


def _resolve_ngram_strings(
    ds, wanted: np.ndarray, *, n: int = 3
) -> dict[np.uint64, str]:
    """hash -> trigram-string map for the (survivor-scale) ``wanted``
    hashes: one corpus scan with ONE tokenization per batch (token hashes
    are computed from the already-split token array, not by re-splitting
    the text). Shared by every SpaceSaving n-gram pipeline."""
    import ray as _ray

    wanted_ref = _ray.put(np.sort(np.asarray(wanted, dtype=np.uint64)))

    def resolve(batch: pa.Table) -> pa.Table:
        from epichypersketch_jl_ray.functions.hashing import hash_strings_fast
        from epichypersketch_jl_ray.functions.text import (
            ngram_hashes,
            ngram_strings,
            ngram_tokens,
        )

        w = _ray.get(wanted_ref)
        toks, _row_ids, starts = ngram_tokens(batch["text"], n)
        flat_tokens = toks.flatten()
        offsets = np.asarray(toks.offsets, dtype=np.int64)
        ng, _ = ngram_hashes(hash_strings_fast(flat_tokens), offsets, n)
        hit = np.isin(ng, w)
        if not hit.any():
            return pa.table({"key": pa.array([], pa.int64()), "ngram": pa.array([], pa.string())})
        sel = np.flatnonzero(hit)
        # dedupe keys within batch
        _, first = np.unique(ng[sel], return_index=True)
        sel = sel[first]
        return pa.table(
            {
                "key": pa.array(ng[sel].view(np.int64), pa.int64()),
                "ngram": ngram_strings(flat_tokens, starts[sel], n),
            }
        )

    rows = ds.map_batches(resolve, batch_format="pyarrow").to_pandas().drop_duplicates("key")
    return dict(zip(rows["key"].to_numpy().view(np.uint64), rows["ngram"]))


def top_ngrams_spacesaving_sql(min_count: int = 3) -> str:
    from epichypersketch_jl_ray.pipelines.ngrams import heavy_ngrams_sql

    return heavy_ngrams_sql(3, min_count)


def doc_sample(sf_dir: str, *, k: int = 100) -> pd.DataFrame:
    """Deterministic distributed uniform sample of doc_ids via the mergeable
    priority reservoir (partition/merge-order invariant; rows-only check)."""
    from epichypersketch_jl_ray.state.reservoir import ReservoirSample

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def update(r: ReservoirSample, batch: pa.Table) -> None:
        r.update(batch["doc_id"].to_numpy(zero_copy_only=False))

    res = sketch_dataset(ds, lambda: ReservoirSample(k=k, seed=SEED), update, ReservoirSample)
    return pd.DataFrame({"doc_id": res.sample()})


# --- membership ------------------------------------------------------------


def user_membership_bloom(sf_dir: str, *, capacity: int = 65536, p: float = 1e-9) -> pd.DataFrame:
    """Bloom membership for probe ids 0..2*(max_user_id+1).

    Present keys always hit (zero false negatives); with p=1e-9 the absent
    half has ~0 expected false positives, so the answer is deterministic and
    the DuckDB oracle (exact IN) hash-matches.
    """
    ds = read_table(sf_dir, "events", columns=["user_id"])
    max_id = int(ds.max("user_id"))

    def update(b: BloomFilter, batch: pa.Table) -> None:
        b.add_hashed(hash_int64(batch["user_id"].to_numpy(zero_copy_only=False), seed=SEED))

    bf = sketch_dataset(
        ds, lambda: BloomFilter(capacity=capacity, p=p, seed=SEED), update, BloomFilter
    )
    probes = np.arange(0, 2 * (max_id + 1), dtype=np.int64)
    present = bf.contains_hashed(hash_int64(probes, seed=SEED))
    return pd.DataFrame({"probe_id": probes, "present": present})


def user_membership_bloom_sql() -> str:
    return """
WITH mx AS (SELECT CAST(MAX(user_id) + 1 AS BIGINT) AS m FROM events),
p AS (SELECT unnest(range(0, 2 * m)) AS probe_id FROM mx)
SELECT probe_id, probe_id IN (SELECT user_id FROM events) AS present FROM p
"""


def doc_length_quantiles_dd(sf_dir: str, *, alpha: float = 0.01) -> pd.DataFrame:
    """n_chars quantiles via DDSketch — RELATIVE-error bound (each answer
    within alpha of the true value at its rank), complementing KLL's
    rank-error bound. Rows-only (approximate); bound asserted in pytest."""
    from epichypersketch_jl_ray.state.ddsketch import DDSketch

    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def update(s: DDSketch, batch: pa.Table) -> None:
        s.update(batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64))

    dd = sketch_dataset(ds, lambda: DDSketch(alpha=alpha), update, DDSketch)
    return pd.DataFrame({"q": list(QS), "n_chars_q": [dd.quantile(q) for q in QS]})


def doc_sample_by_lang(sf_dir: str, *, k: int = 20) -> pd.DataFrame:
    """Stratified uniform sample: one mergeable priority reservoir PER LANG
    (GroupedSketch over ReservoirSample) — k docs from every lang regardless
    of lang skew, no corpus shuffle, deterministic across partitionings.
    Rows-only check (sample membership asserted in pytest)."""
    from functools import partial

    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update
    from epichypersketch_jl_ray.state.reservoir import ReservoirSample

    factory = partial(ReservoirSample, k=k, seed=SEED)
    ds = read_table(sf_dir, "documents", columns=["lang", "doc_id"])

    def update(g: GroupedSketch, batch: pa.Table) -> None:
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        grouped_update(g, langs, ids, lambda sk, v: sk.update(v))

    grouped = sketch_dataset(ds, lambda: GroupedSketch(factory), update, GroupedSketch)
    rows = [
        (lang, int(d)) for lang in grouped.keys() for d in np.sort(grouped.parts[lang].sample())
    ]
    return pd.DataFrame(rows, columns=["lang", "doc_id"])


def _theta_4096() -> "ThetaSketch":
    from epichypersketch_jl_ray.state.theta import ThetaSketch

    return ThetaSketch(k=4096)


def user_overlap_theta(sf_dir: str) -> pd.DataFrame:
    """Distinct-set ALGEBRA via theta sketches: |click users|, |purchase
    users|, their intersection and union — one scan building one theta
    sketch per event_type (GroupedSketch), set expressions evaluated on the
    merged states. HLL cannot answer the intersection; rse ~ 1/sqrt(k-1).

    ORACLED exact-below-capacity (the top_suppliers_spacesaving precedent):
    k=4096 exceeds the distinct-user count at every gate scale (150 at
    sf0.01, 1500 at sf0.1), so theta stays 1.0 and every estimate —
    including the intersection and union — is the EXACT distinct count;
    user_overlap_theta_sql() is the exact set-algebra twin and hash-matches.
    Past capacity the sketch degrades to the guaranteed rse ~ 1/sqrt(k-1)
    bound (asserted in pytest on a saturated synthetic stream)."""
    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update
    from epichypersketch_jl_ray.state.theta import ThetaSketch

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def update(g: GroupedSketch, batch: pa.Table) -> None:
        types = batch["event_type"].to_numpy(zero_copy_only=False)
        users = hash_int64(batch["user_id"].to_numpy(zero_copy_only=False), seed=SEED)
        grouped_update(g, types, users, lambda sk, v: sk.update_hashed(v))

    grouped = sketch_dataset(ds, lambda: GroupedSketch(_theta_4096), update, GroupedSketch)
    clicks = grouped.parts.get("click", _theta_4096())
    purchases = grouped.parts.get("purchase", _theta_4096())
    rows = [
        ("click_users", clicks.estimate()),
        ("purchase_users", purchases.estimate()),
        ("click_and_purchase", ThetaSketch.intersection_estimate(clicks, purchases)),
        ("click_or_purchase", ThetaSketch.union_estimate(clicks, purchases)),
    ]
    return pd.DataFrame(rows, columns=["set_expr", "estimate"])


def user_overlap_theta_sql() -> str:
    """Exact distinct-set-algebra twin of user_overlap_theta — identical
    values while the sketches are below capacity (see its docstring)."""
    return """
SELECT 'click_users' AS set_expr,
       CAST(COUNT(DISTINCT CASE WHEN event_type = 'click' THEN user_id END) AS DOUBLE) AS estimate
FROM events
UNION ALL
SELECT 'purchase_users',
       CAST(COUNT(DISTINCT CASE WHEN event_type = 'purchase' THEN user_id END) AS DOUBLE)
FROM events
UNION ALL
SELECT 'click_and_purchase',
       CAST((SELECT COUNT(*) FROM (
           SELECT user_id FROM events WHERE event_type = 'click'
           INTERSECT
           SELECT user_id FROM events WHERE event_type = 'purchase')) AS DOUBLE)
UNION ALL
SELECT 'click_or_purchase',
       CAST(COUNT(DISTINCT CASE WHEN event_type IN ('click', 'purchase') THEN user_id END) AS DOUBLE)
FROM events
"""


def top_suppliers_spacesaving(sf_dir: str, *, k: int = 10, capacity: int = 32768) -> pd.DataFrame:
    """WEIGHTED heavy hitters: top suppliers by discounted revenue via
    weighted SpaceSaving — one scan, NO groupby shuffle (the sketch state is
    the aggregation), vs. top_suppliers' groupby+sort. Keys are the raw
    supplier ids (collision-free), weights integer cents. Exact below
    capacity (capacity >= distinct suppliers at gate scale), so the same
    oracle as top_suppliers hash-matches; past capacity it degrades to the
    guaranteed est-err bound."""
    from epichypersketch_jl_ray.state.spacesaving import SpaceSaving

    ds = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def update(s: SpaceSaving, batch: pa.Table) -> None:
        from epichypersketch_jl_ray.pipelines.relational import _cents

        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = _cents(price * (1.0 - disc))  # THE oracle-critical rounding
        keys = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        s.update_hashed(keys, weights=cents)

    ss = sketch_dataset(ds, lambda: SpaceSaving(capacity=capacity), update, SpaceSaving)
    order = np.lexsort((ss.keys.astype(np.int64), -ss.counts))[:k]
    return pd.DataFrame(
        {
            "l_suppkey": ss.keys[order].astype(np.int64),
            "revenue_cents": ss.counts[order],
        }
    )


def top_suppliers_spacesaving_sql(k: int = 10) -> str:
    from epichypersketch_jl_ray.pipelines.relational import top_suppliers_sql

    return top_suppliers_sql(k)


def top_suppliers_countsketch(
    sf_dir: str, *, k: int = 10, capacity: int = 32768
) -> pd.DataFrame:
    """Weighted heavy hitters with UNBIASED estimates: SpaceSaving proposes
    the candidate keys (one scan, bounded state), CountSketch (the signed
    AMS sketch, state/countsketch.py) refines each candidate's revenue with
    a median-of-rows unbiased estimate — the classic candidate+refine
    pairing for skewed streams where CMS-style counters systematically
    overestimate. Both sketches build in ONE shared pass over lineitem
    (a 2-tuple partial under the same UDAF merge).

    ORACLED exact-below-load (the top_suppliers_spacesaving contract): the
    median-of-rows estimate for a key is exact unless a MAJORITY of the
    sketch's rows hash another live key into that key's bucket — with
    gate-scale distinct-supplier counts against the eps=0.005 width the
    majority-collision probability is negligible and the seeds are fixed,
    so the frame hash-matches the exact revenue SQL at sf0.001/0.01/0.1
    (verified); past that load the eps*||f||_2 bound applies
    (pytest-asserted on a saturated stream)."""
    from epichypersketch_jl_ray.state.countsketch import CountSketch
    from epichypersketch_jl_ray.state.spacesaving import SpaceSaving
    from epichypersketch_jl_ray.state.tuplestate import TupleState

    ds = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def factory() -> TupleState:
        return TupleState(
            (SpaceSaving(capacity=capacity), CountSketch(epsilon=0.005, delta=1e-3, seed=97))
        )

    def update(t: TupleState, batch: pa.Table) -> None:
        from epichypersketch_jl_ray.pipelines.relational import _cents

        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = _cents(price * (1.0 - disc))
        keys = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ss, cs = t.parts
        ss.update_hashed(keys, weights=cents)
        cs.add_keys(keys, weights=cents)

    # large batches: each partial carries CountSketch's dense rows x cols
    # int64 counters (~7 MB), so partial COUNT — not batch size — is the
    # object-store/merge cost; the sketch is linear, so batch size cannot
    # change the answer
    merged = sketch_dataset(ds, factory, update, TupleState, batch_size=65536)
    ss, cs = merged.parts
    est = cs.estimate_keys(ss.keys)
    order = np.lexsort((ss.keys.astype(np.int64), -est))[:k]
    return pd.DataFrame(
        {
            "l_suppkey": ss.keys[order].astype(np.int64),
            "revenue_cents_est": est[order].astype(np.int64),
        }
    )


def top_suppliers_countsketch_sql(k: int = 10) -> str:
    """Exact twin while below majority-collision load (see the pipeline's
    docstring); the alias keeps the estimator's column name."""
    from epichypersketch_jl_ray.pipelines.relational import top_suppliers_sql

    return (
        "SELECT l_suppkey, revenue_cents AS revenue_cents_est"
        f" FROM ({top_suppliers_sql(k)})"
    )


def top_ngrams_by_lang_spacesaving(
    sf_dir: str, *, min_count: int = 3, capacity: int = 32768
) -> pd.DataFrame:
    """GROUPED heavy hitters in one scan: one SpaceSaving per lang
    (state/grouped.GroupedSketch), per-block partial dicts merging key-wise
    — per-lang heavy trigrams WITHOUT shuffling the corpus (the exact
    groupby alternative, heavy_ngrams_by_lang via CMS, pays a second scan;
    the engine-groupby alternative pays a corpus shuffle). Exact when
    capacity >= per-lang distinct-trigram count (true at gate scale —
    oracle hash-matches); at web scale capacity bounds the per-lang state
    and the (est - err >= min_count) guarantee applies per key. Bounded
    key cardinality only (lang), per GroupedSketch's contract.
    """
    from functools import partial as _partial

    from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes
    from epichypersketch_jl_ray.state.grouped import GroupedSketch, grouped_update
    from epichypersketch_jl_ray.state.spacesaving import SpaceSaving

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])
    empty = pd.DataFrame({"lang": [], "ngram": [], "estimate": []}).astype(
        {"estimate": "int64"}
    )
    if ds.count() == 0:
        return empty
    factory = _partial(SpaceSaving, capacity=capacity)

    def update(g: GroupedSketch, batch: pa.Table) -> None:
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        flat, off = token_hashes(batch["text"])
        ng, ng_off = ngram_hashes(flat, off, 3)
        lang_per_ngram = np.repeat(langs, np.diff(ng_off))
        grouped_update(g, lang_per_ngram, ng, lambda sk, v: sk.update_hashed(v))

    grouped = sketch_dataset(ds, lambda: GroupedSketch(factory), update, GroupedSketch)
    per_lang = {
        lang: grouped.parts[lang].heavy_hitters(min_count=min_count)
        for lang in grouped.keys()
    }
    wanted = np.unique(
        np.concatenate(
            [np.array([k for k, _, _ in hh], dtype=np.uint64) for hh in per_lang.values()]
            or [np.empty(0, np.uint64)]
        )
    )
    if len(wanted) == 0:
        return empty

    # one string-resolve pass over the union of surviving hashes (hash ->
    # trigram string is lang-independent), survivor-scale rows to the driver
    name_of = _resolve_ngram_strings(ds, wanted)
    rows = [
        (lang, name_of[k], est)
        for lang, hh in per_lang.items()
        for k, est, _err in hh
    ]
    out = pd.DataFrame(rows, columns=["lang", "ngram", "estimate"]).astype({"estimate": "int64"})
    return out.sort_values(["lang", "ngram"]).reset_index(drop=True)


def top_ngrams_by_lang_spacesaving_sql(min_count: int = 3) -> str:
    from epichypersketch_jl_ray.pipelines.ngrams import heavy_ngrams_by_lang_sql

    return heavy_ngrams_by_lang_sql(3, min_count)
