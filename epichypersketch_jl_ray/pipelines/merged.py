"""Registry-consolidation wrappers (VERDICT r3 item 1): the driver's
CORRECTNESS pass windows the first 50 registry entries, so near-duplicate
query variants are merged — each wrapper returns the UNION of its parts with
a discriminator column (or a joined frame when the parts share a key), and
every merged ORACLED pair keeps a matching UNION/JOIN oracle so no
correctness coverage is lost. The underlying single-purpose pipelines stay
public (pytest exercises them directly); only the registry shrinks.

Sentinel convention: padded integer columns use -1, never NULL — the
driver's value-hash is representation-sensitive and NULL/NaN dtype
promotion would break the compare.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.sinks import store_dir
from epichypersketch_jl_ray.sources.tables import table_dataset
from epichypersketch_jl_ray.stages.ann import cosine_sql


def _tag(ds: ray.data.Dataset, col: str, value: str) -> ray.data.Dataset:
    """Prepend a constant string discriminator column to a Dataset."""

    def add(t: pa.Table) -> pa.Table:
        return t.add_column(0, col, pa.array([value] * len(t), pa.string()))

    return ds.map_batches(add, batch_format="pyarrow")


# --- sketch-family merges ---------------------------------------------------

# Largest n_chars whose ddsketch bucket index is pinned against DuckDB
# (tests/test_queries_oracle.py pins every integer in [1, 2^17]).
DDSKETCH_N_CHARS_MAX = 1 << 17


def doc_length_quantiles_approx(sf_dir: str) -> pd.DataFrame:
    """t-digest + DDSketch n_chars quantiles in one frame (method column) —
    the two interpolating/relative-error estimators complementing the
    oracled KLL queries.

    ORACLED, two different ways:
    - ddsketch rows are recomputed END-TO-END in SQL from documents.n_chars:
      bucket index ceil(ln(x)/ln(gamma)) (scalar-libm ln(gamma) in
      state/ddsketch.py is bit-identical to DuckDB ln — the state/hll.py
      lesson; the ceil index and the gamma^i midpoint are pinned
      exhaustively vs DuckDB over the integer domain in tests), counts per
      bucket, then the same rank walk as DDSketch.quantile.
    - tdigest rows use the stored-centroid pattern: the sealed centroid
      table goes to its store_dir and the SQL replays quantile()'s
      exact interpolation over it (unit weights make the cumulative centers
      exact multiples of 0.5, so every arithmetic step is bit-reproducible);
      the CLUSTERING stays pinned by the rank-error/merge-canonicality
      tests in pytest.

    The ddsketch bucket index is pinned against DuckDB only over n_chars in
    [1, DDSKETCH_N_CHARS_MAX] (2^17), so a document outside that domain
    raises ValueError instead of returning an unoracled row. The bounds
    checked are the t-digest's exact min and max, stored with its
    centroids as the idx -1/-2 rows."""
    import os

    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.pipelines import sketches

    td = sketches.doc_length_quantiles_tdigest(sf_dir, store_centroids=True).assign(
        method="tdigest"
    )
    store = pq.read_table(os.path.join(store_dir("tdigest_centroids"), "part-0.parquet"))
    extremes = dict(zip(store["idx"].to_pylist(), store["mean"].to_pylist()))
    lo, hi = extremes[-1], extremes[-2]
    if lo < 1 or hi > DDSKETCH_N_CHARS_MAX:
        raise ValueError(
            f"doc_length_quantiles_approx: n_chars spans [{lo:.0f}, {hi:.0f}], outside"
            f" the [1, {DDSKETCH_N_CHARS_MAX}] domain where the ddsketch bucket index is"
            f" pinned against doc_length_quantiles_approx_sql"
        )
    dd = sketches.doc_length_quantiles_dd(sf_dir).assign(method="ddsketch")
    return pd.concat([td, dd], ignore_index=True)[["method", "q", "n_chars_q"]]


def doc_length_quantiles_approx_sql(*, alpha: float = 0.01) -> str:
    """SQL twin of doc_length_quantiles_approx: full DDSketch recompute from
    the documents view + t-digest quantile replay over the stored centroid
    table (run the Ray query first)."""
    import os

    from epichypersketch_jl_ray.pipelines import sketches

    gamma = (1.0 + alpha) / (1.0 - alpha)
    g = repr(gamma)
    td_glob = os.path.join(store_dir("tdigest_centroids"), "*.parquet")
    selects = []
    for q in sketches.QS:
        ql = repr(float(q))
        selects.append(f"""
SELECT 'tdigest' AS method, {ql} AS q,
       CASE WHEN (SELECT ncent FROM tagg) = 1 THEN (SELECT first_m FROM tagg)
            WHEN b.hi_c = b.lo_c THEN b.lo_m
            ELSE b.lo_m + ((b.target - b.lo_c) / (b.hi_c - b.lo_c)) * (b.hi_m - b.lo_m)
       END AS n_chars_q
FROM (
  SELECT tg.target AS target,
    CASE WHEN tg.target <= tg.first_c THEN tg.mn
         WHEN tg.target >= tg.last_c THEN tg.last_m
         ELSE (SELECT mean FROM tcent WHERE cum <= tg.target ORDER BY cum DESC LIMIT 1)
    END AS lo_m,
    CASE WHEN tg.target <= tg.first_c THEN 0.0
         WHEN tg.target >= tg.last_c THEN tg.last_c
         ELSE (SELECT cum FROM tcent WHERE cum <= tg.target ORDER BY cum DESC LIMIT 1)
    END AS lo_c,
    CASE WHEN tg.target <= tg.first_c THEN tg.first_m
         WHEN tg.target >= tg.last_c THEN tg.mx
         ELSE (SELECT mean FROM tcent WHERE cum > tg.target ORDER BY cum LIMIT 1)
    END AS hi_m,
    CASE WHEN tg.target <= tg.first_c THEN tg.first_c
         WHEN tg.target >= tg.last_c THEN tg.n
         ELSE (SELECT cum FROM tcent WHERE cum > tg.target ORDER BY cum LIMIT 1)
    END AS hi_c
  FROM (SELECT tagg.*, {ql} * n AS target FROM tagg) tg
) b""")
        selects.append(f"""
SELECT 'ddsketch' AS method, {ql} AS q,
       CASE WHEN {ql} * ((SELECT n FROM dagg) - 1) < (SELECT z FROM dagg) THEN 0.0
            ELSE COALESCE(
              (SELECT power({g}, CAST(dcum.i AS DOUBLE)) * 2.0 / ({g} + 1.0)
               FROM dcum
               WHERE (SELECT z FROM dagg) + dcum.cs > {ql} * ((SELECT n FROM dagg) - 1)
               ORDER BY dcum.i LIMIT 1),
              (SELECT power({g}, CAST((SELECT imax FROM dagg) AS DOUBLE)) * 2.0 / ({g} + 1.0)))
       END AS n_chars_q""")
    body = "\nUNION ALL\n".join(selects)
    return f"""
WITH tstore AS (SELECT * FROM read_parquet('{td_glob}')),
tcent AS (SELECT idx, mean, weight,
                 SUM(weight) OVER (ORDER BY idx) - weight / 2 AS cum
          FROM tstore WHERE idx >= 0),
tagg AS (SELECT (SELECT SUM(weight) FROM tcent) AS n,
                (SELECT COUNT(*) FROM tcent) AS ncent,
                (SELECT mean FROM tstore WHERE idx = -1) AS mn,
                (SELECT mean FROM tstore WHERE idx = -2) AS mx,
                (SELECT mean FROM tcent ORDER BY idx LIMIT 1) AS first_m,
                (SELECT cum FROM tcent ORDER BY idx LIMIT 1) AS first_c,
                (SELECT mean FROM tcent ORDER BY idx DESC LIMIT 1) AS last_m,
                (SELECT cum FROM tcent ORDER BY idx DESC LIMIT 1) AS last_c),
db AS (SELECT CAST(ceiling(ln(CAST(n_chars AS DOUBLE)) / ln({g})) AS BIGINT) AS i,
              COUNT(*) AS c
       FROM documents WHERE n_chars > 0 GROUP BY 1),
dcum AS (SELECT i, SUM(c) OVER (ORDER BY i) AS cs FROM db),
dagg AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                (SELECT COUNT(*) FROM documents WHERE n_chars = 0) AS z,
                (SELECT MAX(i) FROM db) AS imax)
{body}
"""


def distinct_users_exact(sf_dir: str) -> pd.DataFrame:
    """Exact distinct users per event_type PLUS the overall count as the
    event_type='*' row — one oracled query covering both shuffle-paying
    baselines."""
    from epichypersketch_jl_ray.pipelines import sketches

    by = sketches.distinct_users_by_type_exact(sf_dir).to_pandas()
    overall = sketches.distinct_users_exact(sf_dir)
    row = pd.DataFrame(
        {"event_type": ["*"], "distinct_users": overall["distinct_users"].astype("int64")}
    )
    return pd.concat([by, row], ignore_index=True)


def distinct_users_exact_sql() -> str:
    from epichypersketch_jl_ray.pipelines import sketches

    return (
        f"SELECT event_type, distinct_users FROM ({sketches.distinct_users_by_type_exact_sql()})"
        " UNION ALL SELECT '*' AS event_type,"
        " CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users FROM events"
    )


def distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Grouped + overall HLL distinct estimates (overall as event_type='*'),
    WITH the register arrays dumped — FULLY oracled at the register level.

    Rows: (event_type, bucket, value) where bucket >= 0 rows carry the
    nonzero HLL registers (value = rho, the 1-based leftmost-1 position in
    the low 64-p hash bits, max-merged per bucket) and the bucket = -1 row
    carries the estimate. distinct_users_hll_sql() recomputes the ENTIRE
    sketch in DuckDB: hash_int64 bit-for-bit (HUGEINT modular splitmix64),
    bucket = h >> 50, rho via bin()-length, max per bucket, then linear
    counting m*ln(m/V). The estimate row hash-matches because the
    linear-counting branch uses scalar libm log (state/hll.py), bit-identical
    to DuckDB ln over the full V domain (pinned in tests). Oracle validity:
    the linear-counting regime (E <= 2.5m, V > 0) — true by orders of
    magnitude at every gate scale (<= 1.5k users vs m = 16384). Beyond it
    the SQL still applies m*ln(m/V) while the sketch does not (and the
    raw-estimate branch's float sum is order-sensitive), so a sketch outside
    the regime raises ValueError instead of returning an unoracleable row."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines import sketches

    grouped = sketches._distinct_users_by_type_sketches(sf_dir)
    overall = sketches._distinct_users_hll_sketch(sf_dir)
    frames = []
    for etype, sk in [*((t, grouped.parts[t]) for t in grouped.keys()), ("*", overall)]:
        v, e = int(np.count_nonzero(sk.registers == 0)), sk.raw_estimate()
        if v == 0 or e > 2.5 * sk.m:
            raise ValueError(
                f"distinct_users_hll: event_type {etype!r} is outside the linear-counting"
                f" regime that distinct_users_hll_sql assumes (needs V > 0 and E <= 2.5m;"
                f" got V={v} empty registers, E={e:.0f}, 2.5m={2.5 * sk.m:.0f})"
            )
        nz = np.nonzero(sk.registers)[0]
        frames.append(
            pd.DataFrame(
                {
                    "event_type": etype,
                    "bucket": nz.astype("int64"),
                    "value": sk.registers[nz].astype(np.float64),
                }
            )
        )
        frames.append(
            pd.DataFrame(
                {"event_type": [etype], "bucket": [-1], "value": [float(sk.estimate())]}
            )
        )
    return pd.concat(frames, ignore_index=True)


def distinct_users_hll_sql(p: int = 14) -> str:
    """Pure-SQL recomputation of the p=14 user_id HLL (see distinct_users_hll)."""
    from epichypersketch_jl_ray.pipelines.sketches import SEED

    m = 1 << p
    low = 1 << (64 - p)  # 2^50: low-bit window holding rho
    width = 64 - p
    chain = _sql_splitmix64_chain(
        SEED, table="events", key="user_id", carry="event_type", out="h"
    )
    return f"""
WITH {chain},
ht AS (SELECT event_type, h FROM t6
       UNION ALL SELECT '*' AS event_type, h FROM t6),
regs AS (SELECT event_type,
                CAST(h // {low} AS BIGINT) AS bucket,
                CAST(h % {low} AS BIGINT) AS w
         FROM ht),
rho AS (SELECT event_type, bucket,
               MAX(CASE WHEN w = 0 THEN {width + 1}
                        ELSE {width + 1} - length(bin(w)) END) AS rho
        FROM regs GROUP BY event_type, bucket),
est AS (SELECT event_type, CAST(-1 AS BIGINT) AS bucket,
               {m}.0 * ln({m}.0 / ({m} - COUNT(*))) AS value
        FROM rho GROUP BY event_type)
SELECT event_type, bucket, CAST(rho AS DOUBLE) AS value FROM rho
UNION ALL
SELECT event_type, bucket, value FROM est
"""


def doc_sample(sf_dir: str) -> pd.DataFrame:
    """Stratified (per-lang) + overall uniform reservoir samples + per-domain
    cap (RefinedWeb-style, rows tagged 'src:<source>') in one frame (overall
    as lang='*'). FULLY oracled: the mergeable priority reservoir is
    deterministic bottom-k by splitmix64(doc_id ^ mix(seed)), which
    doc_sample_sql() reproduces bit-for-bit in DuckDB (HUGEINT modular
    arithmetic), and the domain cap is exact k-lowest-doc_id per source
    (window-function SQL), so every sampled id hash-matches exact SQL."""
    from epichypersketch_jl_ray.pipelines import curate, sketches

    by = sketches.doc_sample_by_lang(sf_dir)
    overall = sketches.doc_sample(sf_dir).assign(lang="*")[["lang", "doc_id"]]
    cap = curate.domain_cap_sample(sf_dir).to_pandas()
    cap = pd.DataFrame({"lang": "src:" + cap["source"], "doc_id": cap["doc_id"]})
    return pd.concat([by, overall, cap], ignore_index=True)


def _sql_splitmix64_chain(
    seed: int, *, table: str, key: str, carry: str, out: str = "prio"
) -> str:
    """CTE chain t0..t6 computing ``out`` = splitmix64(key ^ splitmix64(seed))
    (== functions/hashing.hash_int64) for every ``table`` row, exactly
    (validated bit-for-bit vs numpy), carrying columns ``carry`` through.

    64-bit wrap-around arithmetic in SQL: values live in HUGEINT (128-bit)
    reduced mod 2^64; xor converts through the signed-BIGINT bit pattern
    (two's complement preserves bits); a*b mod 2^64 decomposes as
    (lo32(a)*b + (hi32(a)*b mod 2^32)<<32) mod 2^64 so no intermediate
    exceeds 2^97. Layered CTEs, not lateral aliases — DuckDB inlines lateral
    aliases textually and the nested CASEs explode exponentially."""
    import numpy as np

    from epichypersketch_jl_ray.functions.hashing import splitmix64

    s_mix = int(splitmix64(np.uint64(seed)))
    m = "CAST('18446744073709551616' AS HUGEINT)"
    half = "CAST('9223372036854775808' AS HUGEINT)"
    c = f"{carry}, " if carry else ""

    def u2s(e: str) -> str:
        return f"CAST(CASE WHEN {e} >= {half} THEN {e} - {m} ELSE {e} END AS BIGINT)"

    def xoru(a: str, b: str) -> str:
        return f"(CAST(xor({u2s(a)}, {u2s(b)}) AS HUGEINT) + {m}) % {m}"

    def mulmod(a: str, cst: int) -> str:
        cc = f"CAST('{cst}' AS HUGEINT)"
        return (
            f"((({a}) % 4294967296) * {cc} +"
            f" ((({a}) // 4294967296) * {cc} % 4294967296) * 4294967296) % {m}"
        )

    return f"""
t0 AS (SELECT {c}{xoru(f'CAST({key} AS HUGEINT)', f"CAST('{s_mix}' AS HUGEINT)")} AS x
       FROM {table}),
t1 AS (SELECT {c}(x + CAST('11400714819323198485' AS HUGEINT)) % {m} AS z0 FROM t0),
t2 AS (SELECT {c}{xoru('z0', 'z0 // 1073741824')} AS y0 FROM t1),
t3 AS (SELECT {c}{mulmod('y0', 0xBF58476D1CE4E5B9)} AS z1 FROM t2),
t4 AS (SELECT {c}{xoru('z1', 'z1 // 134217728')} AS y1 FROM t3),
t5 AS (SELECT {c}{mulmod('y1', 0x94D049BB133111EB)} AS z2 FROM t4),
t6 AS (SELECT {c}{xoru('z2', 'z2 // 2147483648')} AS {out} FROM t5)"""


def _sql_splitmix64_prio(seed: int) -> str:
    """doc_sample's chain: prio = hash_int64(doc_id, seed) over documents."""
    return _sql_splitmix64_chain(seed, table="documents", key="doc_id", carry="lang, doc_id")


def doc_sample_sql(k_overall: int = 100, k_lang: int = 20) -> str:
    from epichypersketch_jl_ray.pipelines import curate
    from epichypersketch_jl_ray.pipelines.sketches import SEED

    return f"""
WITH {_sql_splitmix64_prio(SEED)},
by_lang AS (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY prio, doc_id) AS rn
  FROM t6),
overall AS (
  SELECT '*' AS lang, doc_id, row_number() OVER (ORDER BY prio, doc_id) AS rn
  FROM t6)
SELECT lang, CAST(doc_id AS BIGINT) AS doc_id FROM by_lang WHERE rn <= {k_lang}
UNION ALL
SELECT lang, CAST(doc_id AS BIGINT) AS doc_id FROM overall WHERE rn <= {k_overall}
UNION ALL
SELECT 'src:' || source AS lang, CAST(doc_id AS BIGINT) AS doc_id
FROM ({curate.domain_cap_sample_sql()})
"""


# --- heavy hitters ----------------------------------------------------------


def heavy_ngrams(sf_dir: str) -> ray.data.Dataset:
    """CMS heavy-hitter trigrams, grouped by lang PLUS overall (lang='*') —
    the flagship query and its grouped variant as one oracled union."""
    from epichypersketch_jl_ray.pipelines import ngrams

    by = ngrams.heavy_ngrams_by_lang(sf_dir)
    overall = _tag(ngrams.heavy_ngrams(sf_dir), "lang", "*")
    return by.union(overall)


def heavy_ngrams_sql() -> str:
    from epichypersketch_jl_ray.pipelines import ngrams

    return (
        f"SELECT lang, ngram, estimate FROM ({ngrams.heavy_ngrams_by_lang_sql()})"
        f" UNION ALL SELECT '*' AS lang, ngram, estimate FROM ({ngrams.heavy_ngrams_sql()})"
    )


def top_ngrams_spacesaving(sf_dir: str) -> pd.DataFrame:
    """SpaceSaving heavy-hitter trigrams, per-lang PLUS overall (lang='*'),
    one oracled union — the one-pass counterpart of heavy_ngrams."""
    from epichypersketch_jl_ray.pipelines import sketches

    by = sketches.top_ngrams_by_lang_spacesaving(sf_dir)
    overall = sketches.top_ngrams_spacesaving(sf_dir).assign(lang="*")
    return pd.concat([by, overall[["lang", "ngram", "estimate"]]], ignore_index=True)


def top_ngrams_spacesaving_sql() -> str:
    from epichypersketch_jl_ray.pipelines import sketches

    return (
        f"SELECT lang, ngram, estimate FROM ({sketches.top_ngrams_by_lang_spacesaving_sql()})"
        f" UNION ALL SELECT '*' AS lang, ngram, estimate FROM ({sketches.top_ngrams_spacesaving_sql()})"
    )


# --- multimodal / ANN -------------------------------------------------------


def multimodal_features(sf_dir: str) -> pd.DataFrame:
    """Image + video + audio feature extraction in one frame: (modality, id,
    part_idx, embedding) — part_idx is the frame/window index (0 for whole
    images). All three decode pipelines (plain task maps) run for real over
    mixed fixtures: images in BMP and PNG; video as raw-gray8 frames and
    Y4M; audio as PCM16 WAV. Rows-only; decode correctness is bit-exact-tested
    in pytest."""
    from epichypersketch_jl_ray.pipelines import multimodal

    img = multimodal.image_features(sf_dir).assign(modality="image", part_idx=0)
    vid = multimodal.video_frame_features(sf_dir).rename(columns={"frame_idx": "part_idx"})
    vid = vid.assign(modality="video")
    aud = multimodal.audio_window_features(sf_dir).rename(columns={"window_idx": "part_idx"})
    aud = aud.assign(modality="audio")
    cols = ["modality", "id", "part_idx", "embedding"]
    out = pd.concat([img[cols], vid[cols], aud[cols]], ignore_index=True)
    out["part_idx"] = out["part_idx"].astype("int64")
    return out


def ann_approx_topk(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed + IVF + IVF-PQ approximate top-k in one frame (method
    column) — the sub-quadratic scale paths beside the oracled brute-force
    baseline (IVF-PQ additionally models the 16x-compressed code store with
    ADC scan + exact re-rank).

    ORACLED via the stored-candidate pattern (see dedup_simhash): each
    method writes its (query_id, neighbor_id) candidate pairs to a parquet
    store (``store_dir("ann_cands")``) before the distributed top-k
    reduce (sim stays OUT of the store), and ann_approx_topk_sql()
    re-ranks the SAME candidates with the quantized exact cosine
    recomputed from the embeddings view — so the
    distributed final reduce (per-query merge, sim ordering, id tie-break,
    rank assignment) is value-hash-verified against an independent exact
    scoring. RECALL (which candidates survive the probe structure) is the
    approximate part and stays asserted vs brute force in pytest."""
    import os

    from epichypersketch_jl_ray.pipelines import ann

    root = store_dir("ann_cands")
    lsh = ann.ann_lsh_topk(sf_dir, store=os.path.join(root, "lsh")).assign(method="lsh")
    ivf = ann.ann_ivf_topk(sf_dir, store=os.path.join(root, "ivf")).assign(method="ivf")
    pq_ = ann.ann_ivfpq_topk(sf_dir, store=os.path.join(root, "ivfpq")).assign(method="ivfpq")
    cols = ["method", "query_id", "neighbor_id", "rank"]
    return pd.concat([lsh[cols], ivf[cols], pq_[cols]], ignore_index=True)


def ann_approx_topk_sql(k: int | None = None) -> str:
    """Exact re-rank oracle over the STORED candidate streams the Ray
    pipelines write (run the pipeline first): per (method, query), top-k by
    the quantized exact cosine (``stages.ann.cosine_sql``) with the same
    ``sim DESC, neighbor_id ASC`` order as stages/ann.py distributed_topk."""
    import os

    from epichypersketch_jl_ray.pipelines import ann

    k = ann.TOP_K if k is None else k
    root = store_dir("ann_cands")
    cand_union = " UNION ALL ".join(
        f"SELECT '{m}' AS method, query_id, neighbor_id "
        f"FROM read_parquet('{os.path.join(root, m, '*.parquet')}')"
        for m in ("lsh", "ivf", "ivfpq")
    )
    return f"""
WITH cand AS (SELECT DISTINCT method, query_id, neighbor_id FROM ({cand_union})),
s AS (SELECT c.method, c.query_id, c.neighbor_id,
             {cosine_sql("q.embedding", "e.embedding")} AS sim
      FROM cand c
      JOIN embeddings q ON q.vec_id = c.query_id
      JOIN embeddings e ON e.vec_id = c.neighbor_id),
r AS (SELECT method, query_id, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY method, query_id
                                ORDER BY sim DESC, neighbor_id) AS rn
      FROM s)
SELECT method, query_id, neighbor_id, CAST(rn AS BIGINT) AS rank
FROM r WHERE rn <= {k}
"""


def embedding_neardup_pairs(sf_dir: str) -> ray.data.Dataset:
    """Both sub-quadratic embedding near-dup scale paths in one frame
    (method column): 'lsh' = hyperplane-bucketed pairs, 'semantic' =
    SemDeDup within-k-means-cluster pairs (distributed fixed-point k-means,
    stages/kmeans.py). Registry key stays dedup_embedding_lsh.

    ORACLED via the stored-assignment pattern (see dedup_simhash): both
    variants write their assignment tables — (bucket, vec_id) hyperplane
    buckets incl. probe replicas, (cluster, vec_id) k-means clusters — to
    parquet stores (``sources.sinks.store_dir``), and
    embedding_neardup_pairs_sql() independently recomputes every
    within-group candidate pair plus its exact cosine from the raw
    embeddings table, so the distributed candidate structure,
    threshold filter, cross-probe pair dedupe and cosine values are all
    value-hash-verified. The signature/centroid KERNELS stay pinned by the
    recall/precision/determinism tests vs the exact block-pair pipeline.
    Contract note: zero-norm embedding rows are outside the oracle contract
    (the pipelines treat a zero vector's cosine as 0.0 where DuckDB's
    list_cosine_similarity yields -1.0); the table generators never emit
    one, and ingest paths normalize or drop empties upstream."""
    from epichypersketch_jl_ray.pipelines import dedup

    lsh = _tag(dedup.dedup_embedding_lsh(sf_dir, store_buckets=True), "method", "lsh")
    sem = _tag(dedup.semantic_pairs(sf_dir, store_clusters=True), "method", "semantic")
    return lsh.union(sem)


def embedding_neardup_pairs_sql(threshold: float = 0.45) -> str:
    """Exact-recompute oracle over the STORED assignment tables the Ray
    pipeline writes (run the pipeline first): all within-bucket /
    within-cluster unordered pairs, exact cosine from the embeddings view,
    quantized as the pipeline quantizes it (``stages.ann.cosine_sql``) and
    compared with the same threshold."""
    import os

    lsh_glob = os.path.join(store_dir("emb_lsh_buckets"), "*.parquet")
    sem_glob = os.path.join(store_dir("sem_clusters"), "*.parquet")
    return f"""
WITH lshb AS (SELECT bucket, vec_id FROM read_parquet('{lsh_glob}')),
lcand AS (SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM lshb a JOIN lshb b ON a.bucket = b.bucket AND a.vec_id < b.vec_id),
clus AS (SELECT cluster, vec_id FROM read_parquet('{sem_glob}')),
scand AS (SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
          FROM clus a JOIN clus b ON a.cluster = b.cluster AND a.vec_id < b.vec_id),
allc AS (SELECT 'lsh' AS method, vec_a, vec_b FROM lcand
         UNION ALL SELECT 'semantic' AS method, vec_a, vec_b FROM scand),
pairs AS (SELECT c.method, c.vec_a, c.vec_b,
                 {cosine_sql("ea.embedding", "eb.embedding")} AS cosine
          FROM allc c
          JOIN embeddings ea ON ea.vec_id = c.vec_a
          JOIN embeddings eb ON eb.vec_id = c.vec_b)
SELECT method, vec_a, vec_b, cosine FROM pairs WHERE cosine >= {threshold}
"""


# fixed-point scales: pca energy quantum 2^-16, kmeans similarity quantum
# 2^-16 (the original qsim scale). Both sums are int64-exact and convert to
# float64 exactly below 2^53. The quantum also sets the driver-vs-oracle
# floor-cliff probability (BLAS matmul vs DuckDB sequential dot drift
# ~1e-14 per projection): P(flip) ~ drift x scale per value, so 2^16 keeps
# a full sf0.1 sweep's expected flips ~1e-5 while v1/v2 still carry ~5
# exact digits of corpus energy.
_PCA_SCALE = float(1 << 16)
_QSIM_SCALE = 65536.0


def _write_vector_store(store: str, idx_name: str, vecs: "np.ndarray") -> None:
    """Overwrite ``store`` with a tiny (idx, vec list<double>) parquet table."""
    import os
    import shutil

    import numpy as np
    import pyarrow.parquet as pq

    vecs = np.ascontiguousarray(vecs, dtype=np.float64)
    tbl = pa.table(
        {
            idx_name: pa.array(np.arange(len(vecs), dtype=np.int64)),
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.ravel(), pa.float64()), vecs.shape[1]
            ),
        }
    )
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store, exist_ok=True)
    pq.write_table(tbl, f"{store}/part-0.parquet")


def embedding_analysis(sf_dir: str) -> pd.DataFrame:
    """Frequent-Directions principal components + full-corpus fixed-point
    k-means cluster profile in one frame (method column): 'pca' rows are
    (id=component, v1=corpus singular value sqrt(sum (x.v)^2), v2=exact
    energy share along the FD direction); 'kmeans' rows are (id=cluster,
    v1=size, v2=quantized-similarity sum).

    ORACLED via the stored-state pattern (see dedup_simhash): the FD top
    directions go to ``store_dir("pca_components")`` and the fitted
    centroids to ``store_dir("kmeans_centroids")``, and
    embedding_analysis_sql() replays BOTH corpus
    measurement stages from the raw embeddings view — per-row projections
    floor((x.v)^2 * 2^16) summed as integers (so v1/v2 derive from exact
    int64 sums by deterministic IEEE sqrt/divide), and the argmax-cosine
    assignment + floor(sim * 65536) profile with the same lowest-index
    tie-break as stages/kmeans.py. The FD / k-means TRAINING kernels are
    not SQL-expressible; they stay pinned by the spectral-bound and
    determinism/batch-invariance tests. Every derived number the query
    emits is an exact corpus measurement given the stored state. Zero-norm
    embedding rows are outside the oracle contract (see
    embedding_neardup_pairs)."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines import ann
    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.ann import _embedding_matrix
    from epichypersketch_jl_ray.stages.exchange import group_aggregate
    from epichypersketch_jl_ray.stages.kmeans import assign_clusters, kmeans_fit

    _s, vt, _total = ann.embedding_fd_directions(sf_dir)
    _write_vector_store(store_dir("pca_components"), "component", vt)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    vt_ref = ray.put(np.ascontiguousarray(vt, dtype=np.float64))

    def energy(batch: pa.Table) -> pa.Table:
        v = ray.get(vt_ref)
        x = _embedding_matrix(batch, "embedding")
        d = x @ v.T  # (n, k) projections
        # (d*d)*SCALE then floor: the exact expression tree the SQL twin
        # uses, so the only driver-vs-oracle seam is last-ulp dot drift
        # against the _PCA_SCALE quantum
        q = np.floor(d * d * _PCA_SCALE).astype(np.int64).sum(axis=0)
        etot = int(np.floor((x * x).sum(axis=1) * _PCA_SCALE).astype(np.int64).sum())
        return pa.table(
            {
                "component": pa.array(
                    np.concatenate([np.arange(len(v), dtype=np.int64), [-1]])
                ),
                "qe": pa.array(np.concatenate([q, [etot]]).astype(np.int64)),
            }
        )

    esums = (
        group_aggregate(
            ds.map_batches(energy, batch_format="pyarrow"),
            ["component"],
            {"qe": ("qe", "sum")},
            None,
        )
        .to_pandas()
        .set_index("component")["qe"]
    )
    e_total = float(esums.loc[-1])
    comp = esums.drop(index=-1).sort_index()
    pca = pd.DataFrame(
        {
            "method": "pca",
            "id": comp.index.to_numpy(dtype=np.int64),
            "v1": np.sqrt(comp.to_numpy(dtype=np.float64) / _PCA_SCALE),
            "v2": comp.to_numpy(dtype=np.float64) / e_total,
        }
    )

    model = kmeans_fit(ds, k=8)
    _write_vector_store(store_dir("kmeans_centroids"), "cluster", model.centroids)
    k_model = len(model.centroids)
    tagged = assign_clusters(ds, model, keep_embedding=False)

    def profile(batch: pa.Table, _k=k_model) -> pa.Table:
        c = np.asarray(batch["cluster"], dtype=np.int64)
        q = np.floor(
            np.asarray(batch["cent_sim"], dtype=np.float64) * _QSIM_SCALE
        ).astype(np.int64)
        # int64 scatter-add (not bincount-with-weights, which accumulates in
        # float64): exact at any cluster mass, order-insensitive; emit every
        # model cluster so globally-empty clusters still get their zero row
        # (the stored centroid table is the oracle's spine)
        qsim = np.zeros(_k, dtype=np.int64)
        np.add.at(qsim, c, q)
        return pa.table(
            {
                "cluster": pa.array(np.arange(_k)),
                "n": pa.array(np.bincount(c, minlength=_k).astype(np.int64)),
                "qsim": pa.array(qsim),
            }
        )

    prof = group_aggregate(
        tagged.map_batches(profile, batch_format="pyarrow"),
        ["cluster"],
        {"size": ("n", "sum"), "qsim": ("qsim", "sum")},
        None,
    ).to_pandas()
    prof = prof.sort_values("cluster", ignore_index=True)
    km = pd.DataFrame(
        {
            "method": "kmeans",
            "id": prof["cluster"].astype("int64"),
            "v1": prof["size"].astype("float64"),
            "v2": prof["qsim"].astype("float64"),
        }
    )
    return pd.concat([pca, km], ignore_index=True)


def embedding_analysis_sql() -> str:
    """Exact-recompute oracle over the STORED FD directions and k-means
    centroids the Ray pipeline writes (run the pipeline first): integer-
    quantized projection energies per component, argmax-cosine assignment
    (sim DESC, cluster ASC tie-break = numpy first-extremum) and the
    quantized-similarity profile per cluster, all from the raw embeddings
    view."""
    import os

    pca_glob = os.path.join(store_dir("pca_components"), "*.parquet")
    km_glob = os.path.join(store_dir("kmeans_centroids"), "*.parquet")
    scale = repr(_PCA_SCALE)
    qs = repr(_QSIM_SCALE)
    return f"""
WITH comp AS (SELECT component, vec FROM read_parquet('{pca_glob}')),
proj AS (SELECT c.component,
                list_dot_product(CAST(e.embedding AS DOUBLE[]),
                                 CAST(c.vec AS DOUBLE[])) AS d
         FROM embeddings e CROSS JOIN comp c),
psum AS (SELECT component,
                CAST(SUM(CAST(floor(d * d * {scale}) AS BIGINT)) AS DOUBLE) AS s
         FROM proj GROUP BY 1),
etot AS (SELECT CAST(SUM(CAST(floor(
                  list_dot_product(CAST(embedding AS DOUBLE[]),
                                   CAST(embedding AS DOUBLE[])) * {scale})
                AS BIGINT)) AS DOUBLE) AS e
         FROM embeddings),
cent AS (SELECT cluster, vec FROM read_parquet('{km_glob}')),
sims AS (SELECT e.vec_id, c.cluster,
                list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                       CAST(c.vec AS DOUBLE[])) AS sim
         FROM embeddings e CROSS JOIN cent c),
best AS (SELECT vec_id, cluster, sim,
                ROW_NUMBER() OVER (PARTITION BY vec_id
                                   ORDER BY sim DESC, cluster) AS rn
         FROM sims),
kprof AS (SELECT cluster,
                 CAST(COUNT(*) AS DOUBLE) AS v1,
                 CAST(SUM(CAST(floor(sim * {qs}) AS BIGINT)) AS DOUBLE) AS v2
          FROM best WHERE rn = 1 GROUP BY 1)
SELECT 'pca' AS method, component AS id,
       sqrt(s / {scale}) AS v1,
       s / (SELECT e FROM etot) AS v2
FROM psum
UNION ALL
SELECT 'kmeans' AS method, c.cluster AS id,
       COALESCE(k.v1, 0.0) AS v1, COALESCE(k.v2, 0.0) AS v2
FROM cent c LEFT JOIN kprof k USING (cluster)
"""


def dedup_exact_and_spans(sf_dir: str) -> ray.data.Dataset:
    """Document-level exact dedup AND substring-level duplicated spans in
    one oracled union (method column): 'doc' rows are (keep_id, dup_count)
    as (doc_id, a; b=-1), 'span' rows are (doc_id, span_start, span_end) as
    (doc_id, a, b) — Lee et al. 2022 exact substring dedup, rolling-hash +
    two hash exchanges instead of a suffix array. Registry key stays
    dedup_exact. -1 sentinels, never NULL (module docstring)."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines import dedup

    def pad_doc(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["doc_id", "a"])
        t = t.add_column(0, "method", pa.array(["doc"] * len(t), pa.string()))
        return t.append_column("b", pa.array(np.full(len(t), -1, np.int64), pa.int64()))

    def pad_incr(t: pa.Table) -> pa.Table:
        t = t.add_column(0, "method", pa.array(["incr"] * len(t), pa.string()))
        t = t.append_column("a", pa.array(np.full(len(t), -1, np.int64), pa.int64()))
        return t.append_column("b", pa.array(np.full(len(t), -1, np.int64), pa.int64()))

    doc = dedup.dedup_exact(sf_dir).map_batches(pad_doc, batch_format="pyarrow")
    span = dedup.duplicated_spans(sf_dir).rename_columns(
        {"span_start": "a", "span_end": "b"}
    )
    span = _tag(span, "method", "span")
    incr = dedup.dedup_incremental(sf_dir).map_batches(pad_incr, batch_format="pyarrow")
    return doc.union(span).union(incr)


def dedup_exact_and_spans_sql() -> str:
    from epichypersketch_jl_ray.pipelines import dedup

    return (
        "SELECT 'doc' AS method, keep_id AS doc_id, dup_count AS a,"
        f" CAST(-1 AS BIGINT) AS b FROM ({dedup.dedup_exact_sql()})"
        " UNION ALL SELECT 'span' AS method, doc_id, span_start AS a,"
        f" span_end AS b FROM ({dedup.duplicated_spans_sql()})"
        " UNION ALL SELECT 'incr' AS method, doc_id, CAST(-1 AS BIGINT) AS a,"
        f" CAST(-1 AS BIGINT) AS b FROM ({dedup.dedup_incremental_sql()})"
    )


# --- text analysis ----------------------------------------------------------


def token_count_and_packing(sf_dir: str) -> ray.data.Dataset:
    """Per-doc BPE-ish token counts AND GPT-style sequence packing in one
    oracled union (method column): 'count' rows are (doc_id, a=n_pieces),
    'pack' rows are (doc_id, a=seq_id, b=tok_start, c=tok_end) slices of
    the fixed-budget training-sequence layout (pipelines/packing.py,
    distributed exact prefix-sum scan). Registry key stays
    token_count_bpe. -1 sentinels, never NULL (module docstring)."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines import textstats
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    def pad_count(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["doc_id", "a"])
        t = t.add_column(0, "method", pa.array(["count"] * len(t), pa.string()))
        t = t.append_column("b", pa.array(np.full(len(t), -1, np.int64), pa.int64()))
        return t.append_column("c", pa.array(np.full(len(t), -1, np.int64), pa.int64()))

    cnt = textstats.token_count_bpe(sf_dir).map_batches(pad_count, batch_format="pyarrow")
    pack = pack_sequences(sf_dir).rename_columns(
        {"seq_id": "a", "tok_start": "b", "tok_end": "c"}
    )
    return cnt.union(_tag(pack, "method", "pack"))


def token_count_and_packing_sql() -> str:
    from epichypersketch_jl_ray.pipelines import textstats
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences_sql

    return (
        "SELECT 'count' AS method, doc_id, n_pieces AS a, CAST(-1 AS BIGINT) AS b,"
        f" CAST(-1 AS BIGINT) AS c FROM ({textstats.token_count_bpe_sql()})"
        " UNION ALL SELECT 'pack' AS method, doc_id, seq_id AS a, tok_start AS b,"
        f" tok_end AS c FROM ({pack_sequences_sql()})"
    )


def doc_lang_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Language-ID + winnowing fingerprints + trained quality-classifier
    probability + corpus-trained-BPE token count per doc in one frame.
    Rows-only; langid accuracy, fingerprint determinism, classifier
    learnability/determinism, and distributed-BPE-trainer exactness in
    pytest (pipelines/classifier.py CCNet-style reference-vs-crawl LR;
    functions/bpe.py exact word-count training).

    All four frames are PER-DOC maps, so they fuse into ONE corpus read +
    ONE map_batches (no joins at all — per-doc column families share the
    row); only the two bounded trainings (classifier GD over labeled
    slices, BPE over the distinct-word table) run as separate passes.
    pytest checks each column against its kernel (langid_scores,
    textstats.fingerprint_columns, classifier.quality_scores, a local
    BpeTokenizer.encode)."""
    from epichypersketch_jl_ray.functions.bpe import train_bpe_distributed
    from epichypersketch_jl_ray.pipelines.classifier import train_quality_classifier
    from epichypersketch_jl_ray.sources.tables import read_table

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    w, _ = train_quality_classifier(sf_dir)
    tok = train_bpe_distributed(docs, "text", num_merges=64)
    refs = {"w_ref": ray.put(w), "tok_ref": ray.put(tok)}
    return docs.map_batches(_doc_lang_frame, fn_kwargs=refs, batch_format="pyarrow")


def _doc_lang_frame(batch: pa.Table, *, w_ref, tok_ref) -> pa.Table:
    """One batch of ``doc_lang_fingerprints``. The classifier weights and
    the tokenizer are read through the per-worker broadcast memo, so a
    worker decodes each once and the tokenizer's word cache stays warm
    across its tasks."""
    from epichypersketch_jl_ray.functions.text import langid_scores
    from epichypersketch_jl_ray.pipelines import textstats
    from epichypersketch_jl_ray.pipelines.classifier import score_probs
    from epichypersketch_jl_ray.stages.udaf import broadcast_get

    n_fp, digest = textstats.fingerprint_columns(batch["text"])
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang_declared": batch["lang"],
            "lang_pred": pa.array(langid_scores(batch["text"]).astype(str), pa.string()),
            "n_fingerprints": pa.array(n_fp, pa.int64()),
            "fp_digest": pa.array(digest, pa.int64()),
            "quality_prob": pa.array(score_probs(broadcast_get(w_ref), batch), pa.float64()),
            "n_tokens_bpe_trained": broadcast_get(tok_ref).token_counts(batch["text"]),
        }
    )


def customer_orders_and_pagerank(sf_dir: str) -> ray.data.Dataset:
    """LEFT-outer order counts + co-purchase PageRank in one oracled union
    (method column): 'orders' rows are (id=c_custkey, val=n_orders),
    'pagerank' rows are (id=packed node, val=fixed-point rank) — the
    iterative link-analysis operator is EXACTLY oracled because its
    arithmetic is int64 fixed-point (pipelines/graph.py). The registry
    entry runs 5 iterations (the oracle CTE parameterizes; 10-iteration
    equality stays pinned in tests/test_graph_pagerank.py) — each
    iteration is a genuine edge-scale pass, and 5 halves the suite's
    heaviest query without losing any verified semantics."""
    from epichypersketch_jl_ray.pipelines import graph, relational

    def pad_orders(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "method": pa.array(["orders"] * len(t), pa.string()),
                "id": t["c_custkey"],
                "val": t["n_orders"],
            }
        )

    oc = relational.customer_order_counts(sf_dir).map_batches(
        pad_orders, batch_format="pyarrow"
    )
    pr = graph.copurchase_pagerank(sf_dir, n_iters=5)
    pr = pa.table(
        {
            "method": pa.array(["pagerank"] * len(pr), pa.string()),
            "id": pr["node"],
            "val": pr["rank_fp"],
        }
    )
    return oc.union(table_dataset(pr))


def customer_orders_and_pagerank_sql() -> str:
    from epichypersketch_jl_ray.pipelines import graph, relational

    return (
        "SELECT 'orders' AS method, c_custkey AS id, n_orders AS val"
        f" FROM ({relational.customer_order_counts_sql()})"
        " UNION ALL SELECT 'pagerank' AS method, node AS id, rank_fp AS val"
        f" FROM ({graph.copurchase_pagerank_sql(n_iters=5)})"
    )


# --- relational merges ------------------------------------------------------


def click_purchase_set_ops(sf_dir: str) -> ray.data.Dataset:
    """Set operations over click/purchase user sets in one oracled union:
    op='intersect_users' rows (hour=-1 sentinel) and op='click_only_hours'
    rows (user_id, hour). -1 sentinels, never NULL (module docstring)."""
    from epichypersketch_jl_ray.pipelines import relational

    def pad_inter(t: pa.Table) -> pa.Table:
        t = t.add_column(0, "op", pa.array(["intersect_users"] * len(t), pa.string()))
        import numpy as np

        return t.append_column("hour", pa.array(np.full(len(t), -1, np.int64), pa.int64()))

    inter = relational.users_intersection(sf_dir).map_batches(pad_inter, batch_format="pyarrow")
    hours = _tag(relational.click_only_user_hours(sf_dir), "op", "click_only_hours")
    return inter.union(hours)


def click_purchase_set_ops_sql() -> str:
    from epichypersketch_jl_ray.pipelines import relational

    return (
        "SELECT 'intersect_users' AS op, user_id, CAST(-1 AS BIGINT) AS hour"
        f" FROM ({relational.users_intersection_sql()})"
        " UNION ALL SELECT 'click_only_hours' AS op, user_id, hour"
        f" FROM ({relational.click_only_user_hours_sql()})"
    )


def clicks_vs_purchases(sf_dir: str) -> ray.data.Dataset:
    """Both as-of-join analyses in one oracled union: kind='last_purchase'
    rows are per-click (click_ts, purchase_ts, purchase_cents; n_clicks=-1),
    kind='clicks_after' rows are per-purchase (purchase_ts, n_clicks;
    click_ts=purchase_cents=-1)."""
    import numpy as np

    from epichypersketch_jl_ray.pipelines import relational

    def pad_last(t: pa.Table) -> pa.Table:
        t = t.add_column(0, "kind", pa.array(["last_purchase"] * len(t), pa.string()))
        return t.append_column("n_clicks", pa.array(np.full(len(t), -1, np.int64), pa.int64()))

    def pad_after(t: pa.Table) -> pa.Table:
        t = t.add_column(0, "kind", pa.array(["clicks_after"] * len(t), pa.string()))
        neg = pa.array(np.full(len(t), -1, np.int64), pa.int64())
        t = t.append_column("click_ts", neg)
        t = t.append_column("purchase_cents", neg)
        return t.select(["kind", "user_id", "click_ts", "purchase_ts", "purchase_cents", "n_clicks"])

    last = relational.clicks_last_purchase(sf_dir).map_batches(pad_last, batch_format="pyarrow")
    after = relational.clicks_after_purchase(sf_dir).map_batches(pad_after, batch_format="pyarrow")
    return last.union(after)


def clicks_vs_purchases_sql() -> str:
    from epichypersketch_jl_ray.pipelines import relational

    return (
        "SELECT 'last_purchase' AS kind, user_id, click_ts, purchase_ts, purchase_cents,"
        f" CAST(-1 AS BIGINT) AS n_clicks FROM ({relational.clicks_last_purchase_sql()})"
        " UNION ALL SELECT 'clicks_after' AS kind, user_id, CAST(-1 AS BIGINT) AS click_ts,"
        " purchase_ts, CAST(-1 AS BIGINT) AS purchase_cents, n_clicks"
        f" FROM ({relational.clicks_after_purchase_sql()})"
    )


def windowed_events(sf_dir: str) -> ray.data.Dataset:
    """Tumbling + hopping window aggregates in one oracled union (kind
    column) — identical output schema, one window-semantics query."""
    from epichypersketch_jl_ray.pipelines import relational

    t = _tag(relational.windowed_events(sf_dir), "kind", "tumbling")
    h = _tag(relational.hopping_events(sf_dir), "kind", "hopping")
    return t.union(h)


def windowed_events_sql() -> str:
    from epichypersketch_jl_ray.pipelines import relational

    cols = "event_type, window_start, n_events, value_cents"
    return (
        f"SELECT 'tumbling' AS kind, {cols} FROM ({relational.windowed_events_sql()})"
        f" UNION ALL SELECT 'hopping' AS kind, {cols} FROM ({relational.hopping_events_sql()})"
    )


def curate_corpus(sf_dir: str) -> ray.data.Dataset:
    """All three curation chains — pairwise-prune, connected-components
    cluster-dedup, and eval-set decontamination (GPT-3-style shared-n-gram
    drop) — in one oracled union (method column); the expensive
    quality->exact-dedup head is session-cached and shared by all three."""
    from epichypersketch_jl_ray.pipelines import curate

    base = _tag(curate.curate_corpus(sf_dir), "method", "pairwise")
    cc = _tag(curate.curate_corpus_cc(sf_dir), "method", "cc")
    dec = _tag(curate.decontaminate_corpus(sf_dir), "method", "decontam")
    return base.union(cc).union(dec)


def curate_corpus_sql() -> str:
    from epichypersketch_jl_ray.pipelines import curate

    return (
        f"SELECT 'pairwise' AS method, doc_id FROM ({curate.curate_corpus_sql()})"
        f" UNION ALL SELECT 'cc' AS method, doc_id FROM ({curate.curate_corpus_cc_sql()})"
        f" UNION ALL SELECT 'decontam' AS method, doc_id"
        f" FROM ({curate.decontaminate_corpus_sql()})"
    )


def user_spend_rank(sf_dir: str) -> pd.DataFrame:
    """NTILE quartile + PERCENT_RANK per user in one oracled frame (joined
    on user_id — both variants share the spend aggregation)."""
    from epichypersketch_jl_ray.pipelines import windowfns

    q = windowfns.user_spend_quartile(sf_dir)
    p = windowfns.user_spend_percentile(sf_dir)
    q = q.to_pandas() if not isinstance(q, pd.DataFrame) else q
    p = p.to_pandas() if not isinstance(p, pd.DataFrame) else p
    return q.merge(p, on=["user_id", "total_cents"])


def user_spend_rank_sql() -> str:
    from epichypersketch_jl_ray.pipelines import windowfns

    return (
        "SELECT a.user_id, a.total_cents, a.quartile, b.pct_rank"
        f" FROM ({windowfns.user_spend_quartile_sql()}) a"
        f" JOIN ({windowfns.user_spend_percentile_sql()}) b USING (user_id)"
    )


def export_by_lang(sf_dir: str) -> pd.DataFrame:
    """Lang-partitioned parquet sink round-trip PLUS per-doc distinctive
    terms (tf/df, integer-exact score) in one oracled frame — the
    discriminator is `part` ('export' / 'terms'); padded integer columns use
    the -1 sentinel, padded strings '' (module docstring convention)."""
    from epichypersketch_jl_ray.pipelines import textstats

    exp = textstats.export_by_lang(sf_dir).to_pandas()
    exp = pd.DataFrame(
        {
            "part": "export",
            "lang": exp["lang"],
            "n_docs": exp["n_docs"].astype("int64"),
            "total_chars": exp["total_chars"].astype("int64"),
            "doc_id": -1,
            "term": "",
            "tf": -1,
            "df": -1,
            "score": -1.0,
        }
    )
    terms = textstats.distinctive_terms(sf_dir).to_pandas()
    terms = pd.DataFrame(
        {
            "part": "terms",
            "lang": "",
            "n_docs": -1,
            "total_chars": -1,
            "doc_id": terms["doc_id"].astype("int64"),
            "term": terms["term"],
            "tf": terms["tf"].astype("int64"),
            "df": terms["df"].astype("int64"),
            "score": terms["score"].astype("float64"),
        }
    )
    return pd.concat([exp, terms], ignore_index=True)


def export_by_lang_sql() -> str:
    from epichypersketch_jl_ray.pipelines import textstats

    return (
        "SELECT 'export' AS part, lang, n_docs, total_chars,"
        " CAST(-1 AS BIGINT) AS doc_id, '' AS term, CAST(-1 AS BIGINT) AS tf,"
        " CAST(-1 AS BIGINT) AS df, CAST(-1.0 AS DOUBLE) AS score"
        f" FROM ({textstats.export_by_lang_sql()})"
        " UNION ALL SELECT 'terms' AS part, '' AS lang, CAST(-1 AS BIGINT) AS n_docs,"
        " CAST(-1 AS BIGINT) AS total_chars, doc_id, term, CAST(tf AS BIGINT) AS tf,"
        " CAST(df AS BIGINT) AS df, CAST(score AS DOUBLE) AS score"
        f" FROM ({textstats.distinctive_terms_sql()})"
    )
