"""Similarity search over the embeddings table."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.stages.ann import (
    BruteForceTopK,
    _embedding_matrix,
    cosine_sql,
    distributed_topk,
)

N_QUERIES = 5
TOP_K = 10

def _store_candidates(cands: ray.data.Dataset, store: str) -> ray.data.Dataset:
    """Write a candidate stream's (query_id, neighbor_id) pairs to the
    parquet store so the SQL oracle can re-rank the same candidates with
    exact cosine — returns the materialized stream for the distributed top-k
    reduce (no recompute; sim stays out of the store, the oracle recomputes
    it from the embeddings view)."""
    from epichypersketch_jl_ray.sources.sinks import overwrite_store

    return overwrite_store(cands, store, columns=["query_id", "neighbor_id"])

# (sf_dir, n) -> (q_ids, q matrix): the three ANN queries probe the same
# vectors; one pushdown read per session serves all of them
_PROBE_CACHE: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _fetch_probes(sf_dir: str, n: int = N_QUERIES) -> tuple[np.ndarray, np.ndarray]:
    """Probe vectors WITHOUT a corpus scan: a driver-side parquet read with a
    ``vec_id < n`` predicate pushed into the scan, so row groups whose
    [min, max] stats exclude the probe range are never read (the previous
    ``ds.filter(...).take_all()`` streamed the whole table through Ray just
    to keep 5 rows). Probes are dim-scale — driver fetch is the right tier,
    like region/nation."""
    key = (sf_dir, int(n))
    if key not in _PROBE_CACHE:
        import os

        import pyarrow.parquet as pq

        tbl = pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filters=[("vec_id", "<", int(n))],
        )
        ids = tbl["vec_id"].to_numpy().astype(np.int64)
        order = np.argsort(ids)  # deterministic regardless of row-group order
        _PROBE_CACHE[key] = (ids[order], _embedding_matrix(tbl, "embedding")[order])
    return _PROBE_CACHE[key]


def ann_cosine_topk(sf_dir: str, *, k: int = TOP_K) -> pd.DataFrame:
    """Brute-force cosine top-k for the first N_QUERIES vectors against the
    whole table (self included — deterministic rank 1). Query matrix is
    broadcast once via ray.put; each batch does one float64 matmul."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q = _fetch_probes(sf_dir)
    query_ref = ray.put((q_ids, q))
    cands = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"query_ref": query_ref, "k": k},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=2,
    )
    # distributed per-query merge; only the final queries x k rows collect
    return distributed_topk(cands, k=k).to_pandas()


def ann_lsh_topk(
    sf_dir: str,
    *,
    k: int = TOP_K,
    bits: int = 8,
    probe_hamming: int = 3,
    store: str | None = None,
) -> pd.DataFrame:
    """LSH-bucketed approximate top-k (the 100 TB scale path): each query's
    candidates are restricted to rows whose hyperplane sign-signature is
    within hamming distance ``probe_hamming`` of THAT query's bucket, then
    ranked exactly. Recall is approximate (asserted vs brute force in
    pytest); the final ranking over the surviving candidates is exact, so
    with ``store`` set the SQL oracle re-ranks the STORED candidate stream
    by exact cosine and hash-matches the (query_id, neighbor_id, rank)
    result (see merged.ann_approx_topk)."""
    from itertools import combinations

    from epichypersketch_jl_ray.stages.ann import LSHBuckets

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q = _fetch_probes(sf_dir)
    lsh = LSHBuckets(q.shape[1], bits=bits)
    q_buckets = lsh.bucket_of(q)
    # multi-probe: PER QUERY, every bucket within hamming distance
    # probe_hamming of its own bucket — one sorted probe array per query
    # (size sum C(bits, <=r), NOT 2^bits, so wide signatures stay cheap);
    # each query scores only the rows in ITS probe set, so per-batch FLOPs
    # scale with sum_i |probe_i| instead of nq x the union
    flips = np.array(
        [0]
        + [
            int(np.bitwise_or.reduce([1 << j for j in c]))
            for r in range(1, probe_hamming + 1)
            for c in combinations(range(bits), r)
        ],
        dtype=np.int64,
    )
    probe_sets = [np.sort(int(b) ^ flips) for b in q_buckets]
    probes_ref = ray.put((q_ids, q, probe_sets))

    def bucket_filter_topk(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = _embedding_matrix(batch, "embedding")
        qids, qmat, psets = ray.get(probes_ref)
        lsh_local = LSHBuckets(e.shape[1], bits=bits)
        buckets = lsh_local.bucket_of(e)
        qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
        out_q, out_n, out_s = [], [], []
        for i in range(len(qids)):
            idx = np.flatnonzero(np.isin(buckets, psets[i]))
            if idx.size == 0:
                continue
            cand = e[idx]
            norms = np.linalg.norm(cand, axis=1, keepdims=True)
            cand = cand / np.where(norms == 0, 1, norms)
            sims_i = cand @ qn[i]
            kk = min(k, idx.size)
            part = np.argpartition(-sims_i, kk - 1)[:kk]
            out_q.append(np.full(kk, qids[i], dtype=np.int64))
            out_n.append(ids[idx[part]])
            out_s.append(sims_i[part])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
                "sim": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    cands = ds.map_batches(bucket_filter_topk, batch_format="pyarrow", batch_size=4096)
    if store:
        cands = _store_candidates(cands, store)
    return distributed_topk(cands, k=k).to_pandas()


def ann_ivf_topk(
    sf_dir: str,
    *,
    k: int = TOP_K,
    n_lists: int = 16,
    nprobe: int = 6,
    train_sample: int = 2048,
    kmeans_iters: int = 8,
    seed: int = 61,
    store: str | None = None,
) -> pd.DataFrame:
    """IVF (inverted-file) approximate top-k — the second scale path next to
    LSH bucketing.

    Train: k-means coarse centroids on a driver-side SAMPLE (``limit`` of the
    corpus — bounded, seeded, a few k-means iterations in numpy). Probe: the
    ``nprobe`` centroids nearest each query are broadcast with the centroid
    matrix; each batch assigns its vectors to their nearest centroid
    (one matmul) and only vectors in a probed list enter the exact ranking
    matmul. Work per batch ~ (assign matmul) + (exact matmul over the probed
    fraction ≈ nprobe/n_lists of rows). Recall < 1 (asserted vs brute force
    in tests; ~0.74 at the defaults on the near-uniform synthetic fixture —
    clustered real embeddings concentrate much better); ranking of
    surviving candidates is exact.
    """
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample_tbl = pa.Table.from_pylist(ds.limit(train_sample).take_all())
    x = _embedding_matrix(sample_tbl, "embedding")
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    cent = xn[rng.choice(len(xn), size=min(n_lists, len(xn)), replace=False)]
    for _ in range(kmeans_iters):  # spherical k-means on the sample
        assign = np.argmax(xn @ cent.T, axis=1)
        for c in range(len(cent)):
            members = xn[assign == c]
            if len(members):
                m = members.mean(axis=0)
                cent[c] = m / max(np.linalg.norm(m), 1e-12)

    q_ids, q = _fetch_probes(sf_dir)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probed_lists = np.unique(q_probes)
    bcast = ray.put((q_ids, qn, cent, q_probes, probed_lists))

    def ivf_batch(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = _embedding_matrix(batch, "embedding")
        en = e / np.maximum(np.linalg.norm(e, axis=1, keepdims=True), 1e-12)
        qids, qmat, centroids, probes, lists = ray.get(bcast)
        assign = np.argmax(en @ centroids.T, axis=1)
        mask = np.isin(assign, lists)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if not mask.any():
            return empty
        en, ids, assign = en[mask], ids[mask], assign[mask]
        sims = qmat @ en.T  # (nq, m)
        # a candidate counts for query q only if its list is among q's probes
        allowed = (assign[None, :, None] == probes[:, None, :]).any(axis=2)  # (nq, m)
        sims = np.where(allowed, sims, -np.inf)
        kk = min(k, sims.shape[1])
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        got = np.take_along_axis(sims, part, axis=1)
        qi, ci = np.nonzero(np.isfinite(got))
        return pa.table(
            {
                "query_id": pa.array(qids[qi], pa.int64()),
                "neighbor_id": pa.array(ids[part[qi, ci]], pa.int64()),
                "sim": pa.array(got[qi, ci], pa.float64()),
            }
        )

    cands = ds.map_batches(ivf_batch, batch_format="pyarrow", batch_size=4096)
    if store:
        cands = _store_candidates(cands, store)
    return distributed_topk(cands, k=k).to_pandas()


def ann_ivfpq_topk(
    sf_dir: str,
    *,
    k: int = TOP_K,
    n_lists: int = 16,
    nprobe: int = 6,
    m: int = 16,
    ksub: int = 32,
    shortlist: int = 40,
    train_sample: int = 2048,
    kmeans_iters: int = 8,
    seed: int = 61,
    store: str | None = None,
) -> pd.DataFrame:
    """IVF-PQ with exact re-rank (Jégou et al. 2011, "Product Quantization
    for Nearest Neighbor Search") — the compressed-store scale path beside
    LSH and plain IVF.

    Why it matters at 100 TB: a float32 embedding store is 4·d bytes/vec;
    PQ codes are ``m`` bytes (here 16 vs 256 — 16x). A real deployment
    persists (vec_id, list_id, codes) and scans CODES, touching full
    vectors only for the shortlist. This pipeline compresses, scans and
    re-ranks in one pass per batch (the full vector is already in-batch),
    so recall loss comes only from (coarse probe ∩ ADC shortlist) pruning
    while final ranking stays exact.

    Train (driver, bounded seeded sample like IVF): spherical k-means
    coarse centroids + per-subspace k-means codebooks (d/m dims each).
    Scan: per batch, assign coarse list (one matmul), PQ-encode (m small
    matmuls), ADC-score probed candidates per query via the (m, ksub)
    lookup table — O(m) adds per candidate instead of O(d) multiplies —
    keep the ADC ``shortlist`` per query, re-rank those exactly, and feed
    the distributed top-k reduce."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample_tbl = pa.Table.from_pylist(ds.limit(train_sample).take_all())
    x = _embedding_matrix(sample_tbl, "embedding")
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    cent = xn[rng.choice(len(xn), size=min(n_lists, len(xn)), replace=False)]
    for _ in range(kmeans_iters):  # spherical k-means, same recipe as IVF
        assign = np.argmax(xn @ cent.T, axis=1)
        for c in range(len(cent)):
            members = xn[assign == c]
            if len(members):
                mm = members.mean(axis=0)
                cent[c] = mm / max(np.linalg.norm(mm), 1e-12)

    d = xn.shape[1]
    if d % m:
        raise ValueError(f"embedding dim {d} not divisible by m={m}")
    dsub = d // m
    books = np.empty((m, ksub, dsub), dtype=np.float64)  # per-subspace codebooks
    for j in range(m):
        sub = xn[:, j * dsub : (j + 1) * dsub]
        cb = sub[rng.choice(len(sub), size=min(ksub, len(sub)), replace=False)]
        for _ in range(kmeans_iters):
            a = np.argmin(
                ((sub[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2), axis=1
            )
            for c in range(len(cb)):
                members = sub[a == c]
                if len(members):
                    cb[c] = members.mean(axis=0)
        books[j, : len(cb)] = cb
        if len(cb) < ksub:
            books[j, len(cb):] = cb[0]

    q_ids, q = _fetch_probes(sf_dir)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]
    probed_lists = np.unique(q_probes)
    # ADC lookup tables: (nq, m, ksub) — query-subvector · codebook entries
    lut = np.einsum("qjs,jks->qjk", qn.reshape(len(qn), m, dsub), books)
    bcast = ray.put((q_ids, qn, cent, q_probes, probed_lists, books, lut))

    def ivfpq_batch(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = _embedding_matrix(batch, "embedding")
        en = e / np.maximum(np.linalg.norm(e, axis=1, keepdims=True), 1e-12)
        qids, qmat, centroids, probes, lists, bks, luts = ray.get(bcast)
        assign = np.argmax(en @ centroids.T, axis=1)
        mask = np.isin(assign, lists)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if not mask.any():
            return empty
        en, ids, assign = en[mask], ids[mask], assign[mask]
        nsub = bks.shape[2]
        # PQ encode: m bytes per vector (the store format at scale)
        sub = en.reshape(len(en), bks.shape[0], nsub)
        codes = np.argmin(
            ((sub[:, :, None, :] - bks[None, :, :, :]) ** 2).sum(axis=3), axis=2
        ).astype(np.uint8)
        # ADC: approx sim per (query, candidate) = sum_j lut[q, j, code[j]]
        adc = (
            np.take_along_axis(
                luts[:, None, :, :], codes[None, :, :, None].astype(np.int64), axis=3
            )
            .squeeze(3)
            .sum(axis=2)
        )
        allowed = (assign[None, :, None] == probes[:, None, :]).any(axis=2)
        adc = np.where(allowed, adc, -np.inf)
        kk = min(shortlist, adc.shape[1])
        part = np.argpartition(-adc, kk - 1, axis=1)[:, :kk]
        got = np.take_along_axis(adc, part, axis=1)
        qi, ci = np.nonzero(np.isfinite(got))
        if not len(qi):
            return empty
        cand = part[qi, ci]
        # exact re-rank of the ADC shortlist: true cosine, in-batch vectors
        exact = np.einsum("ij,ij->i", qmat[qi], en[cand])
        return pa.table(
            {
                "query_id": pa.array(qids[qi], pa.int64()),
                "neighbor_id": pa.array(ids[cand], pa.int64()),
                "sim": pa.array(exact, pa.float64()),
            }
        )

    cands = ds.map_batches(ivfpq_batch, batch_format="pyarrow", batch_size=4096)
    if store:
        cands = _store_candidates(cands, store)
    return distributed_topk(cands, k=k).to_pandas()


def ann_cosine_topk_sql(k: int = TOP_K) -> str:
    """Exact top-k oracle: every vector ranked by the quantized cosine
    (``cosine_sql``), ties by vec_id, as distributed_topk ranks."""
    return f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings WHERE vec_id < {N_QUERIES}),
s AS (SELECT q.qid, e.vec_id, {cosine_sql("q.qv", "e.embedding")} AS sim
      FROM q CROSS JOIN embeddings e),
r AS (SELECT qid, vec_id,
             ROW_NUMBER() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rn
      FROM s)
SELECT qid AS query_id, vec_id AS neighbor_id, CAST(rn AS BIGINT) AS rank
FROM r WHERE rn <= {k}
"""


def embedding_fd_directions(
    sf_dir: str, *, k: int = 8, ell: int = 64
) -> tuple[np.ndarray, np.ndarray, float]:
    """One-pass Frequent-Directions sketch over the embedding column:
    per-block l x d partials -> UDAF tree merge -> (singular_values (k,),
    directions vt (k, d), total Frobenius energy). No N x d materialization
    anywhere; state is O(l·d) per partial."""
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset
    from epichypersketch_jl_ray.state.frequentdirections import FrequentDirections

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sch = ds.schema()
    etype = sch.types[sch.names.index("embedding")]
    dim = (
        etype.list_size
        if pa.types.is_fixed_size_list(etype)
        else len(ds.limit(1).take_all()[0]["embedding"])
    )

    def update(fd: FrequentDirections, batch: pa.Table) -> None:
        fd.update(_embedding_matrix(batch, "embedding"))

    fd = sketch_dataset(
        ds, lambda: FrequentDirections(dim, ell=ell), update, FrequentDirections
    )
    s, vt = fd.top_directions(k)
    return s, vt, float(fd.frob_sq)


def embedding_principal_components(sf_dir: str, *, k: int = 8, ell: int = 64) -> pd.DataFrame:
    """Approximate PCA of the embedding column via the mergeable Frequent
    Directions matrix sketch (state/frequentdirections.py). Rows-only
    (approximate; the covariance spectral bound and subspace quality are
    asserted in pytest)."""
    s, _vt, total = embedding_fd_directions(sf_dir, k=k, ell=ell)
    return pd.DataFrame(
        {
            "component": np.arange(len(s), dtype=np.int64),
            "singular_value": s,
            "energy_share": (s**2) / total,
        }
    )
