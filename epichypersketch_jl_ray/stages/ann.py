"""Approximate-nearest-neighbour stages over an embedding column.

Baseline: brute-force cosine top-k — a numpy matmul per batch against a
broadcast query matrix (ray.put once, read once per worker through the
broadcast memo), per-batch partial top-k, then a per-query top-k reduce on
the hash exchange. Scale path: LSH bucketing via random hyperplane signs
(SimHash over embeddings) to prune candidates — same harness.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
from epichypersketch_jl_ray.stages.udaf import broadcast_get, cpu_units, input_units

# Every embedding pair's cosine is quantized to the 2^-16 grid,
# floor(x * 2^16) / 2^16, by the pipelines and by their SQL oracles alike:
# the near-dup thresholds compare the quantized value and the top-k stages
# rank on it (ties by neighbour id), the binary quantization
# embedding_analysis uses. Scaling by a power of two and floor are exact
# in IEEE doubles, so both sides agree on every pair whose raw cosine they
# agree on (a decimal round(x, 12) does not: numpy rounds
# half to even, DuckDB half away from zero), and a last-bit drift between
# the BLAS and the DuckDB dot flips a value only within that drift of a
# 2^-16 step.
_COSINE_SCALE = 65536.0


def quantize_cosine(sims: np.ndarray) -> np.ndarray:
    """Cosines on the 2^-16 grid (rounded down), as the SQL oracles
    compute them (``cosine_sql``)."""
    return np.floor(sims * _COSINE_SCALE) / _COSINE_SCALE


def cosine_sql(a: str, b: str) -> str:
    """DuckDB expression: the quantized cosine (``quantize_cosine``) of two
    embedding list columns."""
    sim = f"list_cosine_similarity(CAST({a} AS DOUBLE[]), CAST({b} AS DOUBLE[]))"
    return f"floor({sim} * {_COSINE_SCALE!r}) / {_COSINE_SCALE!r}"


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(arr[0])
    return flat.reshape(len(arr), dim)


def brute_force_topk(
    batch: pa.Table, *, query_ref, k: int = 10, id_col: str = "vec_id", col: str = "embedding"
) -> pa.Table:
    """Per-batch cosine top-k against the broadcast queries ``(q_ids, q)``,
    read by ref through the per-worker broadcast memo."""
    q_ids, q = broadcast_get(query_ref)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    q = q / np.where(qn == 0, 1, qn)
    e = _embedding_matrix(batch, col)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    e = e / np.where(norms == 0, 1, norms)
    sims = q @ e.T  # (nq, nb)
    k = min(k, sims.shape[1])
    # the batch's first k by distributed_topk's order, so the final
    # reduce sees every row it would rank in
    order = np.lexsort((np.broadcast_to(ids, sims.shape), -quantize_cosine(sims)))
    part = order[:, :k]
    return pa.table(
        {
            "query_id": pa.array(np.repeat(np.asarray(q_ids, dtype=np.int64), k), pa.int64()),
            "neighbor_id": pa.array(ids[part].ravel(), pa.int64()),
            "sim": pa.array(np.take_along_axis(sims, part, axis=1).ravel(), pa.float64()),
        }
    )


class LSHBuckets:
    """Random-hyperplane LSH bucketing (the scale path: prune candidates to
    matching sign-signature buckets before the exact matmul). Hyperplanes are
    seeded so every worker derives identical buckets."""

    def __init__(self, dim: int, *, bits: int = 8, seed: int = 31) -> None:
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, bits))
        self.bits = bits

    def bucket_of(self, mat: np.ndarray) -> np.ndarray:
        signs = (mat @ self.planes) > 0
        out = np.zeros(len(mat), dtype=np.int64)
        for b in range(self.bits):
            out |= signs[:, b].astype(np.int64) << b
        return out


_CANDIDATES = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("sim", pa.float64())]
)


def distributed_topk(candidates: ray.data.Dataset, *, k: int = 10) -> ray.data.Dataset:
    """DISTRIBUTED final top-k reduce: the hash exchange on ``query_id``
    sends every candidate of a query to one bucket, and each bucket task
    ranks each of its queries' rows and keeps exactly k (query_id,
    neighbor_id, rank) rows per query, ranked by the quantized cosine
    (``quantize_cosine``) descending, then neighbor_id ascending — the
    order the SQL oracles rank by, so a few-ulp drift between the BLAS and
    the DuckDB cosine cannot swap two near-tied neighbours. The candidate
    stream (blocks × queries × k rows) never touches the driver — at
    100 TB that stream is millions of rows while the result stays
    queries × k."""

    def topk_bucket(t: pa.Table) -> pa.Table:
        if not t.num_rows:  # a bucket of no candidate may have no columns
            t = _CANDIDATES.empty_table()
        sims = quantize_cosine(t["sim"].to_numpy(zero_copy_only=False))
        ids = t["neighbor_id"].to_numpy(zero_copy_only=False)
        qid = t["query_id"].to_numpy(zero_copy_only=False)
        # by query, then quantized sim desc, then neighbor_id asc
        order = np.lexsort((ids, -sims, qid))
        q = qid[order]
        starts = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
        rank = np.arange(len(q)) - np.repeat(starts, np.diff(np.append(starts, len(q)))) + 1
        keep = order[rank <= k]
        return pa.table(
            {
                "query_id": pa.array(qid[keep], pa.int64()),
                "neighbor_id": pa.array(ids[keep], pa.int64()),
                "rank": pa.array(rank[rank <= k], pa.int64()),
            }
        )

    return map_buckets(
        topk_bucket, hash_partition(input_units(candidates), ["query_id"], cpu_units(None))
    )
