"""Approximate-nearest-neighbour stages over an embedding column.

Baseline: brute-force cosine top-k — a numpy matmul per batch against a
broadcast query matrix (ray.put once, fetched once per actor), per-batch
partial top-k, tiny driver-side final merge. Scale path: LSH bucketing via
random hyperplane signs (SimHash over embeddings) to prune candidates —
same harness, bucket column + groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


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


class BruteForceTopK:
    """Actor stage: per-batch cosine top-k against the broadcast queries."""

    def __init__(self, query_ref, *, k: int = 10, id_col: str = "vec_id", col: str = "embedding"):
        q_ids, q = ray.get(query_ref) if not isinstance(query_ref, tuple) else query_ref
        self.q_ids = np.asarray(q_ids, dtype=np.int64)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        self.q = q / np.where(qn == 0, 1, qn)
        self.k = k
        self.id_col = id_col
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        e = _embedding_matrix(batch, self.col)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        norms = np.linalg.norm(e, axis=1, keepdims=True)
        e = e / np.where(norms == 0, 1, norms)
        sims = self.q @ e.T  # (nq, nb)
        k = min(self.k, sims.shape[1])
        # the batch's first k by distributed_topk's order, so the final
        # reduce sees every row it would rank in
        order = np.lexsort((np.broadcast_to(ids, sims.shape), -quantize_cosine(sims)))
        part = order[:, :k]
        return pa.table(
            {
                "query_id": pa.array(np.repeat(self.q_ids, k), pa.int64()),
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


def distributed_topk(candidates: ray.data.Dataset, *, k: int = 10) -> ray.data.Dataset:
    """DISTRIBUTED final top-k reduce: groupby(query_id) co-locates each
    query's per-block partial top-ks, one vectorized per-group merge emits
    exactly k (query_id, neighbor_id, rank) rows, ranked by the quantized
    cosine (``quantize_cosine``) descending, then neighbor_id ascending —
    the order the SQL oracles rank by, so a few-ulp drift between the BLAS
    and the DuckDB cosine cannot swap two near-tied neighbours. The
    candidate stream (blocks × queries × k rows) never touches the driver
    — at 100 TB that stream is millions of rows while the result stays
    queries × k."""

    def topk_group(group: pa.Table) -> pa.Table:
        sims = quantize_cosine(group["sim"].to_numpy(zero_copy_only=False))
        ids = group["neighbor_id"].to_numpy(zero_copy_only=False)
        qid = group["query_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]  # quantized sim desc, neighbor_id asc
        return pa.table(
            {
                "query_id": pa.array(qid[order], pa.int64()),
                "neighbor_id": pa.array(ids[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            }
        )

    return candidates.groupby("query_id").map_groups(topk_group, batch_format="pyarrow")


