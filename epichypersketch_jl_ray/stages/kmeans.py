"""Distributed Lloyd's k-means over an embedding Dataset.

The reference has no clustering (its grouping is the CMS motif hash,
count_cpu.jl:62-71); this stage exists for the LLM-data-pipeline extensions
(SemDeDup semantic dedup, IVF coarse quantizers trained on the FULL corpus
rather than a driver sample — pipelines/ann.py trains on a bounded sample,
which is fine for 16 lists but not for the ~10k clusters semantic dedup
needs at web scale).

Shape (designed for 100 TB):
- the corpus never leaves the workers. Each Lloyd iteration is ONE
  map_batches pass emitting per-(batch, cluster) PARTIAL sums and counts
  (at most ``k`` rows per batch, cluster-sparse), then a
  ``groupby("cluster")`` whose group sizes are bounded by the block count —
  corpus-size-independent — and a driver update over exactly ``k`` rows.
- centroids are broadcast once per iteration via ``ray.put`` (workers read
  the plasma copy zero-copy; nothing is re-shipped per batch).
- partial sums are FIXED-POINT int64: after unit-normalization every
  coordinate lies in [-1, 1] and is quantized to ``round(x * 2**21)`` —
  integer addition is exact and associative, so the fitted centroids are
  bit-identical for ANY batch size, block order, or parallelism. A job run
  on 8 nodes and on 256 nodes computes the same model (the north rule's
  two-cluster-size reproducibility, extended from the sketch states to the
  trained model). Headroom: a cluster of n members sums to at most
  n * 2**21 per coordinate, so int64 overflows only past n = 2**42 ≈ 4.4e12
  vectors IN ONE CLUSTER.
- per-iteration inertia is accumulated the same fixed-point way, so the
  training history (and the exact-convergence early stop) is deterministic
  too: the loop stops when the quantized centroid table reproduces itself,
  which every cluster size detects on the same iteration.
- init is k-means++ on a bounded deterministic priority sample (bottom-s by
  ``splitmix64(id ^ mix(seed))`` — the doc_sample convention): per batch
  only the local bottom ``min(s, max(16, 8s/n_blocks))`` rows are emitted
  (balls-in-bins: the global bottom-s puts ~s/n_blocks rows in each block,
  so keeping 8x that, floor 16, loses a sample member with negligible
  probability while the shuffle stays ~8s rows no matter how many blocks
  the corpus has), then one tiny groupby-reduce; k-means++ itself runs on
  the driver over s rows, independent of corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.functions.hashing import splitmix64
from epichypersketch_jl_ray.stages.ann import _embedding_matrix

_SCALE = np.int64(1 << 21)  # fixed-point quantum for unit-norm coordinates
INIT_SAMPLE = 2048  # rows the k-means++ seeding sees


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(n == 0, 1.0, n)


def _quantize(mat: np.ndarray) -> np.ndarray:
    return np.rint(mat * np.float64(_SCALE)).astype(np.int64)


@dataclass
class KMeansModel:
    """Fitted centroids plus the deterministic training history."""

    centroids: np.ndarray  # (k, d) float64, unit-norm when spherical
    spherical: bool
    inertia: list[float] = field(default_factory=list)  # one per iteration
    iterations: int = 0

    def assign(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-local (batch-invariant) cluster assignment.

        Returns (cluster_index, similarity-to-centroid). Spherical: argmax
        cosine; Euclidean: argmin squared distance (sim = -dist²). Ties
        break to the lowest cluster index (np.argmax/argmin take the first
        extremum), identically in every task.
        """
        x = _normalize(mat) if self.spherical else mat
        sims = x @ self.centroids.T
        if self.spherical:
            a = np.argmax(sims, axis=1)
            return a, sims[np.arange(len(x)), a]
        d2 = (x * x).sum(1, keepdims=True) - 2 * sims + (self.centroids**2).sum(1)
        a = np.argmin(d2, axis=1)
        return a, -d2[np.arange(len(x)), a]


def _priority_sample(
    ds: ray.data.Dataset,
    *,
    sample: int,
    seed: int,
    id_col: str,
    col: str,
) -> np.ndarray:
    """Deterministic bottom-``sample`` rows by splitmix64 priority; returns
    the (s, d) embedding matrix. Shuffle cost ~8*sample rows regardless of
    corpus size (see module docstring)."""
    try:  # lazy datasets can't count blocks; input file count is the read's
        n_blocks = max(len(ds.input_files()), 1)  # lower bound on block fan-out
    except Exception:
        n_blocks = 256
    per_block = min(sample, max(16, (8 * sample) // n_blocks))
    mix = int(splitmix64(np.uint64(seed)))

    def local_bottom(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        prio = splitmix64(ids.view(np.uint64) ^ np.uint64(mix))
        keep = np.argsort(prio, kind="stable")[:per_block]
        e = _embedding_matrix(batch, col)[keep]
        return pa.table(
            {
                "prio": pa.array(prio[keep].view(np.int64), pa.int64()),
                "emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(e.ravel(), pa.float64()), e.shape[1]
                ),
            }
        )

    rows = ds.map_batches(local_bottom, batch_format="pyarrow").take_all()
    prio = np.array([r["prio"] for r in rows], dtype=np.int64).view(np.uint64)
    order = np.argsort(prio, kind="stable")[:sample]
    return np.array([rows[i]["emb"] for i in order], dtype=np.float64)


def _kmeans_pp_init(x: np.ndarray, k: int, *, seed: int, spherical: bool) -> np.ndarray:
    """Standard k-means++ on the driver sample (deterministic given seed)."""
    rng = np.random.default_rng(seed)
    xn = _normalize(x) if spherical else x
    cent = np.empty((k, x.shape[1]), dtype=np.float64)
    cent[0] = xn[rng.integers(len(xn))]
    d2 = np.maximum(1.0 - xn @ cent[0] if spherical else ((xn - cent[0]) ** 2).sum(1), 0.0)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points coincide with chosen centroids
            cent[i:] = cent[0]
            break
        cent[i] = xn[rng.choice(len(xn), p=d2 / total)]
        nd = np.maximum(1.0 - xn @ cent[i] if spherical else ((xn - cent[i]) ** 2).sum(1), 0.0)
        np.minimum(d2, nd, out=d2)
    return _normalize(cent) if spherical else cent


def kmeans_fit(
    ds: ray.data.Dataset,
    *,
    k: int,
    iters: int = 10,
    seed: int = 73,
    spherical: bool = True,
    batch_size: int = 4096,
) -> KMeansModel:
    """Fit k-means on the FULL dataset with exact (fixed-point) partial sums.
    The k-means++ seeding sees a priority sample of ``INIT_SAMPLE`` rows of
    the (vec_id, embedding) columns.

    Stops early — deterministically, at the same iteration for every batch
    size / parallelism — when an iteration reproduces the previous quantized
    centroid table exactly.
    """
    x0 = _priority_sample(ds, sample=INIT_SAMPLE, seed=seed, id_col="vec_id", col="embedding")
    if len(x0) == 0:
        raise ValueError("kmeans_fit: empty dataset")
    k = min(k, len(x0))
    centroids = _kmeans_pp_init(x0, k, seed=seed, spherical=spherical)
    model = KMeansModel(centroids=centroids, spherical=spherical)
    dim = centroids.shape[1]
    prev_q: np.ndarray | None = None

    for it in range(iters):
        cent_ref = ray.put(model.centroids)

        def partials(batch: pa.Table, _ref=cent_ref, _sph=spherical) -> pa.Table:
            e = _embedding_matrix(batch, "embedding")
            m = KMeansModel(centroids=ray.get(_ref), spherical=_sph)
            a, sim = m.assign(e)
            q = _quantize(_normalize(e) if m.spherical else e)
            uniq, inv = np.unique(a, return_inverse=True)
            sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
            np.add.at(sums, inv, q)
            counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
            # fixed-point partial inertia (1 - cos, or d²) per assignment
            loss = (1.0 - sim) if m.spherical else (-sim)
            loss_fp = np.rint(loss * np.float64(_SCALE)).astype(np.int64)
            inertia = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(inertia, inv, loss_fp)
            return pa.table(
                {
                    "cluster": pa.array(uniq.astype(np.int64), pa.int64()),
                    "sum_fp": pa.FixedSizeListArray.from_arrays(
                        pa.array(sums.ravel(), pa.int64()), q.shape[1]
                    ),
                    "count": pa.array(counts, pa.int64()),
                    "inertia_fp": pa.array(inertia, pa.int64()),
                }
            )

        def reduce_group(group: pa.Table) -> pa.Table:
            arr = group["sum_fp"]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
            s = flat.reshape(len(arr), dim).sum(axis=0)
            return pa.table(
                {
                    "cluster": pa.array(group["cluster"][:1].to_numpy(zero_copy_only=False), pa.int64()),
                    "sum_fp": pa.FixedSizeListArray.from_arrays(pa.array(s, pa.int64()), dim),
                    "count": pa.array(
                        [int(group["count"].to_numpy(zero_copy_only=False).sum())], pa.int64()
                    ),
                    "inertia_fp": pa.array(
                        [int(group["inertia_fp"].to_numpy(zero_copy_only=False).sum())], pa.int64()
                    ),
                }
            )

        rows = (
            ds.map_batches(partials, batch_format="pyarrow", batch_size=batch_size)
            .groupby("cluster")
            .map_groups(reduce_group, batch_format="pyarrow")
            .take_all()
        )  # exactly <= k rows
        new = model.centroids.copy()
        total_inertia = 0
        total_n = 0
        for r in rows:
            c = int(r["cluster"])
            n = int(r["count"])
            total_inertia += int(r["inertia_fp"])
            total_n += n
            if n > 0:
                mean = np.asarray(r["sum_fp"], dtype=np.float64) / (n * float(_SCALE))
                if spherical:
                    nrm = np.linalg.norm(mean)
                    mean = mean / nrm if nrm > 0 else model.centroids[c]
                new[c] = mean
        model.centroids = new
        model.inertia.append(total_inertia / float(_SCALE) / max(total_n, 1))
        model.iterations = it + 1
        q_now = _quantize(new)
        if prev_q is not None and np.array_equal(q_now, prev_q):
            break
        prev_q = q_now
    return model


def assign_clusters(
    ds: ray.data.Dataset,
    model: KMeansModel,
    *,
    keep_embedding: bool = True,
) -> ray.data.Dataset:
    """One map_batches pass attaching (cluster, cent_sim) to every row's
    vec_id (from its ``embedding``); centroids broadcast once via ray.put."""
    ref = ray.put((model.centroids, model.spherical))

    def tag(batch: pa.Table) -> pa.Table:
        cent, sph = ray.get(ref)
        e = _embedding_matrix(batch, "embedding")
        a, sim = KMeansModel(centroids=cent, spherical=sph).assign(e)
        cols: dict[str, pa.Array] = {
            "cluster": pa.array(a.astype(np.int64), pa.int64()),
            "vec_id": batch["vec_id"].combine_chunks()
            if isinstance(batch["vec_id"], pa.ChunkedArray)
            else batch["vec_id"],
            "cent_sim": pa.array(sim, pa.float64()),
        }
        if keep_embedding:
            en = _normalize(e) if sph else e
            cols["emb"] = pa.FixedSizeListArray.from_arrays(
                pa.array(en.ravel(), pa.float64()), e.shape[1]
            )
        return pa.table(cols)

    return ds.map_batches(tag, batch_format="pyarrow")
