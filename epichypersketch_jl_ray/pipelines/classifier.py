"""CCNet-style quality classifier, trained distributedly (Wenzek et al.
2020 train a linear fastText model "curated reference vs random web" and
keep docs the model scores reference-like; Brown et al. 2020 / GPT-3 use
the same reference-vs-crawl LR-classifier shape for quality filtering).

Model: logistic regression over hashed mean-pooled bag-of-tokens features
(feature = token hash % dim). Training is FULL-BATCH gradient descent.
Size-gated like the repo's other adaptive operators: when the labeled
slice fits ``driver_cap`` rows (real reference corpora are bounded), the
featurized slice pulls to the driver once and the GD loop runs locally —
20 iterations cost milliseconds instead of 20 Ray jobs. Over the cap,
each iteration is one Ray pass over the materialized labeled slice:
per-batch gradient partials as a mergeable state, folded by one task
per block (stages/udaf.sketch_dataset), the driver applies one step and
re-broadcasts the weights.

Determinism — and exact path equality: every (row, feature) gradient
contribution quantizes to FIXED-POINT int64 (scale 2^24) BEFORE any
aggregation, so the summed gradient is independent of row partitioning and
merge order (integer addition is associative). The driver path and the
distributed path therefore produce byte-identical weights, asserted in
tests, and the quantization error (2^-24 per contribution) is far below
the step size.

Labels stand in for the curated/crawl split the way the repo's other
reference-slice operators do (doc_stats LM coverage, decontamination):
positive = doc_id % label_mod == 0, negative = doc_id % label_mod ==
label_mod // 2. Scoring is one broadcast pass over the full corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.state.base import MergeableSketch

_SCALE = float(1 << 24)


class GradientState(MergeableSketch):
    """Fixed-point dense gradient accumulator + loss/count scalars."""

    __slots__ = ("g", "loss", "n")

    def __init__(self, dim: int) -> None:
        self.g = np.zeros(dim, dtype=np.int64)
        self.loss = 0  # fixed-point, so merges stay order-insensitive
        self.n = 0

    def merge(self, other: "GradientState") -> "GradientState":
        self.g += other.g
        self.loss += other.loss
        self.n += other.n
        return self

    def _state_arrays(self) -> tuple:
        return (("g", self.g), ("loss", self.loss), ("n", self.n))


def _featurize(batch: pa.Table, *, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat feature indices, row offsets) for a text column batch."""
    from epichypersketch_jl_ray.functions.text import token_hashes

    flat, off = token_hashes(batch["text"])
    return (flat % np.uint64(dim)).astype(np.int64), off


def _margins(w: np.ndarray, idx: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Mean-pooled linear margin per row."""
    counts = np.diff(off)
    row = np.repeat(np.arange(len(counts)), counts)
    s = np.bincount(row, weights=w[idx], minlength=len(counts))
    return s / np.maximum(counts, 1)


def _grad_fixed(
    w: np.ndarray, idx: np.ndarray, off: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """(int64 gradient at scale 2^24, int64 loss sum at scale 2^24, rows).

    Quantizes PER (row, feature) contribution before aggregating, so the
    result is exactly partition- and merge-order-independent."""
    m = _margins(w, idx, off)
    p = 1.0 / (1.0 + np.exp(-m))
    counts = np.maximum(np.diff(off), 1)
    row = np.repeat(np.arange(len(counts)), np.diff(off))
    q = np.rint(((p - y) / counts)[row] * _SCALE)  # per-contribution fixed point
    # float64 bincount of int-valued weights is exact below 2^53 per bucket
    g = np.bincount(idx, weights=q, minlength=len(w)).astype(np.int64)
    eps = 1e-12
    ll = np.rint(-(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)) * _SCALE)
    return g, int(ll.sum()), len(y)


def train_quality_classifier(
    sf_dir: str,
    *,
    dim: int = 1 << 18,
    iters: int = 20,
    lr: float = 64.0,
    l2: float = 1e-6,
    label_mod: int = 10,
    driver_cap: int = 1 << 20,
    table: str = "documents",
) -> tuple[np.ndarray, list[float]]:
    """Returns (weights, per-iteration mean log-loss). Deterministic, and
    identical whichever side of ``driver_cap`` the labeled slice lands on."""
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset

    ds = read_table(sf_dir, table, columns=["doc_id", "text"])
    neg_rem = label_mod // 2

    def labeled(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rem = ids % label_mod
        sub = batch.filter(pa.array((rem == 0) | (rem == neg_rem)))
        idx, off = _featurize(sub, dim=dim)
        y = (sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64) % label_mod == 0)
        return pa.table(
            {
                "label": pa.array(y.astype(np.float64), pa.float64()),
                "feat": pa.ListArray.from_arrays(
                    pa.array(off, pa.int32()), pa.array(idx, pa.int64())
                ),
            }
        )

    # featurize ONCE; iterations re-read the materialized features
    feats = ds.map_batches(labeled, batch_format="pyarrow").materialize()
    n_rows = feats.count()

    w = np.zeros(dim, dtype=np.float64)
    losses: list[float] = []

    if n_rows <= driver_cap:
        # driver path: one pull, the same fixed-point math, no per-iteration jobs
        tbl = pa.concat_tables(list(feats.iter_batches(batch_format="pyarrow")))
        feat = tbl["feat"].combine_chunks()
        idx = feat.flatten().to_numpy(zero_copy_only=False)
        off = np.asarray(feat.offsets, dtype=np.int64)
        y = tbl["label"].to_numpy(zero_copy_only=False)
        for _ in range(iters):
            g, loss, n = _grad_fixed(w, idx, off, y)
            losses.append(loss / _SCALE / max(n, 1))
            w = w - lr * ((g / _SCALE) / max(n, 1) + l2 * w)
        return w, losses

    for _ in range(iters):
        w_ref = ray.put(w)

        def grad_update(st: GradientState, batch: pa.Table) -> None:
            feat = batch["feat"]
            feat = feat.combine_chunks() if isinstance(feat, pa.ChunkedArray) else feat
            g, loss, n = _grad_fixed(
                ray.get(w_ref),
                feat.flatten().to_numpy(zero_copy_only=False),
                np.asarray(feat.offsets, dtype=np.int64),
                batch["label"].to_numpy(zero_copy_only=False),
            )
            st.g += g
            st.loss += loss
            st.n += n

        st = sketch_dataset(feats, lambda: GradientState(dim), grad_update, GradientState)
        losses.append(st.loss / _SCALE / max(st.n, 1))
        w = w - lr * ((st.g / _SCALE) / max(st.n, 1) + l2 * w)
    return w, losses


def quality_scores(
    sf_dir: str,
    *,
    dim: int = 1 << 18,
    iters: int = 20,
    lr: float = 64.0,
    driver_cap: int = 1 << 20,
    table: str = "documents",
) -> ray.data.Dataset:
    """(doc_id, quality_prob) for every doc: train on the labeled slices,
    then one broadcast scoring pass over the full corpus."""
    w, _ = train_quality_classifier(
        sf_dir, dim=dim, iters=iters, lr=lr, driver_cap=driver_cap, table=table
    )
    w_ref = ray.put(w)
    ds = read_table(sf_dir, table, columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        wv: np.ndarray = ray.get(w_ref)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "quality_prob": pa.array(score_probs(wv, batch, dim=dim), pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def score_probs(w: np.ndarray, batch: pa.Table, *, dim: int = 1 << 18) -> np.ndarray:
    """Per-row quality probability under trained weights — the broadcastable
    scoring kernel (shared by quality_scores and the fused per-doc frame in
    pipelines/merged.doc_lang_fingerprints)."""
    idx, off = _featurize(batch, dim=dim)
    return 1.0 / (1.0 + np.exp(-_margins(w, idx, off)))
