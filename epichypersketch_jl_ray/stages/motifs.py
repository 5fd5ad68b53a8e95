"""Motif (k-combination) enumeration, counting, selection and extraction —
the reference's three-pass core (SURVEY.md §2.3 C1-C6) re-expressed as two
passes over Arrow batches, each one Ray task per activation block
(pipelines/motifs.motif_pipeline):

  pass 1  MotifCells per batch → the raw CMS cell ids of its combinations,
          cut into flat-id ranges in one count task per block; one task
          per range sorts it once and keeps the cells >= min_count
          (udaf.count_at_least)   (reference count!/count_cpu!,
          /root/reference/src/count_cpu.jl:76-144)
  pass 2  one select task per block gets those ranges' refs and builds the
          merged CMS's cells >= min_count (its at_least view) itself
          (udaf.select_blocks); MotifSelector
          per batch fuses selection + extraction (reference make_selection_cpu! +
          _obtain_enriched_configurations_cpu_, /root/reference/src/count_cpu.jl:149-293
          — fused because both read the same enumeration; the reference splits
          them only for kernel-structure reasons, SURVEY.md §2.3 C6)

Deliberate semantic resolutions of reference divergences (SURVEY.md §7.4):
- conv gap  = pos2 - pos1 - filter_len, combos with any gap < 0 rejected
  (CPU semantics, /root/reference/src/count_cpu.jl:47-53; the GPU kernel
  assumes filter_len=0, /root/reference/src/count_gpu.jl:51-53);
- selection estimate = min over ALL sketch rows (GPU semantics,
  /root/reference/src/count_gpu.jl:139-155), not the CPU row-1 shortcut;
- output column ``data_index`` (CPU name) and an explicit ``estimate``
  column (the ``count`` column the reference README promises but never emits).

Enumeration is per-row from the row's ACTUAL length — the reference's
zero-padding, validity masks (/root/reference/src/count_cpu.jl:9-21) and
global max_active_len machinery all vanish (SURVEY.md §2.2 M4/C2). Rows
longer than ``max_active_len`` are truncated (C(len,k) blowup guard,
/root/reference/src/memory.jl) and the truncation count is surfaced.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np
import pyarrow as pa

from epichypersketch_jl_ray.state.countmin import CountMin


@lru_cache(maxsize=512)
def comb_table(length: int, k: int) -> np.ndarray:
    """(C(length,k), k) int32 slot-index combinations, cached per worker
    (reference generate_combinations, /root/reference/src/record.jl:196-205,
    shared per Record; here cached per (length, k) since enumeration is
    per-row-length)."""
    return np.array(list(combinations(range(length), k)), dtype=np.int32).reshape(-1, k)


def _flatten_features(batch: pa.Table, conv: bool):
    """Zero-copy-ish extraction of the list<struct> activation column."""
    arr = batch["features"]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten()
    lengths = np.asarray(arr.value_lengths(), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    feats = flat.field("feature").to_numpy(zero_copy_only=False).astype(np.int64)
    contribs = flat.field("contribution").to_numpy(zero_copy_only=False).astype(np.float64)
    pos = (
        flat.field("position").to_numpy(zero_copy_only=False).astype(np.int64)
        if conv
        else None
    )
    data_index = batch["data_index"].to_numpy(zero_copy_only=False).astype(np.int64)
    return data_index, feats, contribs, pos, offsets, lengths


def enumerate_batch(
    batch: pa.Table,
    k: int,
    *,
    conv: bool = False,
    filter_len: int = 0,
    max_active_len: int = 64,
):
    """Enumerate every valid k-combination of every row in the batch.

    Returns a dict of flat arrays over all combinations:
      hash_mat  (N, k) ordinary | (N, 2k-1) conv — CMS hash input
      feat_mat  (N, k) feature ids
      row_ids   (N,)   row index into the batch
      contrib   (N,)   per-combination contribution sum
      dists     (N, k-1) conv only   start/end (N,) conv only
      truncated int — rows clipped to max_active_len
    Invalid conv combinations (any gap < 0, i.e. overlapping filters,
    /root/reference/src/count_cpu.jl:47-53) are dropped here — the analogue of
    the kernels' early-return.
    """
    data_index, feats, contribs, pos, offsets, lengths = _flatten_features(batch, conv)
    clipped = np.minimum(lengths, max_active_len)
    truncated = int((lengths > max_active_len).sum())

    hash_parts, feat_parts, row_parts, contrib_parts = [], [], [], []
    dist_parts, start_parts, end_parts = [], [], []

    for length in np.unique(clipped):
        length = int(length)
        if length < k:
            continue
        rows = np.flatnonzero(clipped == length)
        combs = comb_table(length, k)  # (nc, k)
        # gather the first `length` slots of each selected row
        slot_idx = offsets[rows][:, None] + np.arange(length)[None, :]  # (nr, length)
        f = feats[slot_idx]  # (nr, length)
        c = contribs[slot_idx]
        fc = f[:, combs]  # (nr, nc, k)
        cc = c[:, combs].sum(axis=2)  # (nr, nc)
        nr, nc = fc.shape[0], fc.shape[1]
        if conv:
            p = pos[slot_idx]  # (nr, length)
            pc_ = p[:, combs]  # (nr, nc, k)
            gaps = pc_[:, :, 1:] - pc_[:, :, :-1] - filter_len  # (nr, nc, k-1)
            valid = (gaps >= 0).all(axis=2)  # (nr, nc)
            # interleave features and gaps: [f1, g1, f2, g2, ..., fk]
            # (coefficient layout /root/reference/src/count_cpu.jl:37-56)
            hm = np.empty((nr, nc, 2 * k - 1), dtype=np.int64)
            hm[:, :, 0::2] = fc
            hm[:, :, 1::2] = gaps
            vmask = valid.ravel()
            hash_parts.append(hm.reshape(-1, 2 * k - 1)[vmask])
            feat_parts.append(fc.reshape(-1, k)[vmask])
            contrib_parts.append(cc.ravel()[vmask])
            row_parts.append(np.repeat(rows, nc)[vmask])
            dist_parts.append(gaps.reshape(-1, k - 1)[vmask])
            start_parts.append(pc_[:, :, 0].ravel()[vmask])
            # end = last_pos + filter_len - 1 (/root/reference/src/count_cpu.jl:260-261)
            end_parts.append((pc_[:, :, -1].ravel() + filter_len - 1)[vmask])
        else:
            hash_parts.append(fc.reshape(-1, k))
            feat_parts.append(fc.reshape(-1, k))
            contrib_parts.append(cc.ravel())
            row_parts.append(np.repeat(rows, nc))

    width = 2 * k - 1 if conv else k
    out = {
        "hash_mat": np.concatenate(hash_parts) if hash_parts else np.empty((0, width), np.int64),
        "feat_mat": np.concatenate(feat_parts) if feat_parts else np.empty((0, k), np.int64),
        "row_ids": np.concatenate(row_parts) if row_parts else np.empty(0, np.int64),
        "contrib": np.concatenate(contrib_parts) if contrib_parts else np.empty(0, np.float64),
        "data_index": data_index,
        "truncated": truncated,
    }
    if conv:
        out["dists"] = (
            np.concatenate(dist_parts) if dist_parts else np.empty((0, k - 1), np.int64)
        )
        out["start"] = np.concatenate(start_parts) if start_parts else np.empty(0, np.int64)
        out["end"] = np.concatenate(end_parts) if end_parts else np.empty(0, np.int64)
    return out


class MotifCells:
    """Pass-1 count of one block's batches, for ``udaf.count_at_least``:
    enumerate each batch, then the raw CountMin cell ids of every valid
    combination (``CountMin.cells`` of its hash input), unsorted and
    unweighted, one part per batch, with the inserts they count and the
    rows truncated to ``max_active_len`` (surfaced in a warning: truncation
    is never silent, SURVEY.md §7.4). ``cms`` gives the geometry and hash
    coefficients; it is not counted into. The comb_table cache is
    module-level (lru_cache) so it persists per worker process across
    batches (reference Record combs, reference src/record.jl:13-106)."""

    def __init__(
        self,
        cms: CountMin,
        *,
        motif_size: int,
        conv: bool = False,
        filter_len: int = 0,
        max_active_len: int = 64,
    ) -> None:
        self.cms = cms
        self.k = motif_size
        self.conv = conv
        self.filter_len = filter_len
        self.max_active_len = max_active_len

    def __call__(self, batches: list[pa.Table]) -> tuple[list, int, int]:
        parts, n_inserts, truncated = [], 0, 0
        for batch in batches:
            enum = enumerate_batch(
                batch,
                self.k,
                conv=self.conv,
                filter_len=self.filter_len,
                max_active_len=self.max_active_len,
            )
            parts.append((self.cms.cells(enum["hash_mat"]), None))
            n_inserts += len(enum["hash_mat"])
            truncated += enum["truncated"]
        return parts, n_inserts, truncated


class MotifSelector:
    """Pass-2: re-enumerate, query the broadcast CMS, emit one output row
    per (selected combination, sequence).

    ``cms`` is the merged sketch's ``at_least(min_count)`` view (the
    select task of ``stages.udaf.select_blocks`` builds it from the range
    sums it gets as resolved task arguments): its estimates pass and fail
    exactly where the merged sketch's do, with the same values, and it
    holds only the cells that can pass — on motifs_k3 176 of 801,137 — so a
    worker decodes and searches a few KB, not the sketch.
    """

    def __init__(
        self,
        cms: CountMin,
        *,
        motif_size: int,
        min_count: int,
        conv: bool = False,
        filter_len: int = 0,
        max_active_len: int = 64,
    ) -> None:
        self.cms = cms
        self.k = motif_size
        self.min_count = min_count
        self.conv = conv
        self.filter_len = filter_len
        self.max_active_len = max_active_len

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = self.k
        enum = enumerate_batch(
            batch,
            k,
            conv=self.conv,
            filter_len=self.filter_len,
            max_active_len=self.max_active_len,
        )
        est = self.cms.estimate_at_least(enum["hash_mat"], self.min_count)
        sel = est >= self.min_count
        cols: dict[str, pa.Array] = {}
        fm = enum["feat_mat"][sel]
        for i in range(k):
            cols[f"m{i+1}"] = pa.array(fm[:, i].astype(np.int32), pa.int32())
        if self.conv:
            dm = enum["dists"][sel]
            for i in range(k - 1):
                cols[f"d{i+1}{i+2}"] = pa.array(dm[:, i].astype(np.int32), pa.int32())
            cols["start"] = pa.array(enum["start"][sel].astype(np.int32), pa.int32())
            cols["end"] = pa.array(enum["end"][sel].astype(np.int32), pa.int32())
        cols["data_index"] = pa.array(enum["data_index"][enum["row_ids"][sel]], pa.int64())
        cols["contribution"] = pa.array(enum["contrib"][sel], pa.float64())
        cols["estimate"] = pa.array(est[sel], pa.int64())
        return pa.table(cols)
