"""Deduplication stages: exact, MinHash-LSH, SimHash.

Training-data dedup operators (absent from the reference, SURVEY.md §2.7).
Partitioning strategy (documented per the north_rule):

- exact: hash-partition on content hash (the engine's hash exchange),
  keep min-id per group — one all-to-all, no driver loop.
- MinHash-LSH: signatures per doc (map_batches, stateless) → explode one row
  per (band_key, doc) → groupby(band_key) emits candidate pairs — the shuffle
  key is the band bucket, so co-occurrence is locality, not luck. Candidates
  are then EXACT-verified so banding can only lose pairs, never invent them;
  band parameters are chosen so P(miss | J >= tau) < 1e-7.
- SimHash: 64-bit fingerprint split into 4 16-bit chunks; pigeonhole
  guarantees any pair within hamming distance 3 shares >= 1 chunk, so a
  groupby on (chunk_idx, chunk_value) finds ALL such pairs exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from epichypersketch_jl_ray.functions.text import word_shingle_hashes
from epichypersketch_jl_ray.state.minhash import MinHasher, simhash64_batch


def content_key_table(
    batch: pa.Table, *, id_col: str = "doc_id", keep: tuple[str, ...] = ()
) -> pa.Table:
    """(h1, h2, id[, keep...]) keying table for exact dedup — the 128-bit
    vectorized content key (functions/hashing.content_hash128) as two int64
    columns. THE one definition: exact dedup and the curation chain must
    key identically. ``keep`` passes payload columns through (e.g. the text
    itself, so a downstream groupby can carry it without a re-join)."""
    from epichypersketch_jl_ray.functions.hashing import content_hash128

    h1, h2 = content_hash128(batch["text"])
    cols = {
        "h1": pa.array(h1.view(np.int64), pa.int64()),
        "h2": pa.array(h2.view(np.int64), pa.int64()),
        id_col: batch[id_col],
    }
    for c in keep:
        cols[c] = batch[c]
    return pa.table(cols)


class SignatureStage:
    """Doc text -> minhash signature + band keys (stateful: permutations
    built once, on the driver, and shipped in the task map's closure)."""

    def __init__(self, *, num_perms: int = 128, bands: int = 64, shingle_n: int = 3, seed: int = 99):
        self.mh = MinHasher(num_perms=num_perms, seed=seed)
        self.bands = bands
        self.shingle_n = shingle_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh, off = word_shingle_hashes(batch["text"], n=self.shingle_n)
        return self._emit(batch, sh, off)

    def from_shingle_table(self, batch: pa.Table) -> pa.Table:
        """Same banding from a precomputed (doc_id, shingles list) table —
        lets the pipeline hash shingles once and reuse them for both banding
        and exact verification."""
        arr = batch["shingles"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        sh = arr.flatten().to_numpy(zero_copy_only=False).view(np.uint64)
        off = np.concatenate(([0], np.cumsum(np.asarray(arr.value_lengths(), dtype=np.int64))))
        return self._emit(batch, sh, off)

    def _emit(self, batch: pa.Table, sh: np.ndarray, off: np.ndarray) -> pa.Table:
        sigs = self.mh.signatures(sh, off)
        keys = self.mh.band_keys(sigs, self.bands)  # (n, bands)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # explode: one row per (band, doc); band_bucket is the shuffle key —
        # many bands per bucket so the downstream grouping stays vectorized
        flat_keys = keys.ravel().view(np.int64)
        return pa.table(
            {
                "band_key": pa.array(flat_keys, pa.int64()),
                "band_bucket": pa.array(flat_keys % 64, pa.int64()),
                "doc_id": pa.array(np.repeat(doc_ids, self.bands), pa.int64()),
            }
        )


def candidate_pairs_from_band(batch: pa.Table) -> pa.Table:
    """All (a<b) doc pairs sharing a band bucket, for EVERY band in the
    batch at once — vectorized run-length grouping over (band_key, doc_id),
    so this runs per hash-BUCKET of band keys (a few dozen calls total)
    instead of once per band (thousands of tiny python calls)."""
    keys = batch["band_key"].to_numpy(zero_copy_only=False)
    docs = batch["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((docs, keys))
    keys, docs = keys[order], docs[order]
    # dedupe (band, doc)
    uniq = np.ones(len(keys), dtype=bool)
    uniq[1:] = (keys[1:] != keys[:-1]) | (docs[1:] != docs[:-1])
    keys, docs = keys[uniq], docs[uniq]
    boundaries = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1)) if len(keys) else np.empty(0, np.int64)
    sizes = np.diff(np.append(boundaries, len(keys)))
    out_a, out_b = [], []
    for start, size in zip(boundaries[sizes > 1], sizes[sizes > 1]):
        grp = docs[start : start + size]
        ii, jj = np.triu_indices(int(size), k=1)
        out_a.append(grp[ii])
        out_b.append(grp[jj])
    if not out_a:
        return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
        }
    )


def _hot_membership(
    flat: np.ndarray, hot_shingles: np.ndarray
) -> np.ndarray:
    """Boolean mask: which flat uint64 shingle hashes are in the broadcast
    sorted ``hot_shingles`` set (searchsorted membership, empty-safe)."""
    if len(hot_shingles) == 0 or len(flat) == 0:
        return np.zeros(len(flat), dtype=bool)
    pos = np.minimum(np.searchsorted(hot_shingles, flat), len(hot_shingles) - 1)
    return hot_shingles[pos] == flat


def cold_cooccurrence_rows(
    batch: pa.Table,
    *,
    hot_shingles: np.ndarray,
) -> pa.Table:
    """Explode each doc's COLD shingles (outside the broadcast hot-df set)
    to (shingle, doc_id, set_size) posting rows for the
    df-capped co-occurrence count. ``set_size`` stays the FULL distinct
    count (cold + hot) — Jaccard denominators use full set sizes.

    The hot/cold split is a pure COST knob: co-occurrence counting is exact
    for any globally-consistent partition of shingle keys; capping the df of
    exploded keys just bounds the per-posting pair fan-out (df^2/2) that a
    power-law-hot shingle would otherwise cause."""
    flat, lengths = _list_flat_lengths(batch["shingles"])
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    row_ids = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    keep = ~_hot_membership(flat, hot_shingles)
    sh = flat[keep].view(np.int64)
    rows = row_ids[keep]
    return pa.table(
        {
            "shingle": pa.array(sh, pa.int64()),
            "doc_id": pa.array(doc_ids[rows], pa.int64()),
            "set_size": pa.array(lengths[rows], pa.int64()),
        }
    )


def hot_sublist_rows(batch: pa.Table, *, hot_shingles: np.ndarray) -> pa.Table:
    """Per-doc HOT-shingle sublists: (doc_id, hot_shingles list<int64>
    sorted, h_count, set_size) for docs containing >= 1 hot shingle. The
    sublist is the doc's intersection with the broadcast hot set — bounded
    by |hot set| per doc, typically far smaller than the full shingle list,
    so attaching it to pairs is much cheaper than attaching full lists."""
    flat, lengths = _list_flat_lengths(batch["shingles"])
    n = len(batch)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), lengths)
    is_hot = _hot_membership(flat, hot_shingles)
    h = np.bincount(row_ids[is_hot], minlength=n).astype(np.int64)
    keep_docs = np.flatnonzero(h > 0)
    if len(keep_docs) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "hot_shingles": pa.array([], pa.list_(pa.int64())),
                "h_count": pa.array([], pa.int64()),
                "set_size": pa.array([], pa.int64()),
            }
        )
    # flat is row-contiguous, so masking preserves per-row grouping; sort
    # within each row for a canonical sublist
    vals = flat[is_hot].view(np.int64)
    vrows = row_ids[is_hot]
    order = np.lexsort((vals, vrows))
    vals = vals[order]
    offsets = np.concatenate(([0], np.cumsum(h[keep_docs])))
    lists = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()), pa.array(vals, pa.int64())
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[keep_docs], pa.int64()),
            "hot_shingles": lists,
            "h_count": pa.array(h[keep_docs], pa.int64()),
            "set_size": pa.array(lengths[keep_docs], pa.int64()),
        }
    )


def cooccurrence_pairs_in_bucket(batch: pa.Table, *, threshold: float) -> pa.Table:
    """Per shingle key in the bucket: emit every (a<b) doc pair sharing that
    key, apply the length filter (min >= ceil(t*max) — a failing pair cannot
    reach threshold t, and the predicate is per-pair deterministic so the
    pair is dropped at EVERY key or none), then pre-aggregate duplicate
    pairs within the bucket (one lexsort + run-length) so the exchange on
    (doc_a, doc_b) ships partial counts, not one row per shared shingle.

    Output: (doc_a, doc_b, size_a, size_b, n) with n = number of shared
    shingles of the pair within this bucket; summing n across buckets gives
    the pair's EXACT cold-intersection size."""
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "size_a": pa.array([], pa.int64()),
            "size_b": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    keys = batch["shingle"].to_numpy(zero_copy_only=False)
    docs = batch["doc_id"].to_numpy(zero_copy_only=False)
    sizes = batch["set_size"].to_numpy(zero_copy_only=False)
    if len(keys) == 0:
        return empty
    order = np.lexsort((docs, keys))
    keys, docs, sizes = keys[order], docs[order], sizes[order]
    boundaries = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    group_sizes = np.diff(np.append(boundaries, len(keys)))
    out_a, out_b, out_sa, out_sb = [], [], [], []
    for start, size in zip(boundaries[group_sizes > 1], group_sizes[group_sizes > 1]):
        grp_d = docs[start : start + size]
        grp_s = sizes[start : start + size]
        ii, jj = np.triu_indices(int(size), k=1)
        lo = np.minimum(grp_s[ii], grp_s[jj]).astype(np.float64)
        hi = np.maximum(grp_s[ii], grp_s[jj]).astype(np.float64)
        ok = lo >= np.ceil(threshold * hi - 1e-9)
        a, b = grp_d[ii][ok], grp_d[jj][ok]
        swap = a > b
        out_a.append(np.where(swap, b, a))
        out_b.append(np.where(swap, a, b))
        sa, sb = grp_s[ii][ok], grp_s[jj][ok]
        out_sa.append(np.where(swap, sb, sa))
        out_sb.append(np.where(swap, sa, sb))
    if not out_a:
        return empty
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    sa = np.concatenate(out_sa)
    sb = np.concatenate(out_sb)
    # pre-aggregate within the bucket: run-length over sorted (a, b)
    order = np.lexsort((b, a))
    a, b, sa, sb = a[order], b[order], sa[order], sb[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(a)))
    return pa.table(
        {
            "doc_a": pa.array(a[starts], pa.int64()),
            "doc_b": pa.array(b[starts], pa.int64()),
            "size_a": pa.array(sa[starts], pa.int64()),
            "size_b": pa.array(sb[starts], pa.int64()),
            "n": pa.array(counts, pa.int64()),
        }
    )


def merge_pair_counts(group: pa.Table) -> pa.Table:
    """Merge partial (doc_a, doc_b, size_a, size_b, n) rows within one
    bucket of the exchange on (doc_a, doc_b): sum n per pair (sizes are
    per-doc constants — take first). One lexsort + run-length, no per-pair
    Python — a groupby(doc_a, doc_b) sort-aggregate at ~1M tiny groups
    costs >10x the merge itself."""
    a = group["doc_a"].to_numpy(zero_copy_only=False)
    b = group["doc_b"].to_numpy(zero_copy_only=False)
    sa = group["size_a"].to_numpy(zero_copy_only=False)
    sb = group["size_b"].to_numpy(zero_copy_only=False)
    n = group["n"].to_numpy(zero_copy_only=False)
    if len(a) == 0:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "size_a": pa.array([], pa.int64()),
                "size_b": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
    order = np.lexsort((b, a))
    a, b, sa, sb, n = a[order], b[order], sa[order], sb[order], n[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    seg = np.cumsum(first) - 1
    total = np.bincount(seg, weights=n).astype(np.int64)
    starts = np.flatnonzero(first)
    return pa.table(
        {
            "doc_a": pa.array(a[starts], pa.int64()),
            "doc_b": pa.array(b[starts], pa.int64()),
            "size_a": pa.array(sa[starts], pa.int64()),
            "size_b": pa.array(sb[starts], pa.int64()),
            "n": pa.array(total, pa.int64()),
        }
    )


def list_intersection_counts(
    batch: pa.Table, col_a: str, col_b: str
) -> np.ndarray:
    """Per-row intersection size of two list<int64> columns whose values are
    distinct within each list (same lexsort-duplicate trick as
    jaccard_verify_batch, without the Jaccard). Null lists count as empty."""
    n = len(batch)
    fa, la = _list_flat_lengths_nullsafe(batch[col_a])
    fb, lb = _list_flat_lengths_nullsafe(batch[col_b])
    idx = np.concatenate(
        [np.repeat(np.arange(n, dtype=np.int64), la), np.repeat(np.arange(n, dtype=np.int64), lb)]
    )
    val = np.concatenate([fa, fb])
    order = np.lexsort((val, idx))
    idx, val = idx[order], val[order]
    dup = np.zeros(len(idx), dtype=bool)
    dup[1:] = (idx[1:] == idx[:-1]) & (val[1:] == val[:-1])
    return np.bincount(idx[dup], minlength=n).astype(np.int64)


def _list_flat_lengths_nullsafe(
    arr: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray]:
    """_list_flat_lengths tolerating null list rows (treated as empty):
    flatten() already skips nulls; value_lengths() yields null -> 0."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).view(np.uint64)
    lengths = np.asarray(arr.value_lengths().fill_null(0), dtype=np.int64)
    return flat, lengths


def _list_flat_lengths(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(flat values, per-row lengths) from a list<int64> column — via
    flatten()/value_lengths(), which honour a sliced array's offset (a raw
    buffer read would not)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).view(np.uint64)
    lengths = np.asarray(arr.value_lengths(), dtype=np.int64)
    return flat, lengths


def jaccard_verify_batch(batch: pa.Table) -> pa.Table:
    """Vectorized exact Jaccard for a batch of candidate pairs carrying both
    sides' distinct shingle lists (columns doc_a, doc_b, shingles_a,
    shingles_b — produced by joining the candidate pairs back against the
    shingle table, so verification is distributed instead of a driver loop).

    Per-pair intersection counts come from one lexsort over (pair_idx, hash)
    of both lists concatenated: values within a row are distinct per side,
    so a value appearing twice for the same pair index is exactly one
    intersection element.
    """
    n = len(batch)
    fa, la = _list_flat_lengths(batch["shingles_a"])
    fb, lb = _list_flat_lengths(batch["shingles_b"])
    idx = np.concatenate(
        [np.repeat(np.arange(n, dtype=np.int64), la), np.repeat(np.arange(n, dtype=np.int64), lb)]
    )
    val = np.concatenate([fa, fb])
    order = np.lexsort((val, idx))
    idx, val = idx[order], val[order]
    dup = np.zeros(len(idx), dtype=bool)
    dup[1:] = (idx[1:] == idx[:-1]) & (val[1:] == val[:-1])
    inter = np.bincount(idx[dup], minlength=n).astype(np.int64)
    union = la + lb - inter
    jac = np.divide(inter, union, out=np.zeros(n, dtype=np.float64), where=union > 0)
    return pa.table(
        {
            "doc_a": batch["doc_a"].cast(pa.int64()),
            "doc_b": batch["doc_b"].cast(pa.int64()),
            "jaccard": pa.array(jac, pa.float64()),
        }
    )


def attach_list_column(
    pairs: "ray.data.Dataset",
    key_col: str,
    lists: "ray.data.Dataset",
    list_key: str,
    list_col: str,
    out_col: str,
    *,
    dedupe_on: list[str] | None = None,
) -> "ray.data.Dataset":
    """Distributed equi-join that carries a list<int64> payload: attach
    ``lists[list_col]`` to every pair row whose ``key_col`` matches
    ``list_key``.

    An Arrow (acero) hash join, as ``bucketed_hash_join`` runs, rejects
    list payload columns ("Data type list<...> is not supported in join
    non-key field"), so both sides go through the hash exchange
    (stages/exchange) on their key, and one task per bucket matches its
    pair rows to its list rows with a vectorized searchsorted + arrow take. A
    bucket holds many keys; ``udaf.cpu_units(pairs.count())`` buckets, so
    pass a materialized ``pairs``.

    ``dedupe_on``: drop duplicate pair rows (same values in these columns)
    inside each bucket — valid because rows agreeing on ``key_col``
    co-locate by construction, so all duplicates of a pair land in one
    bucket. This fuses the pair-dedupe into the attach exchange instead
    of paying a dedicated distinct stage.
    """
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units

    def attach(prs: pa.Table, lst: pa.Table) -> pa.Table:
        side_keys = lst[list_key].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(side_keys, kind="stable")
        side_keys = side_keys[order]
        if dedupe_on and prs.num_rows:
            cols = [prs[c].to_numpy(zero_copy_only=False) for c in dedupe_on]
            dorder = np.lexsort(cols[::-1])
            dup = np.ones(len(dorder), dtype=bool)
            dup[0] = False
            for c in cols:
                cs = c[dorder]
                dup[1:] &= cs[1:] == cs[:-1]
            prs = prs.take(pa.array(dorder[~dup], pa.int64()))
        want = prs[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        loc = np.minimum(np.searchsorted(side_keys, want), max(len(side_keys) - 1, 0))
        found = (side_keys[loc] == want) if len(side_keys) else np.zeros(len(want), bool)
        attached = lst[list_col].take(pa.array(order[loc[found]], pa.int64()))
        return prs.filter(pa.array(found)).append_column(out_col, attached)

    buckets = cpu_units(pairs.count())
    return map_buckets(
        attach,
        hash_partition(block_refs(pairs), [key_col], buckets),
        hash_partition(block_refs(lists), [list_key], buckets, [list_key, list_col]),
    )


def simhash_signature_table(batch: pa.Table) -> pa.Table:
    """doc text -> (doc_id, simhash) — the per-doc 64-bit signature as a
    signed int64 bit pattern (zero-copy reinterpret, parquet-storable; the
    stored table is what dedup_simhash's bit-count SQL oracle joins over)."""
    from epichypersketch_jl_ray.functions.text import token_hashes

    flat, off = token_hashes(batch["text"])
    sh = simhash64_batch(flat, off)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "simhash": pa.array(sh.view(np.int64), pa.int64()),
        }
    )


def simhash_chunks_from_signatures(batch: pa.Table) -> pa.Table:
    """(doc_id, simhash) -> 4 chunk rows per doc for pigeonhole banding."""
    sh = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    chunks = np.empty((len(sh), 4), dtype=np.int64)
    for c in range(4):
        chunks[:, c] = ((sh >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
    flat_chunks = (chunks + (np.arange(4, dtype=np.int64) * 65536)[None, :]).ravel()
    return pa.table(
        {
            "chunk_key": pa.array(flat_chunks, pa.int64()),
            "chunk_bucket": pa.array(flat_chunks % 64, pa.int64()),
            "doc_id": pa.array(np.repeat(doc_ids, 4), pa.int64()),
            "simhash": pa.array(np.repeat(sh.view(np.int64), 4), pa.int64()),
        }
    )


def simhash_candidates_from_chunk(batch: pa.Table) -> pa.Table:
    """Candidate pairs for EVERY chunk key in the batch (vectorized
    run-length grouping, same shape as candidate_pairs_from_band)."""
    keys = batch["chunk_key"].to_numpy(zero_copy_only=False)
    docs = batch["doc_id"].to_numpy(zero_copy_only=False)
    sh = batch["simhash"].to_numpy(zero_copy_only=False)
    order = np.lexsort((docs, keys))
    keys, docs, sh = keys[order], docs[order], sh[order]
    uniq = np.ones(len(keys), dtype=bool)
    uniq[1:] = (keys[1:] != keys[:-1]) | (docs[1:] != docs[:-1])
    keys, docs, sh = keys[uniq], docs[uniq], sh[uniq]
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "sim_a": pa.array([], pa.int64()),
            "sim_b": pa.array([], pa.int64()),
            "position": pa.array([], pa.int64()),
        }
    )
    if len(keys) == 0:
        return empty
    boundaries = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    sizes = np.diff(np.append(boundaries, len(keys)))
    a, b, sa, sb, pos = [], [], [], [], []
    for start, size in zip(boundaries[sizes > 1], sizes[sizes > 1]):
        grp_d = docs[start : start + size]
        grp_s = sh[start : start + size]
        ii, jj = np.triu_indices(int(size), k=1)
        a.append(grp_d[ii])
        b.append(grp_d[jj])
        sa.append(grp_s[ii])
        sb.append(grp_s[jj])
        # chunk position this pair was found under (chunk_key layout:
        # value + position * 65536) — lets the caller keep each pair only at
        # its SMALLEST matching position, making emissions globally unique
        # without a dedupe shuffle
        pos.append(np.full(len(ii), keys[start] >> 16, dtype=np.int64))
    if not a:
        return empty
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(a), pa.int64()),
            "doc_b": pa.array(np.concatenate(b), pa.int64()),
            "sim_a": pa.array(np.concatenate(sa), pa.int64()),
            "sim_b": pa.array(np.concatenate(sb), pa.int64()),
            "position": pa.array(np.concatenate(pos), pa.int64()),
        }
    )
