"""Derive activation tables (the reference's input model) from normalized rows.

The reference's only input is a materialized ``ActivationDict``: id → vector
of (feature, contribution[, position]) tuples (/root/reference/src/types.jl:4-11).
The Ray-native equivalent is a Dataset with one row per sequence:

    data_index:int64,
    features:list<struct<feature:int32, contribution:double[, position:int32]>>

Building it from a normalized table (one row per feature occurrence) needs a
group-by-key — the ONE unavoidable shuffle in the motif pipeline. It runs as
plain Ray tasks over block refs, with no Ray Data operator: one split task per
input block cuts the block into one slice per *bucket* of the key
(hash(key) % num_buckets), and one build task per bucket concatenates its
slices and does the real per-key grouping with numpy sort + run-length
offsets: ``num_buckets`` vectorized build calls instead of one Python call per
key (SURVEY.md §7.3 partitioning note; skew in key sizes is bounded because a
bucket holds many keys). A bucket that receives no row builds a 0-row block.

Per-sequence ordering invariants (reference sort_activation_dict!,
/root/reference/src/record.jl:237-242):
- ordinary: sort by (feature, contribution) — natural NamedTuple order;
- convolution: sort by position ascending (the conv hash relies on it).
Empty sequences never arise here (a key exists only if it has rows) —
the reference's filter_empty! (/root/reference/src/record.jl:248-252) becomes
a no-op guaranteed by construction; explicit empty-drop is in the webtext
derivation where empty docs are real.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data


def _build_sequences(
    batch: pa.Table,
    key_col: str,
    feature_col: str,
    contribution_col: str,
    position_col: str | None,
) -> pa.Table:
    keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    feats = batch[feature_col].to_numpy(zero_copy_only=False).astype(np.int32)
    contribs = batch[contribution_col].to_numpy(zero_copy_only=False).astype(np.float64)
    if position_col is not None:
        pos = batch[position_col].to_numpy(zero_copy_only=False).astype(np.int32)
        order = np.lexsort((pos, keys))  # by key, then position (conv invariant)
    else:
        order = np.lexsort((contribs, feats, keys))  # by key, then (feature, contribution)
    keys, feats, contribs = keys[order], feats[order], contribs[order]
    if position_col is not None:
        pos = pos[order]
    # run-length boundaries per key
    if len(keys) > np.iinfo(np.int32).max:
        # list<struct> offsets are int32: a bucket group beyond 2^31 feature
        # rows would overflow silently. Buckets hold many keys, so the fix
        # is more buckets, not bigger offsets.
        raise ValueError(
            f"bucket group holds {len(keys)} feature rows (> int32 offsets); "
            "increase activation_from_table(num_buckets=...) so each bucket "
            "stays under 2^31 rows"
        )
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    # no row, no sequence: offsets [0] (an empty batch has no first key)
    ends = [len(keys)] if len(keys) else []
    offsets = np.concatenate(([0], boundaries, ends)).astype(np.int32)
    uniq_keys = keys[offsets[:-1]]
    fields = [
        pa.field("feature", pa.int32()),
        pa.field("contribution", pa.float64()),
    ]
    arrays = [pa.array(feats, pa.int32()), pa.array(contribs, pa.float64())]
    if position_col is not None:
        fields.append(pa.field("position", pa.int32()))
        arrays.append(pa.array(pos, pa.int32()))
    struct = pa.StructArray.from_arrays(arrays, fields=fields)
    features = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    return pa.table({"data_index": pa.array(uniq_keys, pa.int64()), "features": features})


@ray.remote
def _split_block(block, key_col: str, cols: list[str], num_buckets: int):
    """One slice of ``block`` per bucket, ``hash(key) % num_buckets``: the
    block's rows stably sorted by bucket, cut at the bucket boundaries."""
    from ray.data.block import BlockAccessor

    from epichypersketch_jl_ray.functions.hashing import hash_int64

    tbl = BlockAccessor.for_block(block).to_arrow().select(cols)
    k = tbl[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    bucket = (hash_int64(k, seed=1) % np.uint64(num_buckets)).astype(np.int64)
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(num_buckets + 1))
    tbl = tbl.take(order)
    slices = [tbl.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return slices if num_buckets > 1 else slices[0]


@ray.remote
def _build_bucket(
    key_col: str,
    feature_col: str,
    contribution_col: str,
    position_col: str | None,
    *slices: pa.Table,
) -> pa.Table:
    """Activation block of one bucket from its slice of every input block."""
    return _build_sequences(
        pa.concat_tables(slices), key_col, feature_col, contribution_col, position_col
    )


def activation_from_table(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    feature_col: str,
    contribution_col: str,
    position_col: str | None = None,
    num_buckets: int | None = None,
    size_hint_rows: int | None = None,
) -> ray.data.Dataset:
    """Normalized rows -> activation dataset (one row per sequence).

    The bucket split is the pipeline's single all-to-all exchange; the
    bucket key is a splitmix of the sequence key so power-law keys spread
    evenly (north_rule skew requirement). ``num_buckets`` defaults to
    auto_bucket_count(size_hint_rows) so buckets scale with the input
    instead of growing to corpus/64; it is at least max(16, CPUs), so the
    activation has at least as many blocks as CPUs.

    The input's blocks stream in as they are produced
    (``iter_internal_ref_bundles``), so reading overlaps splitting: one
    ``_split_block`` task per block (``num_returns=num_buckets``), then one
    ``_build_bucket`` task per bucket. The result is materialized: one
    block per bucket, in bucket order, some of them possibly empty.
    """
    from epichypersketch_jl_ray.stages.join import auto_bucket_count

    if num_buckets is None:
        num_buckets = auto_bucket_count(size_hint_rows)

    cols = [key_col, feature_col, contribution_col] + (
        [position_col] if position_col else []
    )
    split = _split_block.options(num_returns=num_buckets)
    # per input block, its slice refs in bucket order
    splits = [
        split.remote(ref, key_col, cols, num_buckets)
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    if num_buckets == 1:  # num_returns=1 gives one ref, not a list
        splits = [[s] for s in splits]
    build_refs = [
        _build_bucket.remote(key_col, feature_col, contribution_col, position_col, *slices)
        for slices in zip(*splits)
    ]
    return ray.data.from_arrow_refs(build_refs)
