"""Derive activation tables (the reference's input model) from normalized rows.

The reference's only input is a materialized ``ActivationDict``: id → vector
of (feature, contribution[, position]) tuples (/root/reference/src/types.jl:4-11).
The Ray-native equivalent is a Dataset with one row per sequence:

    data_index:int64,
    features:list<struct<feature:int32, contribution:double[, position:int32]>>

Building it from a normalized table (one row per feature occurrence) needs a
group-by-key — the ONE unavoidable shuffle in the motif pipeline. It runs on
the engine's hash exchange (stages/exchange), plain Ray tasks with no Ray
Data operator: one split task per input unit (a run of whole parquet row
groups that the task reads itself, or a block of a computed Dataset) cuts
the unit into one slice per *bucket* of the key (hash(key) % num_buckets),
and one build task per bucket concatenates its slices and does the real
per-key grouping with numpy sort + run-length offsets: ``num_buckets``
vectorized build calls instead of one Python call per key (SURVEY.md §7.3
partitioning note; skew in key sizes is bounded because a bucket holds many
keys). A bucket that receives no row builds a 0-row block.

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

import functools

import numpy as np
import pyarrow as pa

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
            "the bucket count follows activation_from_table(size_hint_rows=...): "
            "pass the input's row count so each bucket stays under 2^31 rows"
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


def activation_from_table(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    feature_col: str,
    contribution_col: str,
    position_col: str | None = None,
    size_hint_rows: int | None = None,
) -> ray.data.Dataset:
    """Normalized rows -> activation dataset (one row per sequence).

    The bucket split is the pipeline's single all-to-all exchange; the
    bucket key is a splitmix of the sequence key so power-law keys spread
    evenly (north_rule skew requirement). The bucket count is
    ``udaf.cpu_units(size_hint_rows)``: the smallest multiple of the
    cluster's CPU count that is at least ``ceil(size_hint_rows / 2**16)``,
    so buckets scale with the input, and every round of one task per
    activation block (the motif count and select) fills the CPUs evenly.

    ``exchange.hash_partition`` of ``udaf.input_units(ds)`` on the key:
    a bare parquet read (``sources.tables.parquet_source``) is cut into
    runs of whole row groups, each read and split by one task, with no Ray
    Data read; any other Dataset's blocks are split as they stream in. Then
    one ``exchange.map_buckets`` task per bucket runs ``_build_sequences``.
    The result is materialized: one block per bucket, in bucket order, some
    of them possibly empty.
    """
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import cpu_units, input_units

    cols = [key_col, feature_col, contribution_col] + (
        [position_col] if position_col else []
    )
    parts = hash_partition(input_units(ds), [key_col], cpu_units(size_hint_rows), cols)
    build = functools.partial(
        _build_sequences,
        key_col=key_col,
        feature_col=feature_col,
        contribution_col=contribution_col,
        position_col=position_col,
    )
    return map_buckets(build, parts)
