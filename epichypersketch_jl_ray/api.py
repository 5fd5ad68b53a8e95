"""Top-level API mirroring the reference's entry points so a user of
EpicHyperSketch.jl can switch directly:

  obtain_enriched_configurations(activation, motif_size=3, min_count=5, ...)
    ≙ /root/reference/src/count_gpu_extract.jl:203-250 (GPU path) and
      /root/reference/src/count_cpu_extract.jl:143-189 (CPU path)
  obtain_enriched_configurations_partitioned(...)
    ≙ /root/reference/src/partition.jl:253-345 — except the merge barrier
      runs globally BEFORE selection, which fixes the reference's
      order-dependent per-partition selection (SURVEY.md §2.4 A2) and is
      exactly its recommended min_count=1-then-filter workflow.

Accepted activation inputs:
- a dict {int id: list[(feature, contribution)]} or
  {int id: list[(filter, contribution, position)]} — the reference's
  ActivationDict (/root/reference/src/types.jl:4-11);
- a pyarrow Table / pandas DataFrame with columns (data_index, features);
- a ray.data.Dataset of the same schema.

The case (ordinary vs convolution) is inferred from the feature arity,
mirroring the reference's NamedTuple-field sniffing
(/root/reference/src/record.jl:215-231). Output is a pandas DataFrame with
the reference's columns — ordinary: m1..mk, data_index, contribution;
convolution adds d12.., start, end — plus an explicit ``estimate`` column
(the CMS count the reference's README promises but never emits,
SURVEY.md §3.2).
"""

from __future__ import annotations

from typing import Any

import pandas as pd
import pyarrow as pa

from epichypersketch_jl_ray.config import SketchConfig
from epichypersketch_jl_ray.errors import SchemaError


def _dict_case(value) -> bool:
    """True if convolution (3-tuples). Reference dict_case,
    /root/reference/src/record.jl:215-231."""
    first = value[0]
    if hasattr(first, "_fields"):  # namedtuple
        fields = first._fields
        if fields == ("feature", "contribution"):
            return False
        if fields == ("filter", "contribution", "position"):
            return True
        raise SchemaError(f"unrecognized feature fields {fields}")
    n = len(first)
    if n == 2:
        return False
    if n == 3:
        return True
    raise SchemaError(f"feature tuples must have arity 2 or 3, got {n}")


def activation_table_from_dict(activation: dict) -> tuple[pa.Table, bool]:
    """ActivationDict -> (arrow activation table, conv flag).

    Empty sequences are dropped (reference filter_empty!,
    /root/reference/src/record.jl:248-252); per-sequence sort happens in the
    enumeration stage's input build.
    """
    if not activation:
        raise SchemaError("activation dict is empty")
    items = [(k, v) for k, v in activation.items() if len(v) > 0]
    if not items:
        raise SchemaError("all sequences are empty")
    conv = _dict_case(items[0][1])
    ids, feats, contribs, poss, offsets = [], [], [], [], [0]
    for k, v in items:
        # per-sequence sort invariant (reference sort_activation_dict!,
        # /root/reference/src/record.jl:237-242)
        v = sorted(v, key=(lambda t: t[2]) if conv else (lambda t: (t[0], t[1])))
        ids.append(int(k))
        for t in v:
            feats.append(int(t[0]))
            contribs.append(float(t[1]))
            if conv:
                poss.append(int(t[2]))
        offsets.append(len(feats))
    fields = [pa.field("feature", pa.int32()), pa.field("contribution", pa.float64())]
    arrays = [pa.array(feats, pa.int32()), pa.array(contribs, pa.float64())]
    if conv:
        fields.append(pa.field("position", pa.int32()))
        arrays.append(pa.array(poss, pa.int32()))
    struct = pa.StructArray.from_arrays(arrays, fields=fields)
    features = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    tbl = pa.table({"data_index": pa.array(ids, pa.int64()), "features": features})
    return tbl, conv


def _as_dataset(activation: Any) -> tuple["ray.data.Dataset", bool]:
    import ray.data

    from epichypersketch_jl_ray.sources.tables import table_dataset

    if isinstance(activation, dict):
        tbl, conv = activation_table_from_dict(activation)
        return table_dataset(tbl), conv
    if isinstance(activation, pd.DataFrame):
        activation = pa.Table.from_pandas(activation, preserve_index=False)
    if isinstance(activation, pa.Table):
        ds = table_dataset(activation)
    elif isinstance(activation, ray.data.Dataset):
        ds = activation
    else:
        raise SchemaError(f"unsupported activation input type {type(activation)}")
    schema = ds.schema()
    if "features" not in schema.names or "data_index" not in schema.names:
        raise SchemaError("activation dataset needs (data_index, features) columns")
    ftype = schema.base_schema.field("features").type
    names = [f.name for f in ftype.value_type]
    conv = "position" in names
    return ds, conv


def obtain_enriched_configurations(
    activation: Any,
    *,
    motif_size: int = 3,
    min_count: int = 2,
    filter_len: int | None = None,
    config: SketchConfig | None = None,
) -> pd.DataFrame:
    """Find every k-combination ("motif") whose CMS-estimated global count is
    >= min_count; one output row per (combination, sequence) occurrence.

    Reference semantics notes (SURVEY.md §7.4): conv gap
    d = pos2 - pos1 - filter_len with overlap rejection (CPU definition);
    selection by min-over-rows estimates (GPU definition); column name
    ``data_index`` (CPU name).
    """
    from epichypersketch_jl_ray.pipelines.motifs import motif_pipeline

    cfg = config or SketchConfig()
    if motif_size < 1:
        raise ValueError("motif_size must be a positive integer")
    ds, conv = _as_dataset(activation)
    if conv and filter_len is None:
        raise ValueError("convolution case requires filter_len")
    out = motif_pipeline(
        ds,
        motif_size=motif_size,
        min_count=min_count,
        conv=conv,
        filter_len=filter_len or 0,
        delta=cfg.delta,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
        max_active_len=cfg.max_active_len,
        batch_size=cfg.batch_size,
    )
    return out.to_pandas()


def obtain_enriched_configurations_partitioned(
    activation: Any,
    *,
    motif_size: int = 3,
    min_count: int = 2,
    filter_len: int | None = None,
    partition_width: int = 10,
    config: SketchConfig | None = None,
) -> pd.DataFrame:
    """Length-partitioned variant (reference partition.jl:253-345).

    In this engine length partitioning is a *memory shaping* choice, not a
    correctness mechanism: per-row enumeration removed the padding that made
    it necessary (SURVEY.md §2.8 P1), and the global merge barrier makes
    results independent of partition order — so this runs the same pipeline
    after bucketing rows by length, and asserts nothing changes.
    """
    from epichypersketch_jl_ray.sources.partition import add_length_bucket

    ds, conv = _as_dataset(activation)
    ds = add_length_bucket(ds, width=partition_width)
    return obtain_enriched_configurations(
        ds.drop_columns(["len_bucket"]),
        motif_size=motif_size,
        min_count=min_count,
        filter_len=filter_len,
        config=config,
    )
