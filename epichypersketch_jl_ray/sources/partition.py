"""Length-bucket partitioning (reference partition_by_length,
reference src/partition.jl:54-97).

In the reference, length partitioning is load-bearing: it bounds the padded
RefArray/C(max_len,k) memory blowup. Here enumeration is per-row, so the
bucket column is purely an optional layout/diagnostic tool — but the operator
is provided for parity, with the same semantics: buckets of ``width``
starting at the observed minimum length, empty buckets dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def add_length_bucket(ds: ray.data.Dataset, *, width: int = 10) -> ray.data.Dataset:
    """Append a ``len_bucket`` column: (len(features) - min_len) // width.

    One cheap pass computes the global min length (the reference's single
    min/max scan, /root/reference/src/partition.jl:60-66); the bucket id is
    then a vectorized per-batch expression.
    """
    if width < 1:
        raise ValueError("partition width must be >= 1")

    def with_len(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_len", pc.list_value_length(batch["features"]).cast(pa.int64())
        )

    with_lens = ds.map_batches(with_len, batch_format="pyarrow")
    min_len = int(with_lens.min("_len"))

    def bucketize(batch: pa.Table) -> pa.Table:
        lens = np.asarray(batch["_len"].to_numpy(zero_copy_only=False))
        bucket = (lens - min_len) // width
        return batch.drop_columns(["_len"]).append_column(
            "len_bucket", pa.array(bucket, pa.int64())
        )

    return with_lens.map_batches(bucketize, batch_format="pyarrow")


