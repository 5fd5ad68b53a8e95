"""Pruned parquet readers.

Reference has no file sources at all (in-memory dict only, SURVEY.md §2.1 S1);
here every table is opened as a ``ray.data.read_parquet`` Dataset with an
explicit column list so only needed columns leave storage — a hard
requirement at 100 TB. Such a Dataset is only a plan: a pipeline that maps it
runs Ray Data's read, but the hash exchange (``stages.exchange``) reads a
bare one itself, as runs of whole row groups (``parquet_source``,
``stages.udaf.input_units``).

The engine's own tasks hand tables on as Datasets built here without a
Ray Data task or executor run: ``dataset_of`` wraps block refs whose
metadata the producing task returned (``block_metadata``),
``table_dataset`` wraps one driver-side table, and ``leaf_refs`` reads the
refs of such a Dataset back from its plan.

This module is the only reader of Ray Data's private plan, datasource and
constructor attributes (Ray 2.49); when an upgrade moves them each helper
falls back to Ray Data's public path.
"""

from __future__ import annotations

import os

import ray.data


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    filter=None,
) -> ray.data.Dataset:
    """``filter`` is a pyarrow.dataset Expression pushed into the scan:
    parquet row-group statistics skip whole groups and the fragment reader
    drops non-matching rows before they ever enter the object store — the
    row-level counterpart of the column pruning. Callers keep their
    in-batch filter as documentation-of-predicate; after pushdown it
    removes nothing."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    if filter is not None:
        return ray.data.read_parquet(path, columns=columns, filter=filter)
    return ray.data.read_parquet(path, columns=columns)


def parquet_source(ds) -> tuple[list[str], list[str] | None] | None:
    """``(files, columns)`` when ``ds``'s whole logical plan is one Ray Data
    parquet read that a plain reader of the files can stand in for, else
    None: ``files`` in the read's order, ``columns`` its projection (None:
    every column). None too for a read with a row ``filter=``, hive
    partition columns, ``include_paths``, a ``schema=`` override or a block
    UDF, for files not on the local filesystem, for any operator after the
    read, for a materialized Dataset and for ``from_arrow``.

    When an upgrade moves Ray Data's private attributes this returns None
    and every caller falls back to the Dataset's blocks."""
    import pyarrow.fs
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data._internal.logical.operators.read_operator import Read

    try:
        op = ds._logical_plan.dag
        if not isinstance(op, Read) or not isinstance(op._datasource, ParquetDatasource):
            return None
        src = op._datasource
        files, columns, parts = list(src._pq_paths), src._data_columns, src._partition_columns
        plain = not (
            src._to_batches_kwargs
            or parts
            or src._include_paths
            or src._block_udf is not None
            or src._read_schema is not None
        ) and isinstance(src._filesystem, pyarrow.fs.LocalFileSystem)
    except AttributeError:
        return None
    # without a projection Ray adds a column per ``key=value`` directory
    hive = parts is None and any("=" in d for f in files for d in os.path.dirname(f).split(os.sep))
    if not plain or hive:
        return None
    return files, None if columns is None else list(columns)


def block_metadata(tbl):
    """The ``BlockMetadataWithSchema`` of one Arrow table, as
    ``ray.data.from_arrow_refs`` computes it in its metadata task
    (``get_table_block_metadata_schema``); computed where the table is made,
    so ``dataset_of`` needs no such task. None when Ray moved the helper."""
    try:
        from ray.data._internal.util import get_table_block_metadata_schema
    except ImportError:
        return None
    return get_table_block_metadata_schema(tbl)


def dataset_of(refs: list, metas: list) -> ray.data.Dataset:
    """``ray.data.from_arrow_refs(refs)`` without its one metadata task per
    ref: ``metas`` are the tables' ``block_metadata``, in ``refs`` order.
    One block per ref, in order; 0-row blocks keep their types. Falls back
    to ``from_arrow_refs`` when a meta is None or Ray moved the
    constructors."""
    if any(m is None for m in metas):
        return ray.data.from_arrow_refs(refs)
    try:
        from ray.data._internal.logical.interfaces import LogicalPlan
        from ray.data._internal.logical.operators.from_operators import FromArrow
        from ray.data._internal.plan import ExecutionPlan
        from ray.data._internal.stats import DatasetStats
        from ray.data.context import DataContext
        from ray.data.dataset import MaterializedDataset

        plan = ExecutionPlan(
            DatasetStats(metadata={"FromArrow": metas}, parent=None),
            DataContext.get_current().copy(),
        )
        return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas), plan._context))
    except (AttributeError, ImportError):
        return ray.data.from_arrow_refs(refs)


def table_dataset(tbl) -> ray.data.Dataset:
    """A one-block Dataset of a driver-side Arrow table (``dataset_of`` of
    its ``ray.put``), typed even with 0 rows: the engine's one way to wrap
    a table, where ``ray.data.from_arrow`` runs a metadata task."""
    return dataset_of([ray.put(tbl)], [block_metadata(tbl)])


def leaf_refs(ds) -> list | None:
    """The block refs, in order, of a Dataset whose whole logical plan is
    one in-memory leaf: a ``from_*`` source (``dataset_of``,
    ``from_arrow_refs``, ``from_arrow``, ``from_pandas``, …) or a
    materialized Dataset's input data. Read from the plan, so Ray Data's
    executor does not run. None for any other Dataset, and when Ray moved
    the plan attributes."""
    try:
        from ray.data._internal.logical.operators.from_operators import AbstractFrom
        from ray.data._internal.logical.operators.input_data_operator import InputData

        op = ds._logical_plan.dag
        if isinstance(op, AbstractFrom):
            bundles = op._input_data
        elif isinstance(op, InputData):
            bundles = op.input_data
        else:
            return None
        return [ref for bundle in bundles for ref in bundle.block_refs]
    except (AttributeError, ImportError):
        return None


def table_rows(sf_dir: str, name: str) -> int:
    """Row count from parquet FOOTERS only (no column data read) — the cheap
    pre-pass that sizes buckets/Blooms before a pipeline is built."""
    import glob

    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, f"{name}.parquet")
    if os.path.isdir(path):
        files = glob.glob(f"{path}/**/*.parquet", recursive=True)
    else:
        files = [path]
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)
