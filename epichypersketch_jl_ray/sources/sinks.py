"""Output sinks.

The reference assembles its result as one driver-memory DataFrame
(SURVEY.md §2.1 S2, /root/reference/src/count_cpu_extract.jl:3-37). At scale
the sink is partitioned Parquet: a directory of part files so downstream
reads parallelize and a failed writer can be rerun per-partition — never one
giant file (resumable-output requirement)."""

from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile

import ray.data


@functools.lru_cache(maxsize=1)
def _store_root() -> str:
    root = tempfile.mkdtemp(prefix="ehs_")
    atexit.register(shutil.rmtree, root, True)
    return root


def store_dir(name: str) -> str:
    """``<root>/<name>``: the directory of one stored-state oracle store
    (candidate streams, signatures, assignments, centroids). ``<root>`` is
    one private ``tempfile.mkdtemp`` directory per driver process, made on
    first use and removed at exit, so concurrent runs never share or
    clobber a store. Call it on the driver only and pass the path on: a
    worker process would get a root of its own. The pipeline and its SQL
    oracle run in the same driver process, so both name the same path."""
    return os.path.join(_store_root(), name)


def write_partitioned(ds: ray.data.Dataset, out_dir: str) -> str:
    """Write a Dataset as a directory of parquet part files."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir)
    return out_dir


def overwrite_store(
    ds: ray.data.Dataset,
    store: str,
    *,
    columns: list[str] | None = None,
    materialize: bool = True,
) -> ray.data.Dataset:
    """REPLACE the parquet store at ``store`` (a ``store_dir``) with
    (optionally a column subset of) ``ds`` — the stored-state oracle
    pattern: a SQL twin re-reads the exact state the pipeline used.

    ``materialize=True`` (default) pins one execution in the object store
    so the store write and the caller's downstream stages share it — use
    whenever the dataset fits the cluster's aggregate store. Pass False on
    the corpus-scale streaming path: the write streams through without
    pinning, and the caller's downstream stages re-execute the (then
    necessarily deterministic) producing stages — two executions of a pure
    function of broadcast state, not two sources of truth."""
    if materialize:
        ds = ds.materialize()
    shutil.rmtree(store, ignore_errors=True)
    out = ds.select_columns(columns) if columns else ds
    out.write_parquet(store)
    return ds
