"""Checkpoint / resume / lineage for sketch builds (north_rule requirement;
absent from the reference, SURVEY.md §4 checkpoint row).

The unit of work is the direct build's (``pipelines.webpages.build_web_sketches``):
the sorted files' global row range ``[0, N)`` cut into ``udaf.cpu_units(N)``
contiguous ranges (``udaf.row_ranges``). One Ray task per range folds its
rows with ``udaf.fold_parquet_rows``, as tables that span file boundaries,
writes the state's bytes to ``<ckpt>/range-<u>.bin`` via an atomic
tmp+rename and returns its rows, wall time and the blob's sha256. A range
without pieces (fewer rows than ranges) has no task and no blob.

The manifest ``<ckpt>/manifest.jsonl`` opens with the cut (the sorted paths,
their footer row counts and each range's ``(path, lo, hi)`` pieces); the
driver appends one line per range as the range finishes:

    {"fmt": 3, "files": [...], "rows": [...], "ranges": [[[path, lo, hi], ...], ...]}
    {"fmt": 3, "range": u, "blob": ..., "rows": n, "wall_s": t, "digest": sha, "attempt": k}

A resume whose sorted paths and footer row counts equal the recorded ones
reuses the recorded cut, whatever the CPU count, and skips the finished
ranges, so its state is byte-identical to an uninterrupted build's, KLL and
t-digest included. Any other file set or row count starts over with a new
manifest.

Crash safety without per-blob fsync: each record holds its blob's raw-bytes
sha256, and a resumed blob is checked against it DURING the merge read (one
pass per blob, no separate validation scan); a torn or missing blob means
its range is recomputed and the merge re-runs. The merge takes the ranges
in order: up to ``udaf.MERGE_FANOUT**2`` blobs the driver reads them and
runs one ``merge_many``; above that, Ray tasks validate and merge groups of
``udaf.MERGE_FANOUT`` blobs and ``udaf.merge_state_refs`` merges the groups,
so the driver holds a bounded number of states.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from typing import Callable

import ray

from epichypersketch_jl_ray.stages import udaf
from epichypersketch_jl_ray.state.base import MergeableSketch

_MANIFEST_FMT = 3  # 3 = one record per row range after the cut (2 was one per file)


@ray.remote
def _range_task(
    pieces: list, make_partial: Callable, batch_size: int, blob_path: str
) -> tuple[int, float, str]:
    """Fold one row range and write its blob atomically. Returns (rows,
    wall_s, digest) — digest is sha256 of the BLOB BYTES (torn-write
    detection needs byte identity, and hashing raw bytes on resume avoids
    deserializing every blob twice)."""
    t0 = time.monotonic()
    raw = udaf.fold_parquet_rows(pieces, make_partial, batch_size, None).to_bytes()
    tmp = f"{blob_path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(raw)
    os.replace(tmp, blob_path)
    rows = sum(hi - lo for _, lo, hi in pieces)
    return rows, time.monotonic() - t0, hashlib.sha256(raw).hexdigest()


def _load_validated(
    cls: type[MergeableSketch], entries: list[tuple[str, str | None]]
) -> tuple[list[MergeableSketch], list[str]]:
    """Read blobs, validating each against its manifest raw-bytes sha256
    during the SAME read (the semantic digest() would also flush
    t-digest/KLL buffers, perturbing a resumed merge). A ``None`` digest
    means the blob was written this run and needs no check. The ONE
    definition of validate-and-load, shared by the Ray merge task and the
    driver's merge. Returns (valid_states, bad_paths)."""
    parts, bad = [], []
    for path, digest in entries:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
                bad.append(path)
                continue
            st = cls.from_bytes(raw)
        except Exception:
            bad.append(path)
            continue
        parts.append(st)
    return parts, bad


@ray.remote(num_returns=2)
def _merge_validate_task(
    cls: type[MergeableSketch], entries: list[tuple[str, str | None]]
):
    """Merge a group of blobs with fused validation (_load_validated).
    Returns (state block of the merged valid blobs, bad_paths) as two
    objects, so the driver can fetch the bad paths alone while the state
    stays in the object store for ``udaf.merge_state_refs``."""
    parts, bad = _load_validated(cls, entries)
    return udaf._state_table([parts[0].merge_many(parts[1:])] if parts else []), bad


def _manifest_path(ckpt_dir: str) -> str:
    return os.path.join(ckpt_dir, "manifest.jsonl")


def read_manifest(ckpt_dir: str) -> tuple[dict | None, dict[int, dict]]:
    """The recorded cut (None without one) and the latest record of each
    finished range. Records from an older manifest format are skipped
    LOUDLY (warning) — their unit and digests are not comparable, so the
    build starts over rather than silently failing validation."""
    path = _manifest_path(ckpt_dir)
    cut, done, stale = None, {}, 0
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec.get("fmt") != _MANIFEST_FMT:
                    stale += 1
                elif "range" in rec:
                    done[rec["range"]] = rec
                else:
                    cut = rec
    if stale:
        logging.getLogger(__name__).warning(
            "read_manifest: skipped %d record(s) from an older manifest format "
            "(fmt != %d); the build starts over",
            stale,
            _MANIFEST_FMT,
        )
    return cut, done


def build_checkpointed(
    input_files: list[str],
    make_partial: Callable[["object"], MergeableSketch],
    cls: type[MergeableSketch],
    ckpt_dir: str,
    *,
    batch_size: int = 8192,
) -> tuple[MergeableSketch, dict]:
    """Build (or resume) a sketch over parquet files with one checkpoint per
    corpus row range (see the module docstring).

    Returns (merged_state, metrics) where metrics carries throughput and
    per-range lineage. Raises ValueError when the files hold no row.
    """
    os.makedirs(ckpt_dir, exist_ok=True)
    manifest_path = _manifest_path(ckpt_dir)
    files = sorted(input_files)
    rows = udaf.file_rows(files)
    cut, done = read_manifest(ckpt_dir)
    if cut is None or cut["files"] != files or cut["rows"] != rows:
        ranges = udaf.row_ranges(files, rows, udaf.cpu_units(sum(rows)))
        cut = {"fmt": _MANIFEST_FMT, "files": files, "rows": rows, "ranges": ranges}
        done = {}
        with open(manifest_path + ".tmp", "w") as fh:
            fh.write(json.dumps(cut) + "\n")
        os.replace(manifest_path + ".tmp", manifest_path)
    units = [u for u, pieces in enumerate(cut["ranges"]) if pieces]
    if not units:
        raise ValueError("no rows to build from (empty input files?)")
    t0 = time.monotonic()
    fn_ref = ray.put(make_partial)

    def compute(todo: list[int]) -> None:
        pending = {}
        for u in todo:
            blob = os.path.join(ckpt_dir, f"range-{u:05d}.bin")
            task = _range_task.remote(cut["ranges"][u], fn_ref, batch_size, blob)
            pending[task] = (u, blob)
        with open(manifest_path, "a") as manifest_fh:
            while pending:
                [ref], _ = ray.wait(list(pending), num_returns=1)
                n, wall, digest = ray.get(ref)
                u, blob = pending.pop(ref)
                done[u] = {
                    "fmt": _MANIFEST_FMT,
                    "range": u,
                    "blob": blob,
                    "rows": n,
                    "wall_s": round(wall, 4),
                    "digest": digest,
                    "attempt": done.get(u, {}).get("attempt", 0) + 1,
                }
                manifest_fh.write(json.dumps(done[u]) + "\n")
                manifest_fh.flush()

    todo = [u for u in units if u not in done]
    compute(todo)
    fresh = set(todo)  # computed this run: digests authoritative, skip check

    # merge in range order with FUSED digest validation (resumed blobs
    # only). If any resumed blob fails its digest, its range is recomputed
    # and the whole merge re-runs, keeping the merge order identical to an
    # uninterrupted run's.
    fanout = udaf.MERGE_FANOUT
    for _attempt in range(2):
        entries = [(done[u]["blob"], None if u in fresh else done[u]["digest"]) for u in units]
        if len(entries) > fanout * fanout:
            groups = [entries[i : i + fanout] for i in range(0, len(entries), fanout)]
            state_refs, bad_refs = zip(*(_merge_validate_task.remote(cls, g) for g in groups))
            bad_paths = [p for bad in ray.get(list(bad_refs)) for p in bad]
            if not bad_paths:
                merged = udaf.merge_state_refs(list(state_refs), cls)
        else:
            parts, bad_paths = _load_validated(cls, entries)
            if not bad_paths:
                merged = parts[0].merge_many(parts[1:])
        if not bad_paths:
            break
        bad_blobs = set(bad_paths)
        bad_units = [u for u in units if done[u]["blob"] in bad_blobs]
        compute(bad_units)
        fresh.update(bad_units)
    else:
        raise RuntimeError("checkpoint blobs failed digest validation after recompute")

    total_rows = sum(done[u]["rows"] for u in units)
    wall = time.monotonic() - t0
    metrics = {
        "partitions": len(units),
        "resumed_partitions": len(units) - len(fresh),
        "rows": total_rows,
        "wall_s": round(wall, 4),
        "rows_per_s": round(total_rows / wall, 2) if wall > 0 else None,
        "lineage": [done[u] for u in units],
    }
    with open(os.path.join(ckpt_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1)
    return merged, metrics
