"""Per-partition checkpoint / resume / lineage for sketch builds
(north_rule requirement; absent from the reference, SURVEY.md §4
checkpoint row).

Unit of work = one input parquet file ("partition"), not a corpus row
range as in ``pipelines.webpages.build_web_sketches``, because
skip-finished-partitions resume needs explicit per-partition identity. Each
partition's partial sketch is computed AND written by a raw Ray task: the
fold every row range of the direct build runs (``udaf.fold_parquet_rows``,
here over rows ``[0, n)`` of the one file), plus a blob, its sha256 and a
manifest line. The blob is ``<ckpt>/part-<pathhash>-<name>.bin``
(full-path hash prefix: same-basename inputs from different directories get
distinct blobs) via an atomic tmp+rename; the driver appends a JSONL
manifest line per finished partition:

    {"fmt": 2, "file": ..., "blob": ..., "rows": n, "wall_s": t, "digest": sha, "attempt": k}

Crash safety without per-blob fsync: the manifest records each blob's
raw-bytes sha256, and on resume every blob is validated against it DURING
the merge read (one pass per blob — no separate validation scan, no double
deserialization); a torn or missing blob just means that partition is
recomputed and the merge re-runs. Merge order is the sorted file list
(deterministic), executed as a parallel tree (Ray merge tasks over blob
groups, then udaf.merge_state_refs' remote rounds, so the driver holds a
bounded number of states, then one k-way merge_many on the driver), so an
interrupted+resumed run's final state is byte-identical to an
uninterrupted one — including KLL/t-digest, whose buffered state
round-trips exactly through the blob.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

import ray

from epichypersketch_jl_ray.stages.udaf import _state_table, fold_parquet_rows, merge_state_refs
from epichypersketch_jl_ray.state.base import MergeableSketch

MAX_IN_FLIGHT = 64  # partition tasks submitted at once
MERGE_FANOUT = 16  # blobs per remote merge-and-validate task


@ray.remote
def _partition_task(
    path: str, make_partial: Callable, batch_size: int, blob_path: str
) -> tuple[int, float, str]:
    """Compute one partition's partial sketch and write its blob atomically.
    Returns (rows, wall_s, digest) — digest is sha256 of the BLOB BYTES
    (torn-write detection needs byte identity, and hashing raw bytes on
    resume avoids deserializing every blob twice)."""
    import hashlib

    import pyarrow.parquet as pq

    t0 = time.monotonic()
    pf = pq.ParquetFile(path)
    n = pf.metadata.num_rows
    # the whole file, every column; a legitimately empty input shard
    # contributes an empty partial (rows=0 recorded in the manifest)
    # instead of aborting the build
    state = fold_parquet_rows([(path, 0, n)], make_partial, batch_size, None)
    if state is None:
        state = make_partial(pf.schema_arrow.empty_table())
    raw = state.to_bytes()
    tmp = blob_path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(raw)
    os.replace(tmp, blob_path)
    return n, time.monotonic() - t0, hashlib.sha256(raw).hexdigest()


def _load_validated(
    cls: type[MergeableSketch], entries: list[tuple[str, str | None]]
) -> tuple[list[MergeableSketch], list[str]]:
    """Read blobs, validating each against its manifest raw-bytes sha256
    during the SAME read (resume used to read every blob twice — once to
    validate, once to merge — and the semantic digest() also flushes
    t-digest/KLL buffers, perturbing a resumed merge). A ``None`` digest
    means the blob was written this run and needs no check. The ONE
    definition of validate-and-load, shared by the Ray merge task and the
    driver's small-set branch. Returns (valid_states, bad_paths)."""
    import hashlib

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
    return _state_table([parts[0].merge_many(parts[1:])] if parts else []), bad


def _manifest_path(ckpt_dir: str) -> str:
    return os.path.join(ckpt_dir, "manifest.jsonl")


_MANIFEST_FMT = 2  # 2 = digest is sha256 of blob bytes (1 was state.digest())


def read_manifest(ckpt_dir: str) -> dict[str, dict]:
    """Usable manifest records. Records from an older manifest format are
    skipped LOUDLY (warning) — their digests are not comparable, so those
    partitions recompute rather than silently failing validation."""
    import logging

    path = _manifest_path(ckpt_dir)
    done = {}
    stale = 0
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    if rec.get("fmt") != _MANIFEST_FMT:
                        stale += 1
                        continue
                    done[rec["file"]] = rec
    if stale:
        logging.getLogger(__name__).warning(
            "read_manifest: skipped %d record(s) from an older manifest format "
            "(fmt != %d); those partitions will be recomputed",
            stale,
            _MANIFEST_FMT,
        )
    return done


def build_checkpointed(
    input_files: list[str],
    make_partial: Callable[["object"], MergeableSketch],
    cls: type[MergeableSketch],
    ckpt_dir: str,
    *,
    batch_size: int = 8192,
) -> tuple[MergeableSketch, dict]:
    """Build (or resume) a sketch over parquet files with per-file checkpoints.

    Returns (merged_state, metrics) where metrics carries throughput and
    per-partition lineage.
    """
    os.makedirs(ckpt_dir, exist_ok=True)
    files = sorted(input_files)
    raw_manifest = read_manifest(ckpt_dir)
    prev_attempts = {f: r.get("attempt", 0) for f, r in raw_manifest.items()}
    # manifest entries are trusted provisionally; their digests are checked
    # during the merge read itself (one pass over each blob instead of a
    # separate validate pass), and any torn/corrupt blob is recomputed then
    done = {f: r for f, r in raw_manifest.items() if f in set(files)}
    t0 = time.monotonic()
    fn_ref = ray.put(make_partial)
    manifest_path = _manifest_path(ckpt_dir)

    def compute_partitions(todo_files: list[str]) -> None:
        pending: dict = {}
        it = iter(todo_files)

        def launch_next() -> bool:
            try:
                f = next(it)
            except StopIteration:
                return False
            # full-path hash prefix: two inputs sharing a basename
            # (a/shard0.parquet, b/shard0.parquet) must not share a blob
            import hashlib

            tag = hashlib.sha256(f.encode()).hexdigest()[:10]
            blob = os.path.join(ckpt_dir, f"part-{tag}-{os.path.basename(f)}.bin")
            pending[_partition_task.remote(f, fn_ref, batch_size, blob)] = (f, blob)
            return True

        for _ in range(MAX_IN_FLIGHT):
            if not launch_next():
                break
        with open(manifest_path, "a") as manifest_fh:
            while pending:
                ready, _ = ray.wait(
                    list(pending), num_returns=min(8, len(pending)), timeout=None
                )
                results = ray.get(ready)
                lines = []
                for ref, (rows, wall, digest) in zip(ready, results):
                    f, blob = pending.pop(ref)
                    rec = {
                        "fmt": _MANIFEST_FMT,
                        "file": f,
                        "blob": blob,
                        "rows": rows,
                        "wall_s": round(wall, 4),
                        "digest": digest,
                        "attempt": prev_attempts.get(f, 0) + 1,
                    }
                    prev_attempts[f] = rec["attempt"]
                    lines.append(json.dumps(rec))
                    done[f] = rec
                    launch_next()
                manifest_fh.write("\n".join(lines) + "\n")
                manifest_fh.flush()

    todo = [f for f in files if f not in done]
    compute_partitions(todo)
    fresh = set(todo)  # computed this run: digests authoritative, skip check

    # deterministic merge order: sorted file list; parallel tree merge with
    # FUSED digest validation (resumed blobs only), then one k-way
    # merge_many on the driver. If any resumed blob fails its digest, the
    # bad partitions are recomputed and the whole merge re-runs — keeping
    # the merge order identical to an uninterrupted run's.
    merged = None
    for _attempt in range(2):
        entries = [
            (done[f]["blob"], None if f in fresh else done[f]["digest"]) for f in files
        ]
        if len(entries) > MERGE_FANOUT:
            groups = [
                entries[i : i + MERGE_FANOUT] for i in range(0, len(entries), MERGE_FANOUT)
            ]
            state_refs, bad_refs = zip(*(_merge_validate_task.remote(cls, g) for g in groups))
            bad_paths = [p for bad in ray.get(list(bad_refs)) for p in bad]
            # the merged groups stay in the object store; the driver gets
            # at most udaf.MERGE_FANOUT**2 of them, however many files
            if not bad_paths:
                merged = merge_state_refs(list(state_refs), cls)
        else:
            parts, bad_paths = _load_validated(cls, entries)
            if not bad_paths and parts:
                merged = parts[0].merge_many(parts[1:])
        if not bad_paths:
            break
        bad_files = [f for f in files if done[f]["blob"] in set(bad_paths)]
        compute_partitions(bad_files)
        fresh.update(bad_files)
    else:
        raise RuntimeError("checkpoint blobs failed digest validation after recompute")

    total_rows = sum(done[f]["rows"] for f in files)
    wall = time.monotonic() - t0
    metrics = {
        "partitions": len(files),
        "resumed_partitions": len(files) - len(fresh),
        "rows": total_rows,
        "wall_s": round(wall, 4),
        "rows_per_s": round(total_rows / wall, 2) if wall > 0 else None,
        "lineage": [done[f] for f in files],
    }
    with open(os.path.join(ckpt_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1)
    return merged, metrics
