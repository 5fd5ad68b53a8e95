"""Spans and Ray Data operator stats for the traced benchmark run.

The traced run wraps public functions of the package from the benchmark's own
files (nothing inside the package changes), so a traced iteration executes
exactly the code an untraced one does. Each wrapper records a span and keeps
the call's arguments and result, which the workloads read back afterwards --
for example the partial-state Dataset handed to ``tree_merge``, whose Ray Data
stats give the per-operator numbers.

Times are ``time.perf_counter()`` values. On Linux that is CLOCK_MONOTONIC,
shared by every process on the machine, which is what lets a span taken in this process
be compared with the block start/end times Ray Data records in its workers.
"""

from __future__ import annotations

import contextlib
import functools
import time

# Canonical Ray Data operator groups reported as ray.<op>.<field>.
RAY_OPS = ("read", "web_partial", "activation", "motif_count", "motif_select", "motif_verify")
RAY_FIELDS = ("wall_s", "cpu_s", "udf_s", "tasks", "out_mb")


class Tracer:
    """In-memory span recorder for one benchmark run.

    A span is {id, name, parent, run_id, start, end} with start/end in
    seconds since the tracer was created; spans are written out only when the
    run ends (``spans``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._last_call: dict[str, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` and keeps the latest call's {args, result, start, end}
        (absolute perf_counter times) and end_epoch (``time.time()``, to
        compare with file modification times) for ``last_call``.
        ``unwrap_all`` restores the original."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            self._last_call[name] = {
                "args": args,
                "result": result,
                "start": rec["start"] + self.t0,
                "end": rec["end"] + self.t0,
                "end_epoch": time.time(),
            }
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def last_call(self, name: str) -> dict | None:
        return self._last_call.get(name)


def operator_stats(ds) -> list[dict]:
    """Every executed operator of ``ds`` and of the datasets it was built
    from, as plain numbers taken from Ray Data's structured stats summary."""
    ops: list[dict] = []

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            if op.wall_time is None:  # union/input placeholders carry no blocks
                continue
            ops.append(
                {
                    "name": op.operator_name,
                    "start": op.earliest_start_time,
                    "end": op.latest_end_time,
                    "wall_s": op.wall_time["sum"],
                    "cpu_s": op.cpu_time["sum"],
                    "udf_s": op.udf_time["sum"] if op.udf_time else 0.0,
                    "tasks": op.task_rows["count"] if op.task_rows else 0,
                    "rows": op.output_num_rows["sum"] if op.output_num_rows else 0,
                    "out_mb": (op.output_size_bytes["sum"] / 1e6) if op.output_size_bytes else 0.0,
                }
            )

    walk(ds._get_stats_summary())
    return ops


def classify_ops(groups: list[tuple[object, str | None]]) -> list[dict]:
    """Label the operators of several datasets with a RAY_OPS group.

    ``groups`` is [(dataset, default_label)] in execution order. Operators are
    recognised by the UDF or source they run; anything else takes the
    dataset's default label. An operator already seen through an earlier
    dataset (a materialized parent) is counted once."""
    seen: set[tuple] = set()
    out = []
    for ds, default in groups:
        for op in operator_stats(ds):
            key = (op["name"], op["start"], op["end"])
            if key in seen:
                continue
            seen.add(key)
            name = op["name"]
            if name.startswith("ReadParquet"):
                label = "read"
            elif "WebSketchBuilder" in name:
                label = "web_partial"
            elif "MotifCounter" in name:
                label = "motif_count"
            elif "MotifSelector" in name:
                label = "motif_select"
            else:
                label = default
            out.append(dict(op, op=label))
    return out


def ray_op_metrics(ops: list[dict]) -> dict[str, float]:
    """ray.<op>.<field> sums over the labelled operators (0 for groups the
    workload does not run)."""
    metrics = {f"ray.{g}.{f}": 0.0 for g in RAY_OPS for f in RAY_FIELDS}
    for op in ops:
        if op["op"] not in RAY_OPS:
            continue
        for f in RAY_FIELDS:
            metrics[f"ray.{op['op']}.{f}"] += op[f]
    return metrics


def op_window(ops: list[dict], label: str) -> tuple[float, float] | None:
    """(earliest start, latest end) over the operators with ``label``."""
    sel = [op for op in ops if op["op"] == label]
    if not sel:
        return None
    return min(op["start"] for op in sel), max(op["end"] for op in sel)


def timed(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
