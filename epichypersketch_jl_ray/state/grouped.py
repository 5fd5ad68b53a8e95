"""GroupedSketch: one mergeable sketch per group key, under one merge.

Grouped sketching WITHOUT shuffling the corpus: each block builds a partial
dict {key -> sketch}, partials merge key-wise through the same UDAF harness
(stages/udaf.py) as a single sketch, and only sketch states travel — the
grouped analogue of the reference's shared-CMS accumulation
(/root/reference/src/partition.jl:148,204-214) extended over a key column.

Use when the GROUP CARDINALITY is bounded (lang, event_type, shard class):
state is O(groups x sketch size). For corpus-cardinality keys use the
hash exchange's ``group_aggregate`` instead — a per-key sketch there would
just be a worse shuffle.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch


def grouped_update(
    g: "GroupedSketch",
    keys: np.ndarray,
    values: np.ndarray,
    apply: Callable[[MergeableSketch, np.ndarray], None],
) -> None:
    """Dispatch one vectorized ``apply(sketch, values_slice)`` per distinct
    key in a batch: sort by key, run-length bounds, slice — the shared
    per-batch update shape for every GroupedSketch pipeline. Zero-row
    batches are a no-op (the run-length trick would otherwise index into an
    empty array)."""
    if len(keys) == 0:
        return
    order = np.argsort(keys, kind="stable")
    keys_s, vals = keys[order], values[order]
    bounds = np.flatnonzero(np.concatenate(([True], keys_s[1:] != keys_s[:-1])))
    for start, stop in zip(bounds, np.append(bounds[1:], len(keys_s))):
        # native python scalar as the part key, so numeric key columns
        # round-trip through GroupedSketch.get(key) lookups (g.parts[5],
        # not g.parts['5'])
        k = keys_s[start]
        if isinstance(k, np.generic):
            k = k.item()
        apply(g.get(k), vals[start:stop])


class GroupedSketch(MergeableSketch):
    """dict key -> sketch with key-wise associative merge.

    ``factory`` must be picklable (module-level function or
    functools.partial) and deterministic (seeded) so every worker builds
    identical per-key sketch geometry without coordination.
    """

    __slots__ = ("factory", "parts")

    def __init__(self, factory: Callable[[], MergeableSketch]) -> None:
        self.factory = factory
        self.parts: dict[Hashable, MergeableSketch] = {}

    def get(self, key: Hashable) -> MergeableSketch:
        sk = self.parts.get(key)
        if sk is None:
            sk = self.parts[key] = self.factory()
        return sk

    def merge(self, other: "GroupedSketch") -> "GroupedSketch":
        for k, sk in other.parts.items():
            mine = self.parts.get(k)
            if mine is None:
                # copy, don't adopt by reference: later updates to the merged
                # sketch must not mutate `other`'s state (the UDAF harness
                # always hands us deserialized copies, but the public API
                # cannot rely on that)
                self.parts[k] = type(sk).from_bytes(sk.to_bytes())
            else:
                mine.merge(sk)
        return self

    def keys(self) -> list:
        return sorted(self.parts)

    def _state_arrays(self) -> tuple:
        out = []
        for k in sorted(self.parts, key=repr):
            for name, arr in self.parts[k]._state_arrays():
                out.append((f"{k!r}:{name}", arr))
        return tuple(out)
