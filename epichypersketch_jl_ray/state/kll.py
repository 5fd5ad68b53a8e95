"""KLL quantile sketch (Karnin, Lang, Liberty, FOCS 2016).

Absent from the reference; mandated by the north_rule (SURVEY.md §2.4 A4;
see also PAPERS.md "Relative Error Streaming Quantiles").

Compactor-stack implementation over float64 values:
- level i stores items with implicit weight 2^i;
- when total size exceeds capacity, the largest over-capacity level is
  compacted: sort, keep every other item (random even/odd offset), promote.
- level capacities follow k * c^(depth - level) with c = 2/3 (floored at 2).

Determinism / merge-order canonicality: every nondeterministic or
arrival-dependent choice is keyed on CONTENT, not history —
- the even/odd coin is a hash of (seed, level, the level's sorted items), so
  a compaction's outcome is a pure function of what is being compacted
  (substituting a content hash for KLL's independent coins; the rank bound
  holds in practice, asserted by the bound tests);
- merge() only concatenates (levels kept sorted) and DEFERS compaction;
  compaction runs canonically at query / serialization time (or past a
  16x-capacity safety cap that bounds state in long merge chains).
Consequently merging a fixed set of partials yields BYTE-IDENTICAL state for
every merge order whose running size stays under the safety cap (a fanout-8
tree merge node always does) — asserted by randomized merge-order tests in
the compressed (lossy) regime, not just the exact one.
When ``capacity >= n`` no compaction ever happens and quantiles are exact —
pipelines exploit this for the DuckDB oracle parity checks.

``quantile(q)`` returns the smallest stored item whose cumulative weight is
>= ceil(q * n) (lower / discrete quantile — matches DuckDB ``quantile_disc``
when the sketch is in its exact regime).
"""

from __future__ import annotations

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch

_C = 2.0 / 3.0


class KLL(MergeableSketch):
    __slots__ = ("k", "seed", "levels", "n")

    def __init__(self, k: int = 200, *, seed: int = 1234) -> None:
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = int(k)
        self.seed = int(seed)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0

    # --- internals ---------------------------------------------------------

    def _cap(self, level: int) -> int:
        depth = len(self.levels)
        return max(2, int(np.ceil(self.k * _C ** (depth - 1 - level))))

    def _size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def _merge_cap(self) -> int:
        # safety bound on deferred-merge state; total capacity ~ k/(1-c) = 3k
        return 16 * 3 * self.k

    def _coin(self, level: int, items: np.ndarray) -> int:
        # CONTENT-keyed coin: a pure function of (seed, level, the sorted
        # items being compacted) — merge order cannot reach it
        import hashlib
        import struct

        h = hashlib.blake2b(
            np.ascontiguousarray(items).tobytes(),
            digest_size=1,
            key=struct.pack("<qq", self.seed & 0x7FFFFFFF, level),
        )
        return h.digest()[0] & 1

    def _compress(self) -> None:
        while self._size() > sum(self._cap(i) for i in range(len(self.levels))):
            # find lowest level over its capacity
            for i in range(len(self.levels)):
                if len(self.levels[i]) > self._cap(i):
                    break
            else:
                break
            lv = np.sort(self.levels[i])
            keep = np.empty(0, dtype=np.float64)
            if len(lv) % 2 == 1:
                # odd length: one unpaired item stays at this level (keeps
                # total weight exact; which end stays is weight-neutral)
                keep = lv[-1:]
                lv = lv[:-1]
            promoted = lv[self._coin(i, lv) :: 2]
            self.levels[i] = keep
            if i + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[i + 1] = np.sort(np.concatenate([self.levels[i + 1], promoted]))

    # --- updates -----------------------------------------------------------

    def update(self, values: np.ndarray) -> "KLL":
        v = np.asarray(values, dtype=np.float64).ravel()
        v = v[~np.isnan(v)]
        if v.size == 0:
            return self
        self.levels[0] = np.sort(np.concatenate([self.levels[0], v]))
        self.n += int(v.size)
        self._compress()
        return self

    def merge(self, other: "KLL") -> "KLL":
        """Concatenate level-wise (kept sorted) and DEFER compaction: the
        pending state is then a pure multiset union, identical for every
        merge order, and the eventual compaction (at query/serialize time or
        past the safety cap) is content-keyed — so the final bytes are
        merge-order canonical as long as the running size stays under the
        cap (a fanout-bounded tree-merge node always does)."""
        if self.k != other.k:
            raise ValueError("cannot merge KLL sketches with different k")
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for i, lv in enumerate(other.levels):
            if len(lv):
                self.levels[i] = np.sort(np.concatenate([self.levels[i], lv]))
        self.n += other.n
        if self._size() > self._merge_cap():
            self._compress()
        return self

    # --- queries -----------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        items, weights = [], []
        for i, lv in enumerate(self.levels):
            if len(lv):
                items.append(lv)
                weights.append(np.full(len(lv), 1 << i, dtype=np.int64))
        if not items:
            return np.empty(0), np.empty(0, dtype=np.int64)
        it = np.concatenate(items)
        wt = np.concatenate(weights)
        order = np.argsort(it, kind="stable")
        return it[order], wt[order]

    def quantile(self, q: float) -> float:
        if self.n == 0:
            raise ValueError("empty sketch")
        it, wt = self._weighted_items()
        cw = np.cumsum(wt)
        target = max(1, int(np.ceil(q * cw[-1])))
        idx = int(np.searchsorted(cw, target, side="left"))
        return float(it[min(idx, len(it) - 1)])

    def quantiles(self, qs) -> np.ndarray:
        return np.array([self.quantile(q) for q in qs])

    def rank(self, value: float) -> float:
        """Approximate fraction of items <= value."""
        if self.n == 0:
            return 0.0
        it, wt = self._weighted_items()
        cw = np.cumsum(wt)
        idx = int(np.searchsorted(it, value, side="right"))
        return float(cw[idx - 1] / cw[-1]) if idx > 0 else 0.0

    def to_bytes(self) -> bytes:
        # seal canonically: compaction (content-keyed) happens before bytes
        # leave this process, so serialized state is a pure function of the
        # merged multiset (levels are maintained sorted)
        self._compress()
        return super().to_bytes()

    def _state_arrays(self) -> tuple:
        # compact a copy, so digest() leaves this state, its bytes and its
        # answers as they were (_compress rebinds levels, never writes them)
        c = KLL(self.k, seed=self.seed)
        c.levels, c.n = list(self.levels), self.n
        c._compress()
        out = [("k", c.k), ("n", c.n)]
        for i, lv in enumerate(c.levels):
            out.append((f"level{i}", np.sort(lv)))
        return tuple(out)
