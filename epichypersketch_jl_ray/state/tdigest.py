"""Merging t-digest (Dunning & Ertl, "Computing Extremely Accurate Quantiles
Using t-Digests").

Absent from the reference; mandated by the north_rule (SURVEY.md §2.4 A4).

Implements the buffer-and-merge variant: incoming values accumulate in a
buffer; compression sorts (centroid, buffer) together and greedily merges
adjacent clusters while the merged cluster stays within the k1 scale
function's size limit (delta = ``compression``).

Merge-order canonicality: ``merge`` only CONCATENATES centroid lists and
defers compression to query/serialization time (or past a 16x safety cap),
and compression canonicalizes its input order with a (mean, weight) lexsort
— so merging a fixed set of sealed partials yields byte-identical state for
every merge order whose running size stays under the cap (a fanout-bounded
tree-merge node always does). Asserted by randomized merge-order tests in
the lossy regime. Rank error stays bounded regardless of merge order.
"""

from __future__ import annotations

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch


class TDigest(MergeableSketch):
    __slots__ = ("compression", "means", "weights", "_buf", "n", "_min", "_max")

    def __init__(self, compression: float = 100.0) -> None:
        if compression < 20:
            raise ValueError("compression must be >= 20")
        self.compression = float(compression)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []
        self.n = 0.0
        self._min = np.inf
        self._max = -np.inf

    def _compress(self) -> None:
        if self._buf:
            bv = np.concatenate(self._buf)
            self._buf = []
            m = np.concatenate([self.means, bv])
            w = np.concatenate([self.weights, np.ones(len(bv))])
        else:
            m, w = self.means, self.weights
        if len(m) == 0:
            return
        # lexsort on (mean, weight): ties between equal means with different
        # weights order canonically, so the compressed result is a pure
        # function of the (mean, weight) multiset — not of arrival order
        order = np.lexsort((w, m))
        m, w = m[order], w[order]
        total = w.sum()
        # vectorized k1-scale binning (Dunning's merging digest): cluster i
        # holds the points whose left-edge quantile maps to integer bin
        # floor(k1(q)); guarantees <= ~delta clusters with the k1 size bound.
        d = self.compression
        q_left = (np.cumsum(w) - w) / total
        k = d / (2.0 * np.pi) * (np.arcsin(np.clip(2.0 * q_left - 1.0, -1.0, 1.0)) + np.pi / 2.0)
        kidx = np.floor(k).astype(np.int64)
        starts = np.flatnonzero(np.diff(kidx, prepend=kidx[0] - 1))
        sum_w = np.add.reduceat(w, starts)
        sum_wm = np.add.reduceat(w * m, starts)
        self.means = sum_wm / sum_w
        self.weights = sum_w
        self.n = float(total)

    # --- updates -----------------------------------------------------------

    def update(self, values: np.ndarray) -> "TDigest":
        v = np.asarray(values, dtype=np.float64).ravel()
        v = v[~np.isnan(v)]
        if v.size == 0:
            return self
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        self._buf.append(v)
        self.n += v.size
        if sum(len(b) for b in self._buf) >= 10 * self.compression:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        """Concatenate sealed centroids and DEFER compression: the pending
        centroid multiset is identical for every merge order, and the
        eventual compression (query/serialize time, or past the safety cap)
        canonicalizes order — merge-order byte-canonical under the cap."""
        if self.compression != other.compression:
            raise ValueError("cannot merge t-digests with different compression")
        other._compress()
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self.n = float(self.n) + float(other.n)
        if len(self.means) + sum(len(b) for b in self._buf) > 16 * 2 * self.compression:
            self._compress()
        return self

    # --- queries -----------------------------------------------------------

    def quantile(self, q: float) -> float:
        self._compress()
        if len(self.means) == 0:
            raise ValueError("empty digest")
        if len(self.means) == 1:
            return float(self.means[0])
        q = min(max(q, 0.0), 1.0)
        target = q * self.n
        cum = np.cumsum(self.weights) - self.weights / 2.0  # centroid centers
        if target <= cum[0]:
            lo_m, lo_c, hi_m, hi_c = self._min, 0.0, self.means[0], cum[0]
        elif target >= cum[-1]:
            lo_m, lo_c, hi_m, hi_c = self.means[-1], cum[-1], self._max, self.n
        else:
            i = int(np.searchsorted(cum, target, side="right"))
            lo_m, lo_c, hi_m, hi_c = self.means[i - 1], cum[i - 1], self.means[i], cum[i]
        if hi_c == lo_c:
            return float(lo_m)
        frac = (target - lo_c) / (hi_c - lo_c)
        return float(lo_m + frac * (hi_m - lo_m))

    def quantiles(self, qs) -> np.ndarray:
        return np.array([self.quantile(q) for q in qs])

    def to_bytes(self) -> bytes:
        # seal canonically before bytes leave this process
        self._compress()
        return super().to_bytes()

    def _state_arrays(self) -> tuple:
        # compress a copy, so digest() leaves this state, its bytes and its
        # answers as they were (_compress rebinds arrays, never writes them)
        c = TDigest(self.compression)
        c.means, c.weights, c._buf, c.n = self.means, self.weights, list(self._buf), self.n
        c._compress()
        return (
            ("compression", c.compression),
            ("means", c.means),
            ("weights", c.weights),
            ("minmax", np.array([self._min, self._max])),
        )
