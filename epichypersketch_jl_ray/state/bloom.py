"""Bloom filter (Bloom 1970) over pre-hashed uint64 keys.

Absent from the reference; mandated by the north_rule (SURVEY.md §2.4 A4).
Sized from (capacity n, target false-positive rate p):
    m = ceil(-n ln p / (ln 2)^2) bits,  k = max(1, round(m/n * ln 2)).
The k probe positions use Kirsch–Mitzenmacher double hashing
(h1 + i*h2 mod m) over two independent 64-bit mixes of the input hash, so
only one upstream hash per key is needed. Merge = bitwise OR (associative,
commutative). Zero false negatives by construction.

Storage is adaptive: a per-batch partial holds only its sorted set bit
POSITIONS (O(batch·k) ints) and densifies to the m-bit array once the
position count approaches m/64 — so shipping per-block partials through the
object store costs O(keys in block), not O(m). The digest() canonicalizes
over the dense bit array, so sparse and dense representations of the same
content hash identically.
"""

from __future__ import annotations

import math

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch
from epichypersketch_jl_ray.functions.hashing import splitmix64


class BloomFilter(MergeableSketch):
    __slots__ = ("m", "k", "capacity", "p", "seed", "bits", "positions", "n_added")

    def __init__(self, capacity: int, p: float = 1e-6, *, seed: int = 1234) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0.0 < p < 1.0):
            raise ValueError("p must be in (0,1)")
        self.capacity = int(capacity)
        self.p = float(p)
        self.seed = int(seed)
        self.m = int(math.ceil(-capacity * math.log(p) / (math.log(2.0) ** 2)))
        self.k = max(1, round(self.m / capacity * math.log(2.0)))
        self.bits: np.ndarray | None = None  # dense (m+7)//8 uint8 once densified
        self.positions = np.empty(0, dtype=np.int64)  # sorted unique set-bit positions
        self.n_added = 0

    def _probe(self, hashes: np.ndarray) -> np.ndarray:
        """(n, k) int64 bit positions ``(h1 + i * h2) % m`` of n keys."""
        h = np.asarray(hashes, dtype=np.uint64)
        h1 = splitmix64(h ^ np.uint64(self.seed))
        h2 = splitmix64(h1) | np.uint64(1)  # odd => full-period stepping
        m = np.uint64(self.m)
        with np.errstate(over="ignore"):
            x = np.arange(self.k, dtype=np.uint64)[None, :] * h2[:, None]
            x += h1[:, None]
            # the mod as x - (x // m) * m: numpy divides by a scalar with a
            # multiply-and-shift, about 2x faster than its remainder
            q = x // m
            q *= m
            x -= q
        return x.view(np.int64)  # positions < m < 2^63

    def densify(self) -> "BloomFilter":
        if self.bits is None:
            self.bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
            self._set_bits(self.positions)
            self.positions = np.empty(0, dtype=np.int64)
        return self

    def _set_bits(self, pos: np.ndarray) -> None:
        if len(pos) > self.m // 256:
            # bulk path: bool scatter + packbits is O(m/8) sequential writes,
            # far faster than ufunc.at's per-element dispatch on large inputs
            bb = np.zeros(self.m, dtype=bool)
            bb[pos] = True
            np.bitwise_or(self.bits, np.packbits(bb, bitorder="little"), out=self.bits)
        else:
            np.bitwise_or.at(self.bits, pos >> 3, (np.uint8(1) << (pos & 7).astype(np.uint8)))

    def _add_positions(self, pos: np.ndarray) -> None:
        """Set bit positions ``pos`` (any order, repeats allowed); the filter
        goes dense once it holds more than m/64 distinct bits."""
        if self.bits is not None:
            self._set_bits(pos)  # setting a bit twice is setting it once
        elif len(self.positions) + len(pos) <= self.m // 64:
            self.positions = np.union1d(self.positions, pos)  # stays sparse
        else:
            # may go dense: count the distinct bits on the bit array itself,
            # not on a sorted union
            bb = np.zeros(self.m, dtype=bool)
            bb[self.positions] = True
            bb[pos] = True
            if np.count_nonzero(bb) > self.m // 64:
                self.bits = np.packbits(bb, bitorder="little")
                self.positions = np.empty(0, dtype=np.int64)
            else:
                self.positions = np.flatnonzero(bb)

    def add_hashed(self, hashes: np.ndarray) -> "BloomFilter":
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return self
        self._add_positions(self._probe(h).ravel())
        self.n_added += int(h.size)
        return self

    def contains_hashed(self, hashes: np.ndarray) -> np.ndarray:
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._probe(h)
        if self.bits is not None:
            bit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
            return bit.all(axis=1)
        idx = np.searchsorted(self.positions, pos)
        idx_c = np.minimum(idx, max(len(self.positions) - 1, 0))
        hit = (
            (self.positions[idx_c] == pos)
            if len(self.positions)
            else np.zeros_like(pos, dtype=bool)
        )
        return hit.all(axis=1)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.m, self.k, self.seed) != (other.m, other.k, other.seed):
            raise ValueError("cannot merge Bloom filters with different geometry/seed")
        if other.bits is not None:
            self.densify()
            np.bitwise_or(self.bits, other.bits, out=self.bits)
        else:
            self._add_positions(other.positions)
        self.n_added += other.n_added
        return self

    def merge_many(self, others: list["BloomFilter"]) -> "BloomFilter":
        for o in others:
            if (self.m, self.k, self.seed) != (o.m, o.k, o.seed):
                raise ValueError("cannot merge Bloom filters with different geometry/seed")
            self.n_added += o.n_added
        if self.bits is not None or any(o.bits is not None for o in others):
            self.densify()
            for o in others:
                if o.bits is not None:
                    np.bitwise_or(self.bits, o.bits, out=self.bits)
                else:
                    self._set_bits(o.positions)
        elif others:
            self._add_positions(np.concatenate([o.positions for o in others]))
        return self

    def fill_ratio(self) -> float:
        if self.bits is not None:
            return float(np.unpackbits(self.bits).sum()) / self.m
        return float(len(self.positions)) / self.m

    def _state_arrays(self) -> tuple:
        # canonical dense form so sparse/dense states of equal content match
        if self.bits is not None:
            bits = self.bits
        else:
            bb = np.zeros(self.m, dtype=bool)
            bb[self.positions] = True
            bits = np.packbits(bb, bitorder="little")
        return (("geom", (self.m, self.k, self.seed)), ("bits", bits))
