"""HyperLogLog cardinality sketch (Flajolet, Fuss, Gandouet, Meunier 2007).

Absent from the reference; mandated by the north_rule (SURVEY.md §2.4 A4).
Implements the classic m=2^p register array with:
- small-range correction (linear counting) for E <= 2.5m,
- large-range correction for E > 2^64/30,
- elementwise-max merge (associative & commutative).

Relative standard error ~= 1.04/sqrt(m). Inputs are pre-hashed uint64 keys
(functions/hashing.py provides deterministic vectorized hashes).
"""

from __future__ import annotations

import math

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch

_TWO64 = float(2**64)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _clz_after_index(w: np.ndarray, width: int) -> np.ndarray:
    """rho = position of the leftmost 1-bit in the ``width`` low bits of w
    (1-based), or width+1 if all zero. Exact, vectorized via unpackbits."""
    b = np.unpackbits(w.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)  # (n, 64)
    b = b[:, 64 - width :]
    any_set = b.any(axis=1)
    first = b.argmax(axis=1)  # index of first 1 bit
    rho = np.where(any_set, first + 1, width + 1)
    return rho.astype(np.uint8)


class HyperLogLog(MergeableSketch):
    __slots__ = ("p", "m", "registers", "seed")

    def __init__(self, p: int = 12, *, seed: int = 1234) -> None:
        if not (4 <= p <= 18):
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.seed = int(seed)  # informational; hashing happens upstream
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def update_hashed(self, hashes: np.ndarray) -> "HyperLogLog":
        """Add a batch of uint64 hashes."""
        h = np.asarray(hashes, dtype=np.uint64)
        if h.size == 0:
            return self
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = (h << np.uint64(self.p)).astype(np.uint64)  # low 64-p bits shifted up
        rho = _clz_after_index(w >> np.uint64(self.p), 64 - self.p)
        np.maximum.at(self.registers, idx, rho)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if self.p != other.p:
            raise ValueError("cannot merge HLLs with different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def raw_estimate(self) -> float:
        """The uncorrected HLL estimate E; ``estimate`` uses linear counting
        while E <= 2.5m and some register is still 0."""
        m = float(self.m)
        return _alpha(self.m) * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))

    def estimate(self) -> float:
        m = float(self.m)
        e = self.raw_estimate()
        if e <= 2.5 * m:
            v = int(np.count_nonzero(self.registers == 0))
            if v > 0:
                # linear counting — scalar libm log, NOT np.log: numpy's SIMD
                # log differs from glibc/DuckDB `ln` in the last ulp for ~30%
                # of inputs, while math.log is bit-identical over the full
                # V in [1, m] domain (pinned in tests), which lets the
                # registered query's estimate row hash-match a pure-SQL
                # DuckDB oracle (pipelines/merged.distinct_users_hll_sql)
                return m * math.log(m / v)
            return float(e)
        if e > _TWO64 / 30.0:
            return -_TWO64 * np.log1p(-e / _TWO64)
        return float(e)

    def _state_arrays(self) -> tuple:
        return (("p", self.p), ("registers", self.registers))
