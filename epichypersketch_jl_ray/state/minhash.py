"""MinHash signatures + SimHash for near-duplicate detection.

Not in the reference (it has no dedup operators, SURVEY.md §2.7); these are
the standard large-scale training-data dedup primitives (Broder 1997 MinHash;
Charikar 2002 SimHash) built on the same deterministic hashing as the other
sketches.

MinHasher produces per-document signatures (num_perms uint64 mins) from a
document's shingle hash set; LSH banding happens in stages/dedup.py as a Ray
Data groupby over band keys. The DEFAULT per-permutation map is
``((h * a_i + b_i) mod 2^64) mod p`` (p = 2^61 - 1): the multiply wraps at
uint64 BEFORE the Mersenne mod, so it is a deterministic seeded mix, NOT
the exact universal family, and the strict min-wise-independence guarantee
does not apply — acceptable because the pipelines treat MinHash purely as
a candidate-recall heuristic (every emitted pair is EXACT-verified
afterwards; measured miss probability < 1e-7 at the banding defaults).
``MinHasher(..., exact_family=True)`` switches to the true family
h_i(x) = (a_i x + b_i) mod p via an exact 32-bit-split Mersenne mulmod
(verified against big-int arithmetic in tests; ~3-4x the kernel cost).
(a_i, b_i) come from a seeded PCG so every worker derives identical
permutations without coordination.
"""

from __future__ import annotations

import numpy as np

_P = np.uint64((1 << 61) - 1)


def _mulmod_mersenne61(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Exact (x * a) mod (2^61 - 1) for uint64 arrays < p, without int128:
    32-bit split products, reduced via 2^64 ≡ 8 and 2^61 ≡ 1 (mod p),
    then two folds. Broadcasts like ``x * a``."""
    with np.errstate(over="ignore"):
        x_hi, x_lo = x >> np.uint64(32), x & np.uint64(0xFFFFFFFF)
        a_hi, a_lo = a >> np.uint64(32), a & np.uint64(0xFFFFFFFF)
        hi = x_hi * a_hi  # < 2^58
        mid = x_hi * a_lo + x_lo * a_hi  # < 2^62
        lo = x_lo * a_lo  # < 2^64, wraps — reconstruct exactly:
        # x*a = hi*2^64 + mid*2^32 + lo_true; uint64 lo already IS lo_true
        # mod 2^64 and the carry into bit 64 is (lo_true >> 64) == 0 since
        # lo_true < 2^64. mid*2^32 overflows, so split mid = m1*2^29 + m0:
        # mid*2^32 = m1*2^61 + m0*2^32 ≡ m1 + (m0 << 32)  (mod p)
        m1, m0 = mid >> np.uint64(29), mid & np.uint64((1 << 29) - 1)
        # lo ≡ (lo >> 61) + (lo & p)  (mod p)
        s = (hi << np.uint64(3)) + m1 + (m0 << np.uint64(32)) + (lo >> np.uint64(61)) + (lo & _P)
        s = (s >> np.uint64(61)) + (s & _P)
        s = (s >> np.uint64(61)) + (s & _P)
        return np.where(s >= _P, s - _P, s)


class MinHasher:
    """Stateless signature generator (per-doc min over permuted shingle
    hashes). ``exact_family=True`` uses the true universal hash family
    h_i(x) = (a_i x + b_i) mod (2^61 - 1) via an exact Mersenne mulmod
    (min-wise independence holds, ~3-4x the kernel cost); the default is
    the documented fast deterministic mix (module docstring)."""

    def __init__(
        self, num_perms: int = 128, *, seed: int = 1234, exact_family: bool = False
    ) -> None:
        rng = np.random.default_rng(seed)
        self.num_perms = int(num_perms)
        self.exact_family = bool(exact_family)
        self.a = rng.integers(1, int(_P), size=num_perms, dtype=np.uint64)
        self.b = rng.integers(0, int(_P), size=num_perms, dtype=np.uint64)

    def _permute(self, h: np.ndarray) -> np.ndarray:
        """(s,) hashes -> (s, num_perms) permuted values."""
        if self.exact_family:
            prod = _mulmod_mersenne61(h[:, None], self.a[None, :])
            with np.errstate(over="ignore"):
                s = prod + self.b[None, :]  # both < p: sum < 2^62, no wrap
            return np.where(s >= _P, s - _P, s)
        with np.errstate(over="ignore"):
            # deterministic mix, not the exact mod-p family — see module
            # docstring for why (uint64 wraparound before the mod)
            return (h[:, None] * self.a[None, :] + self.b[None, :]) % _P

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        """(s,) uint64 shingle hashes -> (num_perms,) uint64 signature."""
        h = np.asarray(shingle_hashes, dtype=np.uint64) % _P
        if h.size == 0:
            return np.full(self.num_perms, np.iinfo(np.uint64).max, dtype=np.uint64)
        return self._permute(h).min(axis=0)

    def signatures(self, flat_hashes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Vectorized per-row signatures.

        flat_hashes: concatenated shingle hashes of all rows in a batch;
        offsets: (n+1,) row boundaries. Returns (n, num_perms) uint64.
        Empty rows get the max-uint64 sentinel signature.
        """
        n = len(offsets) - 1
        out = np.full((n, self.num_perms), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(flat_hashes) == 0:
            return out
        h = np.asarray(flat_hashes, dtype=np.uint64) % _P
        vals = self._permute(h)  # (S, P)
        lengths = np.diff(offsets)
        nonempty = lengths > 0
        starts = offsets[:-1][nonempty]
        mins = np.minimum.reduceat(vals, starts, axis=0)
        out[nonempty] = mins
        return out

    def band_keys(self, sigs: np.ndarray, bands: int) -> np.ndarray:
        """(n, num_perms) signatures -> (n, bands) uint64 band bucket keys."""
        from epichypersketch_jl_ray.functions.hashing import hash_combine, splitmix64

        r = self.num_perms // bands
        n = sigs.shape[0]
        keys = np.empty((n, bands), dtype=np.uint64)
        for b in range(bands):
            chunk = sigs[:, b * r : (b + 1) * r]
            acc = splitmix64(np.full(n, np.uint64(b)))
            for c in range(r):
                acc = hash_combine(acc, chunk[:, c])
            keys[:, b] = acc
        return keys


def simhash64(token_hashes: np.ndarray) -> int:
    """64-bit SimHash of one document's token hash multiset."""
    h = np.asarray(token_hashes, dtype=np.uint64)
    if h.size == 0:
        return 0
    bits = np.unpackbits(h[:, None].astype(">u8").view(np.uint8), axis=1).astype(np.float64)
    bits = bits.reshape(len(h), 64)
    v = (bits * 2.0 - 1.0).sum(axis=0)
    out_bits = (v > 0).astype(np.uint8)
    return int(np.packbits(out_bits).view(">u8")[0])


def simhash64_batch(flat_hashes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorized per-row simhash. flat_hashes concatenated, offsets (n+1,)."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    if len(flat_hashes) == 0:
        return out
    h = np.asarray(flat_hashes, dtype=np.uint64)
    signs = (
        np.unpackbits(h[:, None].astype(">u8").view(np.uint8), axis=1)
        .reshape(len(h), 64)
        .astype(np.int32)
        * 2
        - 1
    )
    lengths = np.diff(offsets)
    nonempty = lengths > 0
    starts = offsets[:-1][nonempty]
    sums = np.add.reduceat(signs, starts, axis=0)
    bits = (sums > 0).astype(np.uint8)
    out[nonempty] = np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)
    return out


def hamming_distance64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of XOR between uint64 arrays."""
    x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    return np.unpackbits(x[:, None].astype(">u8").view(np.uint8), axis=1).sum(axis=1)
