"""Deterministic vectorized 64-bit hashing.

All sketches consume pre-hashed uint64 keys produced here. The primitives are
chosen for cross-process determinism (no PYTHONHASHSEED dependence, no
library-version-dependent hash): FNV-1a over UTF-8 bytes for strings,
splitmix64 for integer mixing / combining. String hashing is vectorized
column-wise over a batch (O(max_len) numpy ops per batch, each over all rows)
— no per-row Python loop in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al.); uint64 in/out."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def hash_combine(*parts: np.ndarray) -> np.ndarray:
    """Order-sensitive combine of several uint64 hash arrays (same length)."""
    acc = np.asarray(parts[0], dtype=np.uint64)
    for p in parts[1:]:
        with np.errstate(over="ignore"):
            acc = splitmix64(acc * np.uint64(0xC2B2AE3D27D4EB4F) ^ np.asarray(p, dtype=np.uint64))
    return acc


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, values uint8) for a pyarrow string/large_string/binary array."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset)[
        arr.offset :
    ].astype(np.int64)
    values = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return offsets, values


def fnv1a64(strings) -> np.ndarray:
    """FNV-1a 64-bit hash of each string/binary element, vectorized.

    Accepts a pyarrow (chunked) string/binary array, a numpy object array of
    str/bytes, or a list. Nulls hash to the empty-string hash.
    """
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if not isinstance(strings, pa.Array):
        strings = pa.array(strings, type=pa.string())
    if pa.types.is_string(strings.type) or pa.types.is_binary(strings.type) or pa.types.is_large_string(strings.type) or pa.types.is_large_binary(strings.type):
        offsets, values = _string_buffers(strings)
    else:
        raise TypeError(f"unsupported arrow type for fnv1a64: {strings.type}")
    n = len(strings)
    lengths = offsets[1:] - offsets[:-1]
    out = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if n == 0 or lengths.max(initial=0) == 0:
        return out
    max_len = int(lengths.max())
    starts = offsets[:-1]
    with np.errstate(over="ignore"):
        for j in range(max_len):
            active = lengths > j
            if not active.any():
                break
            idx = starts[active] + j
            out[active] = (out[active] ^ values[idx].astype(np.uint64)) * _FNV_PRIME
    # FNV-1a has weak avalanche in the high bits (HLL buckets by the TOP p
    # bits); a splitmix64 finalizer fixes the distribution
    return splitmix64(out)


# (1 << 8*len) - 1: keeps a string's own bytes of its 8-byte window
_LEN_MASKS = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


def hash_strings_fast(strings) -> np.ndarray:
    """Deterministic uint64 hash of short strings, vectorized without masked
    passes: a string of <= 8 bytes is read as ONE little-endian uint64 (a
    single gather of the 8-byte window at its start, over a buffer padded
    with 8 zero bytes, AND a per-length mask) and mixed with its length
    through splitmix64. Strings over 8 bytes fall back to fnv1a64. Used
    for TOKEN hashing (tokens are short); NOT interchangeable with fnv1a64
    values.
    """
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if not isinstance(strings, pa.Array):
        strings = pa.array(strings, type=pa.string())
    offsets, values = _string_buffers(strings)
    lengths = offsets[1:] - offsets[:-1]
    # the padding keeps the window of a string that ends the buffer (a
    # zero-length one included) in bounds
    padded = np.zeros(len(values) + 8, dtype=np.uint8)
    padded[: len(values)] = values
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(len(values) + 1, 8), strides=(1, 1), writeable=False
    )
    word = windows[offsets[:-1]].view("<u8").ravel() & _LEN_MASKS[np.minimum(lengths, 8)]
    with np.errstate(over="ignore"):
        out = splitmix64(word + splitmix64(lengths))
    # per-STRING fallback (never per-batch: the same string must hash
    # identically regardless of what else shares its batch)
    long_idx = np.flatnonzero(lengths > 8)
    if len(long_idx):
        out[long_idx] = fnv1a64(strings.take(pa.array(long_idx)))
    return out


def _fnv1a64_basis(strings: pa.Array, offset_basis: np.uint64, prime: np.uint64) -> np.ndarray:
    """FNV-1a byte loop with a caller-chosen basis/prime (second independent
    pass for the 128-bit content key fallback)."""
    offsets, values = _string_buffers(strings)
    n = len(strings)
    lengths = offsets[1:] - offsets[:-1]
    out = np.full(n, offset_basis, dtype=np.uint64)
    if n == 0 or lengths.max(initial=0) == 0:
        return splitmix64(out)
    starts = offsets[:-1]
    with np.errstate(over="ignore"):
        for j in range(int(lengths.max())):
            active = lengths > j
            if not active.any():
                break
            idx = starts[active] + j
            out[active] = (out[active] ^ values[idx].astype(np.uint64)) * prime
    return splitmix64(out)


def content_hash128(strings) -> tuple[np.ndarray, np.ndarray]:
    """Two independent vectorized uint64 hashes per string — the 128-bit
    content key for exact dedup. 64 bits collide at birthday scale (~2^32
    rows, well inside a 10^12-row corpus); two independent 64-bit passes
    push collisions past 2^64. Uses polars' C-vectorized hash (one pass per
    seed, no Python per row) when available, else a double FNV-1a pass.

    Keys are for WITHIN-RUN grouping; they are not a stable external format
    (the polars hash may change across polars versions — persist an md5/sha
    digest where a durable content address is required).
    """
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if not isinstance(strings, pa.Array):
        strings = pa.array(strings, type=pa.string())
    try:
        import polars as pl

        s = pl.from_arrow(strings)
        return (
            s.hash(seed=0).to_numpy().astype(np.uint64),
            s.hash(seed=0x9E3779B9).to_numpy().astype(np.uint64),
        )
    except ImportError:
        return (
            fnv1a64(strings),
            _fnv1a64_basis(
                strings, np.uint64(0x6C62272E07BB0142), np.uint64(0x100000001B3)
            ),
        )


def hash_int64(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic uint64 hash of an int64/uint64 array."""
    with np.errstate(over="ignore"):
        return splitmix64(np.asarray(x).astype(np.uint64) ^ splitmix64(np.uint64(seed)))


def rolling_gram_hashes(
    texts: "pa.Array | pa.ChunkedArray", gram_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """128-bit polynomial rolling hashes of every ``gram_len``-BYTE substring.

    Returns (h1, h2, row_ids, pos): two independent uint64 hashes per gram
    (position-independent — equal byte substrings hash equal anywhere in the
    corpus), the emitting row index, and the byte offset within the row.
    For ASCII text byte offsets equal character offsets (the fixture case;
    non-ASCII corpora get byte-offset span semantics).

    Vectorized over the batch's whole UTF-8 buffer: with odd base B (hence
    invertible mod 2^64), T[i] = Σ_{j<i} b[j]·B^j wraps naturally in uint64,
    and hash(l, l+L) = (T[l+L] − T[l]) · B^{−l} — two cumsum/cumprod passes
    and one gather per base, no per-row Python. Grams never cross row
    boundaries (positions stop at len(row) − L).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    offsets, values = _string_buffers(texts)
    n = len(offsets) - 1
    lengths = offsets[1:] - offsets[:-1]
    n_grams = np.maximum(lengths - (gram_len - 1), 0)
    total = int(n_grams.sum())
    if total == 0:
        e = np.empty(0, np.uint64)
        return e, e.copy(), np.empty(0, np.int64), np.empty(0, np.int64)

    row_ids = np.repeat(np.arange(n, dtype=np.int64), n_grams)
    gram_off = np.cumsum(n_grams) - n_grams
    pos = np.arange(total, dtype=np.int64) - np.repeat(gram_off, n_grams)
    l = offsets[:-1][row_ids] + pos  # absolute buffer start of each gram

    b = values.astype(np.uint64)
    m = len(values)
    h_out: list[np.ndarray] = []
    with np.errstate(over="ignore"):
        for base in (np.uint64(0x9E3779B97F4A7C55), np.uint64(0xC2B2AE3D27D4EB4F)):
            # modular inverse of the odd base via Newton (x *= 2 - B*x)
            inv = base
            for _ in range(6):
                inv = inv * (np.uint64(2) - base * inv)
            pw = np.empty(m, dtype=np.uint64)
            pw[0] = np.uint64(1)
            np.cumprod(np.full(m - 1, base, dtype=np.uint64), out=pw[1:]) if m > 1 else None
            ipw = np.empty(m, dtype=np.uint64)
            ipw[0] = np.uint64(1)
            np.cumprod(np.full(m - 1, inv, dtype=np.uint64), out=ipw[1:]) if m > 1 else None
            t = np.concatenate(([np.uint64(0)], np.cumsum(b * pw, dtype=np.uint64)))
            h = (t[l + gram_len] - t[l]) * ipw[l]
            # finalize so near-equal polynomials don't correlate across bases
            h_out.append(splitmix64(h))
    return h_out[0], h_out[1], row_ids, pos
