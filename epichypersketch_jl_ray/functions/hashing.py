"""Deterministic vectorized 64-bit hashing.

All sketches consume pre-hashed uint64 keys produced here. The primitives are
chosen for cross-process determinism (no PYTHONHASHSEED dependence, no
library-version-dependent hash): FNV-1a over UTF-8 bytes for strings,
splitmix64 for integer mixing / combining. String hashing is vectorized
column-wise over a batch (O(max_len) numpy ops per batch, each over the rows
that long) — no per-row Python loop in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)


_SM_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
    (np.uint64(31), None),
)


def splitmix64(
    x: np.ndarray | int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al.); uint64 in/out.

    The result goes to ``out`` when given (``x`` itself may be ``out``), and
    the shifts to ``scratch`` (a uint64 array of the same shape): a caller
    that passes both mixes in place and allocates nothing.
    """
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(x, dtype=np.uint64), _SM_GAMMA, out=out)
        for shift, mult in _SM_ROUNDS:
            z ^= np.right_shift(z, shift, out=scratch)
            if mult is not None:
                z *= mult
        return z


_COMBINE_MULT = np.uint64(0xC2B2AE3D27D4EB4F)


def hash_combine(*parts: np.ndarray) -> np.ndarray:
    """Order-sensitive combine of several uint64 hash arrays (same length)."""
    acc = np.array(parts[0], dtype=np.uint64)
    scratch = np.empty_like(acc)
    for p in parts[1:]:
        combine_into(acc, np.asarray(p, dtype=np.uint64), scratch)
    return acc


def combine_into(acc: np.ndarray, part: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``hash_combine(acc, part)`` written into the uint64 array ``acc``;
    ``scratch`` (same shape, may be ``part`` itself) takes the mixer's
    shifts, so the combine allocates nothing."""
    with np.errstate(over="ignore"):
        acc *= _COMBINE_MULT
    acc ^= part
    return splitmix64(acc, out=acc, scratch=scratch)


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


def _as_string_array(strings) -> pa.Array:
    """A pyarrow string/binary array (one chunk) from an Arrow array or
    chunked array, a numpy object array of str/bytes, or a list."""
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    if not isinstance(strings, pa.Array):
        strings = pa.array(strings, type=pa.string())
    t = strings.type
    if not (pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t)):
        raise TypeError(f"unsupported arrow type for string hashing: {t}")
    return strings


def fnv1a64(strings) -> np.ndarray:
    """FNV-1a 64-bit hash of each string/binary element, vectorized.

    Accepts a pyarrow (chunked) string/binary array, a numpy object array of
    str/bytes, or a list. Nulls hash to the empty-string hash.
    """
    offsets, values = _string_buffers(_as_string_array(strings))
    return _fnv1a64_rows(offsets[:-1], offsets[1:] - offsets[:-1], values)


def _fnv1a64_rows(
    starts: np.ndarray,
    lengths: np.ndarray,
    values: np.ndarray,
    offset_basis: np.uint64 = _FNV_OFFSET,
    prime: np.uint64 = _FNV_PRIME,
) -> np.ndarray:
    """FNV-1a over the byte ranges ``values[starts[i]:starts[i] + lengths[i]]``
    with a caller-chosen basis/prime (``content_hash128``'s fallback runs a
    second, independent pass), splitmix64-finalized: FNV-1a has weak
    avalanche in the high bits, and HLL buckets by the TOP p bits.

    The rows are sorted by length once, longest first, so the rows that
    still have a byte j are a prefix of that order: byte j costs one gather
    (at the rows' starts, from the buffer shifted by j), one xor and one
    multiply over that prefix, in place, with no mask over every row."""
    order = np.argsort(-lengths, kind="stable")
    # live[j]: how many rows are longer than j bytes
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left")
    h = np.full(len(lengths), offset_basis, dtype=np.uint64)
    starts = starts[order]
    byte = np.empty(len(lengths), dtype=np.uint8)
    with np.errstate(over="ignore"):
        for j, k in enumerate(live.tolist()):
            # every index is in range; with ``out``, numpy buffers a take
            # unless its mode is "clip" or "wrap" (about 2x slower)
            np.take(values[j:], starts[:k], out=byte[:k], mode="clip")
            h[:k] ^= byte[:k]
            h[:k] *= prime
    out = np.empty_like(h)
    out[order] = h
    return splitmix64(out, out=out, scratch=h)


# (1 << 8*len) - 1: keeps a string's own bytes of its 8-byte window
_LEN_MASKS = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


# splitmix64(len) of a string of len <= 8 bytes
_LEN_MIX = splitmix64(np.arange(9, dtype=np.uint64))


def hash_strings_fast(strings) -> np.ndarray:
    """Deterministic uint64 hash of short strings, vectorized without masked
    passes: a string of <= 8 bytes is read as ONE little-endian uint64 (a
    single gather of the 8-byte window at its start, over a buffer padded
    with 8 zero bytes, AND a per-length mask) and mixed with its length
    through splitmix64. Strings over 8 bytes fall back to fnv1a64. Used
    for TOKEN hashing (tokens are short); NOT interchangeable with fnv1a64
    values.
    """
    offsets, values = _string_buffers(_as_string_array(strings))
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    # per-STRING fallback (never per-batch: the same string must hash
    # identically regardless of what else shares its batch)
    long_idx = np.flatnonzero(lengths > 8)
    long_hashes = _fnv1a64_rows(starts[long_idx], lengths[long_idx], values)
    # the padding keeps the window of a string that ends the buffer (a
    # zero-length one included) in bounds
    padded = np.empty(len(values) + 8, dtype=np.uint8)
    padded[: len(values)] = values
    padded[len(values) :] = 0
    # the window at every byte offset as one unaligned uint64 array: numpy
    # gathers it about 2x faster than 8-byte rows of a strided byte view
    windows = np.ndarray((len(values) + 1,), dtype="<u8", buffer=padded, strides=(1,))
    out = windows[starts]
    # every pass runs in place: a fresh batch-sized array costs its page
    # faults, about as much as the pass itself. A longer string's mask and
    # length mix are wrong here, but its hash is the fallback's
    short = np.minimum(lengths, 8, out=lengths)
    scratch = _LEN_MASKS.take(short)
    out &= scratch
    _LEN_MIX.take(short, out=scratch, mode="clip")  # in range: see _fnv1a64_rows
    out += scratch
    splitmix64(out, out=out, scratch=scratch)
    out[long_idx] = long_hashes
    return out


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
    strings = _as_string_array(strings)
    try:
        import polars as pl

        s = pl.from_arrow(strings)
        return (
            s.hash(seed=0).to_numpy().astype(np.uint64),
            s.hash(seed=0x9E3779B9).to_numpy().astype(np.uint64),
        )
    except ImportError:
        offsets, values = _string_buffers(strings)
        starts, lengths = offsets[:-1], offsets[1:] - offsets[:-1]
        return (
            _fnv1a64_rows(starts, lengths, values),
            _fnv1a64_rows(starts, lengths, values, np.uint64(0x6C62272E07BB0142), _FNV_PRIME),
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
