"""Vectorized text operators: tokenization, n-grams, shingles, quality
features, language-ID heuristic, fingerprinting.

Tokenization is a plain single-space split so the Ray pipelines and the
DuckDB oracle SQL (``string_split(text, ' ')``) compute identical token
streams (the driver's correctness gate hashes both sides' values).

All functions take/return Arrow or numpy and are O(bytes) per batch; token
streams are represented as (flat values, offsets) pairs — the same
offsets+values layout the reference packs into its RefArray3D
(/root/reference/src/record.jl:147-191), except zero-copy from Arrow instead
of padded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from epichypersketch_jl_ray.functions.hashing import combine_into, fnv1a64, hash_strings_fast


def tokenize(texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Split on single spaces (DuckDB ``string_split(text, ' ')`` semantics)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    return pc.split_pattern(texts, pattern=" ")


def token_hashes(texts: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(flat uint64 token hashes, int64 offsets) per row (fast packed hash
    for short tokens, fnv fallback for long ones — see hash_strings_fast)."""
    toks = tokenize(texts)
    flat = toks.flatten()
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    return hash_strings_fast(flat), offsets


def ngram_hashes(
    flat_hashes: np.ndarray, offsets: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous n-gram hashes per row from flat token hashes.

    Returns (flat ngram uint64 hashes, int64 ngram offsets per row). Rows with
    fewer than n tokens produce zero n-grams.
    """
    flat_hashes = np.asarray(flat_hashes, dtype=np.uint64)
    lengths = np.diff(offsets)
    out_lengths = np.maximum(lengths - (n - 1), 0)
    out_offsets = np.concatenate(([0], np.cumsum(out_lengths)))
    total = int(out_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), out_offsets
    # global index of the first token of each ngram: a row's ngrams are
    # numbered on from its out_offset, its tokens from its offset
    starts = np.arange(total) + np.repeat(offsets[:-1] - out_offsets[:-1], out_lengths)
    acc = flat_hashes[starts]
    part = np.empty_like(acc)
    for j in range(1, n):
        # the j-th token of each ngram (in range; "clip" skips the buffered
        # bounds check numpy makes for a take into ``out``)
        np.take(flat_hashes[j:], starts, out=part, mode="clip")
        combine_into(acc, part, part)
    return acc, out_offsets


def ngram_tokens(
    texts: pa.Array | pa.ChunkedArray, n: int
) -> tuple[pa.ListArray, np.ndarray, np.ndarray]:
    """Token list array plus the (row_ids, starts) of each contiguous n-gram —
    used when the output must contain the n-gram *strings*, not hashes."""
    toks = tokenize(texts)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    out_lengths = np.maximum(lengths - (n - 1), 0)
    row_ids = np.repeat(np.arange(len(lengths)), out_lengths)
    within = (
        np.arange(int(out_lengths.sum())) - np.repeat(np.cumsum(out_lengths) - out_lengths, out_lengths)
    )
    starts = offsets[:-1][row_ids] + within
    return toks, row_ids, starts


def ngram_strings(flat_tokens: pa.Array, starts: np.ndarray, n: int) -> pa.Array:
    """The space-joined n-grams whose first token is ``flat_tokens[starts]``
    (``starts`` from ``ngram_tokens``; DuckDB ``toks[i] || ' ' || ...``)."""
    joined = pc.take(flat_tokens, pa.array(starts))
    for j in range(1, n):
        part = pc.take(flat_tokens, pa.array(starts + j))
        joined = pc.binary_join_element_wise(joined, part, " ")
    return joined


def word_shingle_hashes(
    texts: pa.Array | pa.ChunkedArray, n: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct word n-shingle hashes per row."""
    flat, offsets = token_hashes(texts)
    sh, sh_off = ngram_hashes(flat, offsets, n)
    return _dedupe_per_row(sh, sh_off)


def _dedupe_per_row(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate values within each row of a (flat, offsets) layout."""
    n = len(offsets) - 1
    if len(flat) == 0:
        return flat, offsets
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((flat, row_ids))
    rs, fs = row_ids[order], flat[order]
    keep = np.ones(len(fs), dtype=bool)
    keep[1:] = (rs[1:] != rs[:-1]) | (fs[1:] != fs[:-1])
    rs, fs = rs[keep], fs[keep]
    counts = np.bincount(rs, minlength=n)
    new_off = np.concatenate(([0], np.cumsum(counts)))
    return fs, new_off


# --- quality / language heuristics ----------------------------------------

_STOPWORDS = {
    "en": ("the", "a", "of", "and", "to", "in", "is", "it", "that", "for"),
    "de": ("der", "die", "das", "und", "ist", "ein", "zu", "den", "mit", "von"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "de", "du", "que"),
    "es": ("el", "la", "los", "las", "y", "es", "un", "una", "de", "que"),
    "zh": ("的", "是", "了", "在", "和", "有", "我", "不", "这", "他"),
}


def quality_features(texts: pa.Array | pa.ChunkedArray) -> dict[str, np.ndarray]:
    """Cheap quality-scoring features (length / punctuation / diversity).

    Matches the SQL-expressible definitions used by the DuckDB oracle:
    n_chars = length(text); n_tokens = len(string_split(text,' '));
    n_uniq_tokens = len(list_distinct(...)); ttr = n_uniq/n_tokens;
    top_token_share = max per-token count / n_tokens (unnest + groupby).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
    toks = tokenize(texts)
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    n_tokens = np.diff(offsets)
    flat = fnv1a64(toks.flatten())
    _, uniq_off = _dedupe_per_row(flat, offsets)
    n_uniq = np.diff(uniq_off)
    ttr = n_uniq / np.maximum(n_tokens, 1)
    # Gopher-style repetition signal: the share of the doc claimed by its
    # single most frequent token (boilerplate/spam pages score high).
    # Vectorized: sort (row, hash) pairs once, run-length the runs, max per
    # row — no per-row loop.
    n_rows = len(offsets) - 1
    top_share = np.zeros(n_rows, dtype=np.float64)
    if len(flat):
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), n_tokens)
        order = np.lexsort((flat, row_ids))
        rr, ff = row_ids[order], flat[order]
        new_run = np.empty(len(ff), dtype=bool)
        new_run[0] = True
        new_run[1:] = (ff[1:] != ff[:-1]) | (rr[1:] != rr[:-1])
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(ff)))
        top = np.zeros(n_rows, dtype=np.int64)
        np.maximum.at(top, rr[starts], run_len)
        top_share = top / np.maximum(n_tokens, 1)
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens.astype(np.int64),
        "n_uniq_tokens": n_uniq.astype(np.int64),
        "ttr": ttr.astype(np.float64),
        "top_token_share": top_share.astype(np.float64),
    }


def _per_row_run_lengths(
    hashes: np.ndarray, row_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(run lengths, row of each run) over (row, hash) groups after one
    lexsort — the shared kernel behind the repetition signals."""
    order = np.lexsort((hashes, row_ids))
    rr, hh = row_ids[order], hashes[order]
    new = np.ones(len(hh), dtype=bool)
    new[1:] = (hh[1:] != hh[:-1]) | (rr[1:] != rr[:-1])
    starts = np.flatnonzero(new)
    return np.diff(np.append(starts, len(hh))), rr[starts]


def _per_row_max(values: np.ndarray, rows_sorted: np.ndarray, n_rows: int) -> np.ndarray:
    """max(values) per row; ``rows_sorted`` must be ascending (reduceat, not
    the element-wise ufunc.at loop)."""
    out = np.zeros(n_rows, dtype=values.dtype)
    if len(values):
        new = np.ones(len(rows_sorted), dtype=bool)
        new[1:] = rows_sorted[1:] != rows_sorted[:-1]
        idx = np.flatnonzero(new)
        out[rows_sorted[idx]] = np.maximum.reduceat(values, idx)
    return out


def repetition_features(
    flat_hashes: np.ndarray, offsets: np.ndarray
) -> dict[str, np.ndarray]:
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1) from
    flat token hashes, all integer-derived so the DuckDB oracle match is
    exact (each fraction is one IEEE division):

    - ``top_bigram_share``: occurrences of the doc's most frequent bigram /
      bigram positions (boilerplate and keyword-stuffed pages score high);
    - ``dup_trigram_frac``: fraction of trigram positions whose trigram
      occurs >=2 times within the doc;
    - ``max_token_run``: longest run of consecutive identical tokens
      (generation loops / repeated-token spam).
    """
    lengths = np.diff(offsets)
    n_rows = len(lengths)

    bg, bgoff = ngram_hashes(flat_hashes, offsets, 2)
    nbg = np.diff(bgoff)
    top_bg = np.zeros(n_rows, dtype=np.float64)
    if len(bg):
        rl, rr = _per_row_run_lengths(bg, np.repeat(np.arange(n_rows), nbg))
        top_bg = _per_row_max(rl, rr, n_rows) / np.maximum(nbg, 1)

    tg, tgoff = ngram_hashes(flat_hashes, offsets, 3)
    ntg = np.diff(tgoff)
    dup_frac = np.zeros(n_rows, dtype=np.float64)
    if len(tg):
        rl, rr = _per_row_run_lengths(tg, np.repeat(np.arange(n_rows), ntg))
        keep = rl >= 2
        dup = np.zeros(n_rows, dtype=np.int64)
        if keep.any():
            rr2 = rr[keep]  # still ascending: rr is sorted
            new = np.ones(len(rr2), dtype=bool)
            new[1:] = rr2[1:] != rr2[:-1]
            idx = np.flatnonzero(new)
            dup[rr2[idx]] = np.add.reduceat(rl[keep], idx)
        dup_frac = dup / np.maximum(ntg, 1)

    max_run = np.zeros(n_rows, dtype=np.int64)
    if len(flat_hashes):
        row_ids = np.repeat(np.arange(n_rows), lengths)
        new = np.ones(len(flat_hashes), dtype=bool)
        new[1:] = (flat_hashes[1:] != flat_hashes[:-1]) | (row_ids[1:] != row_ids[:-1])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, len(flat_hashes)))
        max_run = _per_row_max(run_len, row_ids[starts], n_rows)

    return {
        "top_bigram_share": top_bg,
        "dup_trigram_frac": dup_frac,
        "max_token_run": max_run.astype(np.int64),
    }


def langid_scores(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Stopword-overlap language ID (n-gram heuristic, SURVEY.md graft ops).

    Returns the argmax language code per row ('und' when no stopword hits).
    Deterministic tie-break: language order as in _STOPWORDS.
    """
    flat, offsets = token_hashes(texts)
    langs = list(_STOPWORDS)
    scores = np.zeros((len(offsets) - 1, len(langs)), dtype=np.int64)
    row_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    for li, lang in enumerate(langs):
        marker = hash_strings_fast(pa.array(list(_STOPWORDS[lang])))
        hit = np.isin(flat, marker)
        if hit.any():
            scores[:, li] = np.bincount(row_ids[hit], minlength=len(offsets) - 1)
    best = scores.argmax(axis=1)
    out = np.array(langs, dtype=object)[best]
    out[scores.max(axis=1) == 0] = "und"
    return out


def winnow_fingerprints(
    texts: pa.Array | pa.ChunkedArray, k: int = 8, window: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing document fingerprints (Schleimer, Wilkerson, Aiken 2003).

    Selects the minimum shingle hash in every sliding window of ``window``
    consecutive k-shingles; returns distinct selected hashes per row.
    """
    sh, off = _raw_char_shingles(texts, k)
    n = len(off) - 1
    lengths = np.diff(off)
    win_lengths = np.maximum(lengths - (window - 1), 0)
    total = int(win_lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(n + 1, dtype=np.int64)
    row_ids = np.repeat(np.arange(n), win_lengths)
    within = np.arange(total) - np.repeat(np.cumsum(win_lengths) - win_lengths, win_lengths)
    starts = off[:-1][row_ids] + within
    mins = sh[starts]
    for j in range(1, window):
        np.minimum(mins, sh[starts + j], out=mins)
    win_off = np.concatenate(([0], np.cumsum(win_lengths)))
    return _dedupe_per_row(mins, win_off)


def _raw_char_shingles(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Char k-shingle hashes per row WITHOUT dedupe (winnowing needs order)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    from epichypersketch_jl_ray.functions.hashing import _string_buffers, splitmix64

    offsets, values = _string_buffers(texts)
    lengths = offsets[1:] - offsets[:-1]
    n_sh = np.maximum(lengths - (k - 1), 0)
    sh_off = np.concatenate(([0], np.cumsum(n_sh)))
    total = int(sh_off[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), sh_off
    row_ids = np.repeat(np.arange(len(lengths)), n_sh)
    within = np.arange(total) - np.repeat(sh_off[:-1], n_sh)
    starts = offsets[:-1][row_ids] + within
    acc = np.full(total, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc = (acc ^ values[starts + j].astype(np.uint64)) * np.uint64(0x100000001B3)
    return splitmix64(acc), sh_off
