"""Heavy-hitter token n-grams over the documents table — the webtext
adaptation of the reference's CMS counting (SURVEY.md §1.3: sequences derived
from text are counted, selected against min_count, and extracted).

Pass 1: one fold task per block of the read (stages/udaf.fold_blocks):
        a sparse CMS partial per batch over hashed trigrams (one CMS insert
        per n-gram occurrence, reference count! semantics), folded to one
        state per block and merged.
Pass 2: broadcast the merged CMS's cells >= min_count (CountMin.at_least)
        to one select task per run of consecutive blocks of a second read
        (stages/udaf.select_blocks over block_groups, each run at least
        one slice of 4 x batch_size rows); re-derive n-grams per slice, keep
        those with estimate >= min_count and emit each once per slice with
        its slice count (``batch_n``).
Recount: the select blocks' refs go through the exact-recount tail
        every CMS query shares (stages/udaf.exact_recount): ``batch_n``
        summed per n-gram hash is the exact corpus count, so CMS false
        survivors drop and ``estimate`` is exact at any corpus size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from epichypersketch_jl_ray.functions.hashing import fnv1a64, hash_combine
from epichypersketch_jl_ray.functions.text import (
    hash_strings_fast,
    ngram_hashes,
    ngram_strings,
    ngram_tokens,
)
from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.stages.udaf import (
    block_groups,
    block_refs,
    exact_recount,
    fold_blocks,
    select_blocks,
)
from epichypersketch_jl_ray.state.countmin import CountMin

NGRAM_SEED = 777
# collision-free at test scale (see pipelines/motifs.py docstring)
NGRAM_DELTA = 1e-4
NGRAM_EPSILON = 6.5e-7
TABLE = "documents"
TEXT_COL = "text"


def heavy_ngrams(sf_dir: str, *, n: int = 3, min_count: int = 3, batch_size: int = 4096):
    """Distinct token n-grams occurring at least min_count times, with their
    exact count (``ngram``, ``estimate``): CMS count → select → exact
    recount (module docstring)."""
    return _heavy_ngrams(sf_dir, None, NGRAM_SEED, n=n, min_count=min_count, batch_size=batch_size)


def heavy_ngrams_by_lang(sf_dir: str, *, n: int = 3, min_count: int = 3, batch_size: int = 4096):
    """Grouped heavy hitters: (lang, trigram) pairs occurring at least
    min_count times — the north_star's lang-keyed heavy-hitter query
    (BASELINE.json), CMS-keyed by hash_combine(lang, ngram) so grouping costs
    no extra pass and skewed langs are just hot counter cells."""
    return _heavy_ngrams(
        sf_dir, "lang", NGRAM_SEED + 1, n=n, min_count=min_count, batch_size=batch_size
    )


def _heavy_ngrams(
    sf_dir: str, group_col: str | None, seed: int, *, n: int, min_count: int, batch_size: int
):
    """CMS count → select → exact recount of n-grams keyed by the n-gram
    hash, or by ``hash_combine(fnv1a64(group), ngram)`` with a group column."""
    group = [group_col] if group_col else []
    ds = read_table(sf_dir, TABLE, columns=group + [TEXT_COL])

    def keys_of(batch: pa.Table):
        """CMS key of every n-gram occurrence, with its tokens (tokenized
        once; the hashes derive from them) and (row, first token) index."""
        toks, row_ids, starts = ngram_tokens(batch[TEXT_COL], n)
        flat = toks.flatten()
        off = np.asarray(toks.offsets, dtype=np.int64)
        keys, _ = ngram_hashes(hash_strings_fast(flat), off, n)
        if group_col:
            keys = hash_combine(fnv1a64(batch[group_col])[row_ids], keys)
        return keys, flat, row_ids, starts

    # read at call time, so a test can coarsen the sketch of both queries
    delta, epsilon = NGRAM_DELTA, NGRAM_EPSILON

    def count(batch: pa.Table) -> CountMin:
        return CountMin(1, delta=delta, epsilon=epsilon, seed=seed).add_keys(keys_of(batch)[0])

    merged = fold_blocks(block_refs(ds), count, CountMin, batch_size=batch_size)

    def selector(cms: CountMin):
        def select(batch: pa.Table) -> pa.Table:
            keys, flat, row_ids, starts = keys_of(batch)
            uniq, first, cnt = np.unique(keys, return_index=True, return_counts=True)
            sel = cms.estimate_keys(uniq) >= min_count
            keep = first[sel]
            cols = {"h": pa.array(uniq[sel].view(np.int64), pa.int64())}
            for c in group:
                cols[c] = pc.take(batch[c], pa.array(row_ids[keep]))
            cols["ngram"] = ngram_strings(flat, starts[keep], n)
            cols["batch_n"] = pa.array(cnt[sel].astype(np.int64), pa.int64())
            return pa.table(cols)

        return select

    def recount(tbl: pa.Table) -> pa.Table:
        """One row per n-gram hash whose summed ``batch_n`` reaches
        min_count: its payload columns and ``estimate`` = that sum."""
        _, first, inv = np.unique(tbl["h"].to_numpy(), return_index=True, return_inverse=True)
        exact = np.bincount(inv, tbl["batch_n"].to_numpy(), len(first)).astype(np.int64)
        keep = exact >= min_count
        out = tbl.select(group + ["ngram"]).take(pa.array(first[keep]))
        return out.append_column("estimate", pa.array(exact[keep], pa.int64()))

    # pass 2 selects, it doesn't enumerate: a larger slice means fewer
    # duplicate rows per n-gram in the selection. So each select task takes
    # consecutive blocks of a second read up to one slice, whatever number
    # of blocks the read cut the table into
    rows = 4 * batch_size
    refs, n_selected = select_blocks(
        block_groups(ds, rows), selector, merged.at_least(min_count), batch_size=rows
    )
    schema = pa.schema(
        [("h", pa.int64())]
        + [(c, pa.string()) for c in group]
        + [("ngram", pa.string()), ("batch_n", pa.int64())]
    )
    return exact_recount(refs, n_selected, recount, schema=schema, key_cols=["h"])


def heavy_ngrams_by_lang_sql(n: int = 3, min_count: int = 3) -> str:
    assert n == 3
    return f"""
WITH t AS (SELECT lang, string_split(text, ' ') AS toks FROM documents),
g AS (SELECT lang, toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS ngram
      FROM t, LATERAL unnest(range(1, len(toks) - 1)) r(i))
SELECT lang, ngram, COUNT(*) AS estimate FROM g GROUP BY 1, 2 HAVING COUNT(*) >= {min_count}
"""


def heavy_ngrams_sql(n: int = 3, min_count: int = 3) -> str:
    assert n == 3
    return f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
g AS (SELECT toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS ngram
      FROM t, LATERAL unnest(range(1, len(toks) - 1)) r(i))
SELECT ngram, COUNT(*) AS estimate FROM g GROUP BY ngram HAVING COUNT(*) >= {min_count}
"""
