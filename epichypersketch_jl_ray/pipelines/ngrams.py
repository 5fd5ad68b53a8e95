"""Heavy-hitter token n-grams over the documents table — the webtext
adaptation of the reference's CMS counting (SURVEY.md §1.3: sequences derived
from text are counted, selected against min_count, and extracted).

Pass 1: map_batches → per-batch sparse CMS partial over hashed trigrams
        (one CMS insert per n-gram occurrence, reference count! semantics).
Pass 2: broadcast the merged CMS's cells >= min_count (CountMin.at_least);
        re-derive n-grams per batch, keep those with
        estimate >= min_count, emit (ngram, estimate); a small groupby
        dedupes across batches (selected set is tiny by construction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from epichypersketch_jl_ray.functions.text import (
    hash_strings_fast,
    ngram_hashes,
    token_hashes,
    tokenize,
)
from epichypersketch_jl_ray.sources.tables import read_table
from epichypersketch_jl_ray.stages.udaf import partial_states, tree_merge
from epichypersketch_jl_ray.state.countmin import CountMin

NGRAM_SEED = 777
# collision-free at test scale (see pipelines/motifs.py docstring)
NGRAM_DELTA = 1e-4
NGRAM_EPSILON = 6.5e-7


def _cms_factory(
    seed: int = NGRAM_SEED, delta: float = NGRAM_DELTA, epsilon: float = NGRAM_EPSILON
) -> CountMin:
    return CountMin(1, delta=delta, epsilon=epsilon, seed=seed)


def _ngram_hash_u64(texts, n: int) -> tuple[np.ndarray, np.ndarray]:
    flat, off = token_hashes(texts)
    return ngram_hashes(flat, off, n)


def heavy_ngrams(
    sf_dir: str,
    *,
    n: int = 3,
    min_count: int = 3,
    text_col: str = "text",
    table: str = "documents",
    batch_size: int = 4096,
    delta: float = NGRAM_DELTA,
    epsilon: float = NGRAM_EPSILON,
):
    """Distinct token n-grams whose CMS estimate >= min_count (Dataset —
    the cross-batch dedupe is a distributed groupby over the already
    thresholded pass-2 output, so the driver never materializes the
    selection even when min_count is small relative to the corpus)."""
    ds = read_table(sf_dir, table, columns=[text_col])

    def partial(batch: pa.Table) -> CountMin:
        ng, _ = _ngram_hash_u64(batch[text_col], n)
        return _cms_factory(delta=delta, epsilon=epsilon).add_keys(ng)

    merged = tree_merge(partial_states(ds, partial, batch_size=batch_size), CountMin)
    cms_ref = ray.put(merged.at_least(min_count))  # the cells a select can pass

    def select(batch: pa.Table) -> pa.Table:
        from epichypersketch_jl_ray.stages.udaf import broadcast_get

        cms: CountMin = broadcast_get(cms_ref)
        toks = tokenize(batch[text_col])  # tokenized ONCE; hashes derive from it
        flat_h = hash_strings_fast(toks.flatten())
        off = np.asarray(toks.offsets, dtype=np.int64)
        ng, _ = ngram_hashes(flat_h, off, n)
        if len(ng) == 0:
            return pa.table(
                {
                    "h": pa.array([], pa.int64()),
                    "ngram": pa.array([], pa.string()),
                    "batch_n": pa.array([], pa.int64()),
                }
            )
        uniq, first, cnt = np.unique(ng, return_index=True, return_counts=True)
        est = cms.estimate_keys(uniq)
        sel = est >= min_count
        keep = first[sel]
        # rebuild the n-gram strings for the selected occurrences
        lengths = np.asarray(toks.value_lengths(), dtype=np.int64)
        t_off = np.concatenate(([0], np.cumsum(lengths)))
        out_lengths = np.maximum(lengths - (n - 1), 0)
        o_off = np.concatenate(([0], np.cumsum(out_lengths)))
        row_ids = np.searchsorted(o_off, keep, side="right") - 1
        starts = t_off[row_ids] + (keep - o_off[row_ids])
        flat_tokens = toks.flatten()
        parts = [pc.take(flat_tokens, pa.array(starts + j)) for j in range(n)]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, " ")
        return pa.table(
            {
                "h": pa.array(uniq[sel].view(np.int64), pa.int64()),
                "ngram": joined,
                "batch_n": pa.array(cnt[sel].astype(np.int64), pa.int64()),
            }
        )

    # pass 2 selects, it doesn't enumerate — a larger batch just means fewer
    # duplicate (ngram, batch_n) rows entering the dedupe shuffle and fewer
    # tasks
    out = ds.map_batches(select, batch_format="pyarrow", batch_size=4 * batch_size)
    return _dedupe_selected(out, ["ngram"], min_count=min_count)


def heavy_ngrams_by_lang(
    sf_dir: str,
    *,
    n: int = 3,
    min_count: int = 3,
    batch_size: int = 4096,
):
    """Grouped heavy hitters: (lang, trigram) pairs with CMS estimate >=
    min_count — the north_star's lang-keyed heavy-hitter query
    (BASELINE.json), CMS-keyed by hash_combine(lang, ngram) so grouping costs
    no extra pass and skewed langs are just hot counter cells."""
    from epichypersketch_jl_ray.functions.hashing import fnv1a64, hash_combine

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def keys_of(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        lang_h = fnv1a64(batch["lang"])
        flat, off = token_hashes(batch["text"])
        ng, ng_off = ngram_hashes(flat, off, n)
        row_lang = np.repeat(lang_h, np.diff(ng_off))
        return hash_combine(row_lang, ng), ng_off, batch["lang"]

    def partial(batch: pa.Table) -> CountMin:
        keys, _, _ = keys_of(batch)
        return _cms_factory(seed=NGRAM_SEED + 1).add_keys(keys)

    merged = tree_merge(partial_states(ds, partial, batch_size=batch_size), CountMin)
    cms_ref = ray.put(merged.at_least(min_count))  # the cells a select can pass

    def select(batch: pa.Table) -> pa.Table:
        from epichypersketch_jl_ray.stages.udaf import broadcast_get

        cms: CountMin = broadcast_get(cms_ref)
        toks = tokenize(batch["text"])  # tokenized ONCE; keys derive from it
        lang_h = fnv1a64(batch["lang"])
        flat_h = hash_strings_fast(toks.flatten())
        off = np.asarray(toks.offsets, dtype=np.int64)
        ng, ng_off = ngram_hashes(flat_h, off, n)
        keys = hash_combine(np.repeat(lang_h, np.diff(ng_off)), ng)
        lang = batch["lang"]
        if len(keys) == 0:
            return pa.table(
                {
                    "h": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "ngram": pa.array([], pa.string()),
                    "batch_n": pa.array([], pa.int64()),
                }
            )
        uniq, first, cnt = np.unique(keys, return_index=True, return_counts=True)
        est = cms.estimate_keys(uniq)
        sel = est >= min_count
        keep = first[sel]
        lengths = np.asarray(toks.value_lengths(), dtype=np.int64)
        t_off = np.concatenate(([0], np.cumsum(lengths)))
        out_lengths = np.maximum(lengths - (n - 1), 0)
        o_off = np.concatenate(([0], np.cumsum(out_lengths)))
        row_ids = np.searchsorted(o_off, keep, side="right") - 1
        starts = t_off[row_ids] + (keep - o_off[row_ids])
        flat_tokens = toks.flatten()
        parts = [pc.take(flat_tokens, pa.array(starts + j)) for j in range(n)]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, " ")
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        return pa.table(
            {
                "h": pa.array(uniq[sel].view(np.int64), pa.int64()),
                "lang": pc.take(lang, pa.array(row_ids)),
                "ngram": joined,
                "batch_n": pa.array(cnt[sel].astype(np.int64), pa.int64()),
            }
        )

    # coarse select batches: fewer duplicate (lang, ngram, batch_n) rows
    # into the dedupe shuffle and fewer tasks (see heavy_ngrams)
    out = ds.map_batches(select, batch_format="pyarrow", batch_size=4 * batch_size)
    return _dedupe_selected(out, ["lang", "ngram"], min_count=min_count)


def _dedupe_selected(
    out, payload_cols: list[str], *, min_count: int, dedupe_partitions: int = 8
):
    """Exact-verify + dedupe of the thresholded pass-2 selection
    (sketch-prune + exact-verify, same pattern as pipelines/motifs.py).

    Pass 2 emits each CMS-selected n-gram once per batch with its per-batch
    occurrence count (``batch_n``); CMS never underestimates, so the
    selected set is a superset of the true survivors. Pre-combine locally
    per block (the combiner-before-groupby pattern), then one small groupby
    keyed on the int64 hash sums the counts — the sum IS the exact global
    count, so the final filter drops CMS false survivors and ``estimate``
    is exact at ANY corpus size (a fixed 'collision-free' geometry is not:
    the birthday term (N/cols)^rows grows with distinct-key count N).
    ``dedupe_partitions`` spreads the sort of the selected set; the
    selected set is the thresholded output, orders of magnitude below the
    corpus, so a fixed small partition count holds — raise it along with
    min_count if the selection itself is corpus-scale.
    """
    import pyarrow.compute as _pc
    from ray.data.aggregate import Min, Sum

    def local_combine(batch: pa.Table) -> pa.Table:
        h = batch["h"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs = h[order]
        uniq, start = np.unique(hs, return_index=True)
        bn = batch["batch_n"].to_numpy(zero_copy_only=False)[order]
        sums = np.add.reduceat(bn, start) if len(hs) else bn
        combined = batch.take(pa.array(order[start], pa.int64()))
        return combined.set_column(
            combined.schema.get_field_index("batch_n"),
            "batch_n",
            pa.array(sums.astype(np.int64), pa.int64()),
        )

    aggs = [Min(c, alias_name=c) for c in payload_cols]
    agg = (
        out.repartition(dedupe_partitions)
        .map_batches(local_combine, batch_format="pyarrow", batch_size=None)
        .groupby("h")
        .aggregate(*aggs, Sum("batch_n", alias_name="estimate"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.set_column(
            batch.schema.get_field_index("estimate"),
            "estimate",
            batch["estimate"].cast(pa.int64()),
        )
        keep = _pc.greater_equal(batch["estimate"], min_count)
        return batch.filter(keep).drop_columns(["h"])

    return agg.map_batches(finish, batch_format="pyarrow")


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
