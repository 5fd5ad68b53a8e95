"""Dedup pipelines over the documents table (exact / MinHash-LSH / SimHash /
exact n-gram Jaccard)."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.functions.text import word_shingle_hashes
from epichypersketch_jl_ray.sources.tables import read_table, table_dataset, table_rows
from epichypersketch_jl_ray.stages.ann import cosine_sql, quantize_cosine
from epichypersketch_jl_ray.stages.dedup import (
    SignatureStage,
    attach_list_column,
    candidate_pairs_from_band,
    content_key_table,
    jaccard_verify_batch,
    merge_pair_counts,
    simhash_candidates_from_chunk,
)
from epichypersketch_jl_ray.stages.exchange import (
    group_aggregate,
    hash_partition,
    map_buckets,
)
from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units
from epichypersketch_jl_ray.state.minhash import hamming_distance64

SHINGLE_N = 3


def _shingle_table(batch: pa.Table) -> pa.Table:
    """(doc_id, shingles list<int64>) — distinct word-SHINGLE_N-gram hashes
    per document; computed ONCE and reused by banding/prefix emission and
    exact verification."""
    sh, off = word_shingle_hashes(batch["text"], n=SHINGLE_N)
    lists = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), pa.int32()), pa.array(sh.view(np.int64), pa.int64())
    )
    return pa.table({"doc_id": batch["doc_id"], "shingles": lists})


def dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup: group on a vectorized 128-bit content hash, keep min
    doc_id (one hash exchange on the hash + an Arrow group-by per bucket —
    the standard exact-dedup shuffle). The key is content_hash128 (two
    independent uint64 passes, no per-row Python in the keying scan of the
    whole corpus); the oracle groups by text itself, so the compare is on
    (keep_id, dup_count) — the hash columns are engine-internal and dropped
    from the output inside the bucket task."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    keys = ["h1", "h2"]

    return group_aggregate(
        ds.map_batches(content_key_table, batch_format="pyarrow"),
        keys,
        {"keep_id": ("doc_id", "min"), "dup_count": ([], "count_all")},
        table_rows(sf_dir, "documents"),
        then=lambda t: t.drop_columns(keys),
    )


def dedup_exact_sql() -> str:
    return """
SELECT MIN(doc_id) AS keep_id, COUNT(*) AS dup_count
FROM documents GROUP BY text
"""


def dedup_incremental(
    sf_dir: str,
    *,
    prior_mod: int = 3,
    table: str = "documents",
    fp_rate: float = 1e-4,
    bloom_capacity: int | None = None,
) -> ray.data.Dataset:
    """Snapshot-incremental exact dedup — the "dedupe today's crawl against
    everything already ingested" operator (AI2 Dolma's BFF runs a plain
    Bloom and accepts false-positive drops; here the Bloom is only a PRUNE
    and every bloom-hit is verified exactly, so the output is exact).

    The prior snapshot is the ``doc_id % prior_mod == 0`` slice, the rest
    is the new snapshot; output is the new docs whose content does not
    appear in the prior snapshot. Plan:

    1. ONE text pass keys every doc (128-bit content hash) and materializes
       the tiny key table (~25 B/doc — at 1e10 docs ~250 GB across the
       cluster's object store vs re-reading 100 TB of text per pass; every
       later stage reads keys, never text);
    2. the prior slice's folded keys build mergeable Bloom partials
       (one fold task per key block via sketch_dataset → ONE broadcast
       filter); capacity
       sizes from the table row count (a free metadata upper bound);
    3. new docs probe the Bloom per batch: misses are DEFINITELY novel
       (no false negatives) and stream straight to the output — zero
       shuffle for the overwhelmingly common novel-doc case;
    4. bloom hits (true dups + ~fp_rate of the novel, plus any 128→64
       fold aliases) are candidate rows verified against the prior (h1, h2)
       key rows after one hash exchange on (h1, h2) — candidate-scale
       traffic.

    The Bloom is O(bits) broadcast once and the verify shuffle carries only
    bloom-hit candidates. ``bloom_capacity`` exists for tests to force a
    saturated (high-fp) Bloom and exercise the verify path at volume."""
    from epichypersketch_jl_ray.functions.hashing import hash_combine
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset
    from epichypersketch_jl_ray.state.bloom import BloomFilter

    ds = read_table(sf_dir, table, columns=["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count
    cap = bloom_capacity or max(1 << 14, n_docs)

    # the ONE corpus text read: (doc_id, h1, h2) key table, then text drops
    keys = ds.map_batches(content_key_table, batch_format="pyarrow").materialize()

    def folded(batch: pa.Table) -> np.ndarray:
        return hash_combine(
            batch["h1"].to_numpy(zero_copy_only=False).view(np.uint64),
            batch["h2"].to_numpy(zero_copy_only=False).view(np.uint64),
        )

    def add_prior(bf: BloomFilter, batch: pa.Table) -> None:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sub = batch.filter(pa.array(ids % prior_mod == 0))
        if sub.num_rows:
            bf.add_hashed(folded(sub))

    bloom_ref = ray.put(
        sketch_dataset(keys, lambda: BloomFilter(capacity=cap, p=fp_rate, seed=77), add_prior, BloomFilter)
    )

    def novel_by_miss(batch: pa.Table) -> pa.Table:
        bf: BloomFilter = ray.get(bloom_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sub = batch.filter(pa.array(ids % prior_mod != 0))
        if sub.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        miss = ~bf.contains_hashed(folded(sub))
        out = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[miss]
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    def cand_rows(batch: pa.Table) -> pa.Table:
        bf: BloomFilter = ray.get(bloom_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        new_mask = ids % prior_mod != 0
        sub = batch.filter(pa.array(new_mask))
        prior = batch.filter(pa.array(~new_mask))
        # bloom-hit new rows keep their ids; prior keys travel with
        # doc_id = -1 (module sentinel convention)
        hit = bf.contains_hashed(folded(sub)) if sub.num_rows else np.zeros(0, bool)
        sub = sub.filter(pa.array(hit))
        h1 = np.concatenate(
            (
                sub["h1"].to_numpy(zero_copy_only=False),
                prior["h1"].to_numpy(zero_copy_only=False),
            )
        )
        h2 = np.concatenate(
            (
                sub["h2"].to_numpy(zero_copy_only=False),
                prior["h2"].to_numpy(zero_copy_only=False),
            )
        )
        d = np.concatenate(
            (
                sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                np.full(prior.num_rows, -1, np.int64),
            )
        )
        return pa.table(
            {
                "h1": pa.array(h1, pa.int64()),
                "h2": pa.array(h2, pa.int64()),
                "doc_id": pa.array(d, pa.int64()),
            }
        )

    def verify_bucket(group: pa.Table) -> pa.Table:
        h1 = group["h1"].to_numpy(zero_copy_only=False)
        h2 = group["h2"].to_numpy(zero_copy_only=False)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        if len(h1) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        order = np.lexsort((h2, h1))
        h1s, h2s, ds_ = h1[order], h2[order], d[order]
        new = np.ones(len(h1s), dtype=bool)
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        seg = np.cumsum(new) - 1
        n_seg = int(seg[-1]) + 1
        has_prior = np.bincount(seg[ds_ == -1], minlength=n_seg) > 0
        novel = ds_[(ds_ != -1) & ~has_prior[seg]]
        return pa.table({"doc_id": pa.array(novel, pa.int64())})

    cands = block_refs(keys.map_batches(cand_rows, batch_format="pyarrow"))
    survivors_fp = map_buckets(
        verify_bucket, hash_partition(cands, ["h1", "h2"], cpu_units(n_docs))
    )
    return keys.map_batches(novel_by_miss, batch_format="pyarrow").union(survivors_fp)


def dedup_incremental_sql(prior_mod: int = 3) -> str:
    return f"""
SELECT doc_id FROM documents d
WHERE doc_id % {prior_mod} <> 0
  AND NOT EXISTS (
    SELECT 1 FROM documents p
    WHERE p.doc_id % {prior_mod} = 0 AND p.text = d.text
  )
"""


def dedup_minhash_lsh(
    sf_dir: str,
    *,
    threshold: float = 0.5,
    num_perms: int = 128,
    bands: int = 64,
) -> ray.data.Dataset:
    """Near-dup pairs over the documents table (see minhash_pairs)."""
    return minhash_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=threshold,
        num_perms=num_perms,
        bands=bands,
    )


def minhash_pairs(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    num_perms: int = 128,
    bands: int = 64,
    exact_prune_cap: int = 1 << 16,
) -> ray.data.Dataset:
    """Near-dup pairs via MinHash-LSH banding + DISTRIBUTED exact Jaccard
    verification, over any (doc_id, text) Dataset.

    bands=64 x rows=2: P(candidate | J) = 1-(1-J^2)^64 — for J>=0.5 the miss
    probability is (3/4)^64 ~ 1e-8, so at fixture scale the verified output
    equals the exact-Jaccard oracle.

    Scale shape: ONE read of the corpus computes the shingle-hash table
    (hashes only — tiny relative to the text), materialized in the object
    store and reused by both the banding branch and verification. Candidate
    pairs are deduplicated with a distributed ``group_aggregate`` (not a
    driver drop_duplicates), the shingle side is semi-join pruned by a broadcast
    Bloom over candidate doc ids, then each pair is co-located with both
    docs' shingle lists via two bucketed attach passes on doc_id
    (stages.dedup.attach_list_column — an Arrow hash join can't carry list
    payloads), and exact Jaccard is computed vectorized per batch
    (stages.dedup.jaccard_verify_batch). No driver-side take_all of shingles
    and no per-pair Python loop — at 100 TB the candidate-pair set streams
    through the same shuffle machinery as any other table.
    """
    shingles = ds.map_batches(_shingle_table, batch_format="pyarrow").materialize()

    sig = SignatureStage(num_perms=num_perms, bands=bands, shingle_n=SHINGLE_N)

    def band_rows(batch: pa.Table) -> pa.Table:
        return sig.from_shingle_table(batch)

    # batch_size sizes PARALLELISM for the signature kernel (the pipeline's
    # single heaviest compute stage: S x num_perms permuted mins) — 2048
    # gave a 5k-doc corpus only ~3 tasks; 256 docs/task keeps every core fed
    # while the (S, num_perms) temp stays cache-friendly (~4 MB)
    exploded = shingles.map_batches(band_rows, batch_format="pyarrow", batch_size=256)
    banded = exploded.groupby("band_bucket").map_groups(
        candidate_pairs_from_band, batch_format="pyarrow"
    )
    # a pair can match in up to `bands` buckets: dedupe with a dedicated
    # distributed distinct BEFORE the attach shuffles, so the (possibly
    # ~bands×) duplicate volume never enters them. (Fusing the dedupe into
    # attach via dedupe_on measured slower for exactly that reason.)
    cand = group_aggregate(banded, ["doc_a", "doc_b"], {}, shingles.count())
    return _verify_jaccard_pairs(
        cand,
        shingles,
        threshold=threshold,
        exact_prune_cap=exact_prune_cap,
    )


def _verify_jaccard_pairs(
    cand: ray.data.Dataset,
    shingles: ray.data.Dataset,
    *,
    threshold: float,
    dedupe_in_attach: bool = False,
    exact_prune_cap: int = 1 << 16,
) -> ray.data.Dataset:
    """Shared exact-Jaccard verification tail: deduplicated candidate pairs
    (doc_a, doc_b) + the materialized shingle table -> verified pairs with
    jaccard >= threshold. Used by both the MinHash-LSH and the prefix-filter
    (AllPairs) pipelines — the candidate GENERATION differs, the
    verification shuffle shape is identical.

    Semi-join prune: only docs appearing in a candidate pair need their
    shingle row shuffled through the attach passes. A distributed Bloom
    over candidate doc ids is broadcast and filters the shingle side —
    false positives just ship a few harmless extra rows. Near-dups are
    rare relative to the corpus, so this keeps the attach shuffles
    candidate-scale instead of corpus-scale. Each pair is then co-located
    with both docs' shingle lists via two bucketed attach passes and exact
    Jaccard is computed vectorized per batch.

    ``dedupe_in_attach``: the candidate stream still contains duplicate
    pairs; fold the dedupe into the first attach shuffle (dedupe_on)
    instead of requiring a dedicated upstream groupby. Right when the
    duplication factor is small (prefix filtering: ~1-2x); wrong when it is
    large (minhash banding: up to bands x — there, dedupe FIRST so the
    duplicate volume never enters the attach shuffle).

    ``exact_prune_cap``: candidate-pair count up to which the semi-join
    prune uses the exact broadcast-membership path instead of the HLL+Bloom
    sketch path (set 0 to force the sketch path; equality of the two paths
    is pinned in tests).
    """
    import pyarrow.compute as pc

    from epichypersketch_jl_ray.functions.hashing import hash_int64
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset
    from epichypersketch_jl_ray.state.bloom import BloomFilter

    n_pairs = cand.count()
    if n_pairs == 0:
        # no candidates at all: empty pair set, typed like the
        # verified output (the downstream sketch/attach stages would
        # otherwise choke on a zero-partial merge)
        return table_dataset(
            pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    cap = max(1 << 14, 2 * n_pairs)

    # the semi-join prune only pays when the CANDIDATE DOCS are sparse
    # relative to the corpus (near-dups rare: the common web case). One
    # candidate-scale scan builds BOTH the distinct-candidate-doc estimator
    # (HLL — robust to the duplicate pairs the dedupe_in_attach path still
    # carries; a raw pair count would be inflated by the collision factor)
    # and the membership Bloom; the HLL decides whether pruning pays, and
    # with dense candidate structure the Bloom is simply discarded and the
    # attach reads the full shingle table.
    from epichypersketch_jl_ray.state.hll import HyperLogLog
    from epichypersketch_jl_ray.state.tuplestate import TupleState

    n_docs = shingles.count()

    if n_pairs <= exact_prune_cap:
        # small candidate set (the common near-dup case at any corpus size):
        # the distinct candidate-doc ids fit the driver EXACTLY — skip the
        # sketch pass entirely and prune by broadcast sorted-array membership
        # (one fewer Ray stage than the HLL+Bloom path, zero false positives)
        id_chunks: list[np.ndarray] = []
        for b in cand.iter_batches(batch_format="pyarrow"):
            id_chunks.append(np.asarray(b["doc_a"], dtype=np.int64))
            id_chunks.append(np.asarray(b["doc_b"], dtype=np.int64))
        ids = np.unique(np.concatenate(id_chunks))
        if len(ids) < 0.5 * n_docs:
            ids_ref = ray.put(ids)

            def prune_exact(batch: pa.Table) -> pa.Table:
                from epichypersketch_jl_ray.stages.udaf import broadcast_get

                known = broadcast_get(ids_ref)
                d = np.asarray(batch["doc_id"], dtype=np.int64)
                pos = np.searchsorted(known, d)
                pos = np.minimum(pos, max(len(known) - 1, 0))
                hit = (known[pos] == d) if len(known) else np.zeros(len(d), bool)
                return batch.filter(pa.array(hit))

            cand_shingles = shingles.map_batches(
                prune_exact, batch_format="pyarrow"
            ).materialize()
        else:
            cand_shingles = shingles
    else:
        # candidate-scale pair stream: one sketch scan builds BOTH the
        # distinct-doc HLL (decides if pruning pays) and the membership Bloom
        def add_pair_docs(t: TupleState, batch: pa.Table) -> None:
            ha = hash_int64(batch["doc_a"].to_numpy(zero_copy_only=False), seed=55)
            hb = hash_int64(batch["doc_b"].to_numpy(zero_copy_only=False), seed=55)
            hll, bf = t.parts
            hll.update_hashed(ha)
            hll.update_hashed(hb)
            bf.add_hashed(ha)
            bf.add_hashed(hb)

        ts = sketch_dataset(
            cand,
            lambda: TupleState((HyperLogLog(p=12), BloomFilter(capacity=cap, p=1e-4, seed=55))),
            add_pair_docs,
            TupleState,
        )
        if ts.parts[0].estimate() < 0.5 * n_docs:
            bloom_ref = ray.put(ts.parts[1])

            def prune(batch: pa.Table) -> pa.Table:
                bf: BloomFilter = ray.get(bloom_ref)
                hit = bf.contains_hashed(
                    hash_int64(batch["doc_id"].to_numpy(zero_copy_only=False), seed=55)
                )
                return batch.filter(pa.array(hit))

            cand_shingles = shingles.map_batches(prune, batch_format="pyarrow").materialize()
        else:
            cand_shingles = shingles

    # attach buckets scale with the CANDIDATE count (cand.count()), not a
    # fixed constant — candidate volume is what the attach exchanges move
    with_a = attach_list_column(
        cand, "doc_a", cand_shingles, "doc_id", "shingles", "shingles_a",
        dedupe_on=["doc_a", "doc_b"] if dedupe_in_attach else None,
    )
    with_ab = attach_list_column(
        with_a, "doc_b", cand_shingles, "doc_id", "shingles", "shingles_b"
    )

    def verify(batch: pa.Table) -> pa.Table:
        out = jaccard_verify_batch(batch)
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return with_ab.map_batches(verify, batch_format="pyarrow")


def dedup_minhash_lsh_sql(threshold: float = 0.5) -> str:
    """Exact n-gram Jaccard oracle (all pairs >= threshold)."""
    return f"""
WITH t AS (SELECT doc_id, string_split(text,' ') toks FROM documents),
s AS (SELECT DISTINCT doc_id, toks[i]||' '||toks[i+1]||' '||toks[i+2] sh
      FROM t, LATERAL unnest(range(1, len(toks)-1)) r(i)),
sz AS (SELECT doc_id, count(*) n FROM s GROUP BY 1),
inter AS (SELECT a.doc_id da, b.doc_id db, count(*) i
          FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id GROUP BY 1, 2),
j AS (SELECT da, db, i::DOUBLE / (x.n + y.n - i) jac FROM inter
      JOIN sz x ON x.doc_id = da JOIN sz y ON y.doc_id = db)
SELECT da AS doc_a, db AS doc_b, jac AS jaccard FROM j WHERE jac >= {threshold}
"""


def dedup_ngram_jaccard(
    sf_dir: str, *, threshold: float = 0.5
) -> ray.data.Dataset:
    """EXACT n-gram Jaccard near-dup pairs over the documents table (see
    ngram_jaccard_pairs). Unlike MinHash-LSH this has no probabilistic miss:
    the prefix-filtering principle guarantees every qualifying pair is a
    candidate, so the output EQUALS the exact-Jaccard oracle by
    construction, not just with overwhelming probability."""
    return ngram_jaccard_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=threshold,
    )


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    hot_capacity: int = 1 << 17,
    df_cap: int = 64,
) -> ray.data.Dataset:
    """Exact n-gram-Jaccard similarity self-join via df-capped co-occurrence
    counting — intersections are COUNTED directly inside small-df posting
    groups instead of generated as candidates and re-verified against
    attached full shingle lists.

    Stages (all corpus reads happen once):
      1. shingle table (doc_id, distinct shingle hashes) — materialized.
      2. df estimation: one SpaceSaving scan over the shingle stream (no
         groupby shuffle); survivors with estimated df > ``df_cap`` form
         the broadcast HOT set. The split is a pure cost knob — counting
         is exact for any globally-consistent partition of shingle keys.
      3. COLD path: explode cold postings -> hash exchange on the shingle
         -> per-key pair emission with the length filter, pre-aggregated
         per bucket -> hash exchange on (doc_a, doc_b), summed n = each
         pair's EXACT cold-intersection size. Per-posting fan-out is bounded by
         df_cap^2/2, and the shuffle ships integer partial counts — no
         list payloads, no attach passes.
      4. HOT correction (skipped entirely when no shingle exceeds df_cap —
         the common bounded-df case): per-doc hot SUBLISTS (tiny: only
         hot-set members) are built once; a pair's total overlap is
         cold_n + |hot(A) ∩ hot(B)|.
         - pairs where NOT both docs touch a hot shingle: hot overlap is
           structurally 0 -> finalize from cold_n alone (most pairs).
         - pairs where both touch, not both hot-DOMINATED: prune by
           cold_n + min(h_A, h_B) >= ceil(t/(1+t)(|A|+|B|)), then attach
           the two hot sublists (bucketed attach, sublist-scale) and add
           the hot intersection.
         - pairs sharing ONLY hot shingles never appear in the cold table;
           a qualifying such pair needs overlap >= t*|A| and >= t*|B|
           (J >= t with |B| >= overlap forces overlap >= t|A|), so both
           docs are hot-DOMINATED (h >= ceil(t*size)). All-pairs within
           that provably tiny set are counted in one group and merged with
           their cold counts by one more pair-count exchange.

    Exactness: every shared shingle of a surviving pair is counted exactly
    once (cold in stage 3, hot in stage 4); the length filter only drops
    pairs that cannot reach t; the three routes partition pairs by
    doc-level properties so no pair is double-counted. Output ==
    brute-force all-pairs at any scale.

    Broadcast assumptions (documented for the 100-TB shape): the hot set is
    <= hot_capacity keys; hot-TOUCHED doc ids and their h-counts are
    broadcast for routing (with a high df_cap, docs touching a
    hotter-than-cap shingle are the minority; raise df_cap to shrink it at
    the price of more cold fan-out).
    """
    from epichypersketch_jl_ray.stages.dedup import (
        cold_cooccurrence_rows,
        cooccurrence_pairs_in_bucket,
        hot_sublist_rows,
    )
    from epichypersketch_jl_ray.stages.udaf import sketch_dataset
    from epichypersketch_jl_ray.state.spacesaving import SpaceSaving

    empty_result = table_dataset(
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    )
    shingles = ds.map_batches(_shingle_table, batch_format="pyarrow").materialize()
    n_docs = shingles.count()
    if n_docs == 0:
        # empty corpus: the SpaceSaving pass would have no partials to merge
        return empty_result

    def add_shingles(ss: SpaceSaving, batch: pa.Table) -> None:
        from epichypersketch_jl_ray.stages.dedup import _list_flat_lengths

        flat, _lengths = _list_flat_lengths(batch["shingles"])
        ss.update_hashed(flat)

    df_est = sketch_dataset(
        shingles, lambda: SpaceSaving(capacity=hot_capacity), add_shingles, SpaceSaving
    )
    # SpaceSaving only OVERestimates, so est <= df_cap guarantees true
    # df <= df_cap: every cold posting group is genuinely small. (A
    # truly-cold key overestimated past the cap just takes the hot path —
    # more hot work, still exact.)
    hot_mask = df_est.counts > df_cap
    hot_keys = np.sort(df_est.keys.astype(np.uint64)[hot_mask])
    hot_ref = ray.put(hot_keys)

    def emit_cold(batch: pa.Table) -> pa.Table:
        return cold_cooccurrence_rows(batch, hot_shingles=ray.get(hot_ref))

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        return cooccurrence_pairs_in_bucket(group, threshold=threshold)

    # pair-count merge: the hash exchange on (doc_a, doc_b) + vectorized
    # run-length merge per bucket, NOT groupby(doc_a, doc_b).aggregate —
    # Ray's sort-aggregate over ~1M two-column groups measured >10x the cost
    # of the merge math itself
    buckets = cpu_units(n_docs)
    postings = block_refs(shingles.map_batches(emit_cold, batch_format="pyarrow"))
    partial = map_buckets(pairs_in_bucket, hash_partition(postings, ["shingle"], buckets))
    cold_pairs = _merge_pair_counts(block_refs(partial), buckets)

    def finalize(batch: pa.Table) -> pa.Table:
        return _overlap_to_jaccard(batch, threshold=threshold)

    if len(hot_keys) == 0:
        # bounded-df corpus: the cold counts ARE the exact intersections
        return _map_blocks(finalize, cold_pairs)
    return _ngram_hot_correction(
        cold_pairs,
        shingles,
        hot_ref,
        buckets,
        threshold=threshold,
        finalize=finalize,
        hot_sublist_rows=hot_sublist_rows,
    )


def _map_blocks(fn, ds: ray.data.Dataset) -> ray.data.Dataset:
    """``fn`` of every block of ``ds`` (a ``map_buckets`` output), one task
    per block. Unlike a Ray Data map, it runs ``fn`` on a 0-row block too,
    so every output block has ``fn``'s schema."""
    return map_buckets(fn, [[ref] for ref in block_refs(ds)])


def _merge_pair_counts(refs, buckets: int) -> ray.data.Dataset:
    """Each pair's partial counts (blocks of (doc_a, doc_b, size_a, size_b,
    n) rows) summed: the hash exchange on (doc_a, doc_b), then one
    ``merge_pair_counts`` per bucket."""
    return map_buckets(merge_pair_counts, hash_partition(refs, ["doc_a", "doc_b"], buckets))


def _overlap_to_jaccard(batch: pa.Table, *, threshold: float) -> pa.Table:
    """(doc_a, doc_b, size_a, size_b, n=overlap) -> (doc_a, doc_b, jaccard)
    filtered to jaccard >= threshold. Same float64 division as the SQL
    oracle's i::DOUBLE / (n_a + n_b - i), so the >= compare is bit-stable."""
    n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    sa = batch["size_a"].to_numpy(zero_copy_only=False).astype(np.float64)
    sb = batch["size_b"].to_numpy(zero_copy_only=False).astype(np.float64)
    union = sa + sb - n
    jac = np.divide(n, union, out=np.zeros(len(n), dtype=np.float64), where=union > 0)
    keep = jac >= threshold
    return pa.table(
        {
            "doc_a": batch["doc_a"].filter(pa.array(keep)).cast(pa.int64()),
            "doc_b": batch["doc_b"].filter(pa.array(keep)).cast(pa.int64()),
            "jaccard": pa.array(jac[keep], pa.float64()),
        }
    )


def _ngram_hot_correction(
    cold_pairs: ray.data.Dataset,
    shingles: ray.data.Dataset,
    hot_ref,
    buckets: int,
    *,
    threshold: float,
    finalize,
    hot_sublist_rows,
) -> ray.data.Dataset:
    """Hot-set correction for ngram_jaccard_pairs (docstring there): routes
    cold-counted pairs by hot-touch/hot-dominance and adds exact hot-sublist
    intersections. Split out so the no-hot fast path stays linear to read."""
    from epichypersketch_jl_ray.stages.dedup import list_intersection_counts

    def emit_hot(batch: pa.Table) -> pa.Table:
        return hot_sublist_rows(batch, hot_shingles=ray.get(hot_ref))

    hot_docs = shingles.map_batches(emit_hot, batch_format="pyarrow").materialize()
    # broadcast routing side: hot-TOUCHED doc ids + h counts + sizes
    meta = hot_docs.select_columns(["doc_id", "h_count", "set_size"]).to_pandas()
    touched = meta["doc_id"].to_numpy().astype(np.int64)
    order = np.argsort(touched)
    touched = touched[order]
    h_arr = meta["h_count"].to_numpy().astype(np.int64)[order]
    sz_arr = meta["set_size"].to_numpy().astype(np.int64)[order]
    # hot-DOMINATED: h >= ceil(t*size) (a hot-only qualifying pair forces
    # overlap >= t*size on BOTH sides — see pipeline docstring)
    dominated = h_arr >= np.ceil(threshold * sz_arr - 1e-9)
    dh_ids = touched[dominated]
    touched_ref = ray.put(touched)
    h_ref = ray.put(h_arr)
    dh_ref = ray.put(np.sort(dh_ids))

    def _lookup(sorted_keys: np.ndarray, vals: np.ndarray, q: np.ndarray):
        """(hit mask, value-or-0) of q in the broadcast sorted keys."""
        if len(sorted_keys) == 0:
            return np.zeros(len(q), bool), np.zeros(len(q), np.int64)
        pos = np.minimum(np.searchsorted(sorted_keys, q), len(sorted_keys) - 1)
        hit = sorted_keys[pos] == q
        return hit, np.where(hit, vals[pos], 0)

    def route(batch: pa.Table, which: str) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        tk, hv = ray.get(touched_ref), ray.get(h_ref)
        hit_a, h_a = _lookup(tk, hv, a)
        hit_b, h_b = _lookup(tk, hv, b)
        dh = ray.get(dh_ref)
        in_dh_a, _ = _lookup(dh, dh, a)
        in_dh_b, _ = _lookup(dh, dh, b)
        both_touched = hit_a & hit_b
        both_dh = in_dh_a & in_dh_b
        if which == "cold_only":
            keep = ~both_touched
        elif which == "needs_attach":
            keep = both_touched & ~both_dh
            # overlap ceiling prune: cold_n + min(h_a, h_b) must reach
            # alpha = ceil(t/(1+t)(|A|+|B|)) or the pair cannot qualify
            n = batch["n"].to_numpy(zero_copy_only=False)
            sa = batch["size_a"].to_numpy(zero_copy_only=False)
            sb = batch["size_b"].to_numpy(zero_copy_only=False)
            alpha = np.ceil(threshold / (1.0 + threshold) * (sa + sb) - 1e-9)
            keep &= (n + np.minimum(h_a, h_b)) >= alpha
        else:  # both hot-dominated: merged with the brute hot pairs
            keep = both_dh
        return batch.filter(pa.array(keep))

    result = _map_blocks(lambda t: finalize(route(t, "cold_only")), cold_pairs)
    needs_attach = _map_blocks(lambda t: route(t, "needs_attach"), cold_pairs)
    if needs_attach.count() > 0:
        with_a = attach_list_column(
            needs_attach, "doc_a", hot_docs, "doc_id", "hot_shingles", "hot_a"
        )
        with_ab = attach_list_column(with_a, "doc_b", hot_docs, "doc_id", "hot_shingles", "hot_b")

        def add_hot(batch: pa.Table) -> pa.Table:
            inter = list_intersection_counts(batch, "hot_a", "hot_b")
            n = batch["n"].to_numpy(zero_copy_only=False) + inter
            return pa.table(
                {
                    "doc_a": batch["doc_a"].cast(pa.int64()),
                    "doc_b": batch["doc_b"].cast(pa.int64()),
                    "size_a": batch["size_a"].cast(pa.int64()),
                    "size_b": batch["size_b"].cast(pa.int64()),
                    "n": pa.array(n, pa.int64()),
                }
            )

        result = result.union(_map_blocks(lambda t: finalize(add_hot(t)), with_ab))

    if len(dh_ids) > 0:
        both_dh_cold = _map_blocks(lambda t: route(t, "dh"), cold_pairs)

        def dh_filter(batch: pa.Table) -> pa.Table:
            dh = ray.get(dh_ref)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit, _ = _lookup(dh, dh, ids)
            out = batch.filter(pa.array(hit))
            return out.append_column("g", pa.array(np.zeros(len(out), np.int64)))

        def brute_hot_pairs(group: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "size_a": pa.array([], pa.int64()),
                    "size_b": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
            m = len(group)
            if m < 2:
                return empty
            docs = group["doc_id"].to_numpy(zero_copy_only=False)
            sizes = group["set_size"].to_numpy(zero_copy_only=False)
            ii, jj = np.triu_indices(m, k=1)
            lo = np.minimum(sizes[ii], sizes[jj]).astype(np.float64)
            hi = np.maximum(sizes[ii], sizes[jj]).astype(np.float64)
            ok = lo >= np.ceil(threshold * hi - 1e-9)
            ii, jj = ii[ok], jj[ok]
            if len(ii) == 0:
                return empty
            lists = group["hot_shingles"]
            if isinstance(lists, pa.ChunkedArray):
                lists = lists.combine_chunks()
            pair_tbl = pa.table(
                {
                    "hot_a": lists.take(pa.array(ii, pa.int64())),
                    "hot_b": lists.take(pa.array(jj, pa.int64())),
                }
            )
            inter = list_intersection_counts(pair_tbl, "hot_a", "hot_b")
            nz = inter > 0
            a, b = docs[ii][nz], docs[jj][nz]
            swap = a > b
            return pa.table(
                {
                    "doc_a": pa.array(np.where(swap, b, a), pa.int64()),
                    "doc_b": pa.array(np.where(swap, a, b), pa.int64()),
                    "size_a": pa.array(
                        np.where(swap, sizes[jj][nz], sizes[ii][nz]), pa.int64()
                    ),
                    "size_b": pa.array(
                        np.where(swap, sizes[ii][nz], sizes[jj][nz]), pa.int64()
                    ),
                    "n": pa.array(inter[nz], pa.int64()),
                }
            )

        hot_only = (
            hot_docs.map_batches(dh_filter, batch_format="pyarrow")
            .groupby("g")
            .map_groups(brute_hot_pairs, batch_format="pyarrow")
        )
        dh_total = _merge_pair_counts(
            itertools.chain(block_refs(both_dh_cold), block_refs(hot_only)), buckets
        )
        result = result.union(_map_blocks(finalize, dh_total))
    return result


def dedup_ngram_jaccard_sql(threshold: float = 0.5) -> str:
    """Same exact-Jaccard oracle as MinHash-LSH — the pipelines answer the
    same question; this one deterministically."""
    return dedup_minhash_lsh_sql(threshold)


def dedup_embedding(sf_dir: str, *, threshold: float = 0.45) -> ray.data.Dataset:
    """Embedding-cosine near-dup pairs over the embeddings table — EXACT
    all-pairs via block-pair decomposition.

    The corpus is materialized once as normalized blocks in the object
    store; the driver holds only block ObjectRefs, never the vectors. A
    Dataset of (i, j) block-index pairs (i <= j) fans out one task per block
    pair; each task fetches exactly its two blocks (zero-copy plasma read
    locally, one network fetch per remote block at cluster scale) and runs
    one float64 matmul. Exact, so the DuckDB list_cosine_similarity oracle
    hash-matches, with no whole-dataset take_all and no full-matrix
    broadcast. Exact all-pairs is inherently O(N²/blocksize²) tasks — the
    sub-quadratic scale path is the approximate LSH-bucketed variant
    (pipelines/ann.py LSHBuckets), which prunes to matching-signature
    buckets and runs this same kernel within buckets.
    """
    import ray as _ray

    from epichypersketch_jl_ray.stages.ann import _embedding_matrix

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def normalize(batch: pa.Table) -> pa.Table:
        e = _embedding_matrix(batch, "embedding")
        n = np.linalg.norm(e, axis=1, keepdims=True)
        e = e / np.where(n == 0, 1, n)
        dim = e.shape[1]
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(e.ravel(), pa.float64()), dim
                ),
            }
        )

    # the read cuts a table of a few rows into some 0-row blocks without
    # columns; only the blocks holding rows pair up
    normalized = ds.map_batches(normalize, batch_format="pyarrow").materialize()
    blocks = [
        ref
        for bundle in normalized.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows
    ]
    nb = len(blocks)
    pair_idx = [{"i": i, "j": j} for i in range(nb) for j in range(i, nb)]

    def block_pair(batch: pa.Table) -> pa.Table:
        out = []
        for i, j in zip(
            batch["i"].to_numpy(zero_copy_only=False), batch["j"].to_numpy(zero_copy_only=False)
        ):
            ta = _ray.get(blocks[i])
            tb = ta if j == i else _ray.get(blocks[j])
            ida = ta["vec_id"].to_numpy(zero_copy_only=False)
            idb = tb["vec_id"].to_numpy(zero_copy_only=False)
            ea = _embedding_matrix(ta, "embedding")
            eb = _embedding_matrix(tb, "embedding")
            sims = quantize_cosine(ea @ eb.T)
            ii, jj = np.nonzero(sims >= threshold)
            keep = ida[ii] != idb[jj]
            ii, jj = ii[keep], jj[keep]
            lo = np.minimum(ida[ii], idb[jj])
            hi = np.maximum(ida[ii], idb[jj])
            # i == j sees each unordered pair twice (both triangles): keep one
            if j == i:
                first = ida[ii] < idb[jj]
                lo, hi, ii, jj = lo[first], hi[first], ii[first], jj[first]
            out.append(
                pa.table(
                    {
                        "vec_a": pa.array(lo, pa.int64()),
                        "vec_b": pa.array(hi, pa.int64()),
                        "cosine": pa.array(sims[ii, jj], pa.float64()),
                    }
                )
            )
        return pa.concat_tables(out)

    return ray.data.from_items(pair_idx).map_batches(
        block_pair, batch_format="pyarrow", batch_size=1
    )


def dedup_embedding_sql(threshold: float = 0.45) -> str:
    return f"""
WITH s AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                  {cosine_sql("a.embedding", "b.embedding")} AS cosine
           FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
SELECT vec_a, vec_b, cosine FROM s WHERE cosine >= {threshold}
"""


def dedup_embedding_lsh(
    sf_dir: str,
    *,
    threshold: float = 0.45,
    bits: int = 4,
    probe_hamming: int = 1,
    table: str = "embeddings",
    store_buckets: bool = False,
) -> ray.data.Dataset:
    """Approximate embedding near-dup pairs — the sub-quadratic scale path.

    Each vector lands in its hyperplane sign-signature bucket plus every
    hamming-``probe_hamming`` neighbour bucket (seeded planes: every task
    derives identical buckets without coordination); candidate pairs form
    only WITHIN a bucket (groupby + per-group exact pairwise cosine), and a
    pair found in several probe buckets is deduplicated by a distributed
    max (``group_aggregate``). Work is O(sum over buckets of
    bucket_size²) instead of O(N²) — recall < 1 by construction (asserted
    against the exact block-pair pipeline in tests); every emitted pair's
    cosine is exact, so precision is 1.

    ``store_buckets=True`` writes the (bucket, vec_id) assignment table to
    partitioned parquet at ``store_dir("emb_lsh_buckets")`` (the dedup_simhash
    stored-state pattern): the SQL oracle then independently recomputes
    every within-bucket candidate pair AND its exact cosine from the raw
    embeddings table, value-hash-verifying the whole distributed part
    (bucket groupby, per-group pairing, threshold, cross-probe pair dedupe).
    The hyperplane signature KERNEL itself is not SQL-expressible; it is
    covered by the recall/precision tests vs the exact block-pair pipeline.
    """
    from epichypersketch_jl_ray.stages.ann import LSHBuckets, _embedding_matrix

    ds = read_table(sf_dir, table, columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = _embedding_matrix(batch, "embedding")
        n_ = np.linalg.norm(e, axis=1, keepdims=True)
        e = e / np.where(n_ == 0, 1, n_)
        lsh = LSHBuckets(e.shape[1], bits=bits)
        b = lsh.bucket_of(e)
        reps = 1 + (bits if probe_hamming else 0)
        buckets = np.empty((len(ids), reps), dtype=np.int64)
        buckets[:, 0] = b
        if probe_hamming:
            for j in range(bits):
                buckets[:, 1 + j] = b ^ (1 << j)
        dim = e.shape[1]
        rep_e = np.repeat(e, reps, axis=0)
        return pa.table(
            {
                "bucket": pa.array(buckets.ravel(), pa.int64()),
                "vec_id": pa.array(np.repeat(ids, reps), pa.int64()),
                "emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(rep_e.ravel(), pa.float64()), dim
                ),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        e = _embedding_matrix(group, "emb")
        sims = quantize_cosine(e @ e.T)
        ii, jj = np.nonzero(sims >= threshold)
        keep = ids[ii] < ids[jj]
        ii, jj = ii[keep], jj[keep]
        return pa.table(
            {
                "vec_a": pa.array(ids[ii], pa.int64()),
                "vec_b": pa.array(ids[jj], pa.int64()),
                "cosine": pa.array(sims[ii, jj], pa.float64()),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    if store_buckets:
        from epichypersketch_jl_ray.sources.sinks import overwrite_store, store_dir

        assigned = overwrite_store(
            assigned, store_dir("emb_lsh_buckets"), columns=["bucket", "vec_id"]
        )
    pairs = assigned.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")
    return group_aggregate(
        pairs, ["vec_a", "vec_b"], {"cosine": ("cosine", "max")}, table_rows(sf_dir, table)
    )


def dedup_simhash(
    sf_dir: str, *, max_hamming: int = 3, store_signatures: bool = True
) -> ray.data.Dataset:
    """Near-dup pairs via SimHash 4x16-bit pigeonhole banding — exact for
    hamming <= 3: any pair within hamming 3 shares one of the 4 chunks.

    ORACLED via the stored-signature pattern: the per-doc signature table
    (doc_id, simhash int64) is written to partitioned parquet at
    ``store_dir("simhash_sigs")`` before banding, and
    dedup_simhash_sql() recomputes the FULL exact hamming-pair join over
    that table with DuckDB bit_count(xor(...)) SQL — so the entire
    distributed part (banding recall, shuffle-free per-pair dedupe, hamming
    arithmetic) is value-hash-verified against an exhaustive oracle. The
    signature KERNEL itself is not SQL-expressible; it is pinned against a
    brute-force reimplementation in pytest.

    Scale shape: the hamming filter is a pure function of the pair and runs
    INSIDE each chunk group (random 16-bit chunk collisions make the raw
    candidate stream O(n²/2¹⁶) rows; the filtered stream is near-dup
    scale), and cross-position duplicates are eliminated WITHOUT a dedupe
    shuffle: a pair is kept only in the group of its SMALLEST matching
    chunk position — computable locally from the two full signatures — so
    each qualifying pair is emitted exactly once. (The round-2 version
    collected the whole candidate stream to driver pandas.) The signature
    store adds one doc-scale (16 bytes/row) partitioned-parquet write."""
    from epichypersketch_jl_ray.stages.dedup import (
        simhash_chunks_from_signatures,
        simhash_signature_table,
    )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    sigs = ds.map_batches(simhash_signature_table, batch_format="pyarrow")
    if store_signatures:
        from epichypersketch_jl_ray.sources.sinks import overwrite_store, store_dir

        sigs = overwrite_store(sigs, store_dir("simhash_sigs"))

    def verified_from_chunk(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        t = simhash_candidates_from_chunk(group)
        if len(t) == 0:
            return empty
        sa = t["sim_a"].to_numpy(zero_copy_only=False).view(np.uint64)
        sb = t["sim_b"].to_numpy(zero_copy_only=False).view(np.uint64)
        pos = t["position"].to_numpy(zero_copy_only=False)
        # smallest chunk position where the two signatures agree
        first = np.full(len(t), 4, dtype=np.int64)
        for q in (3, 2, 1, 0):
            shift = np.uint64(16 * q)
            m = ((sa >> shift) & np.uint64(0xFFFF)) == ((sb >> shift) & np.uint64(0xFFFF))
            first[m] = q
        ham = hamming_distance64(sa, sb)
        keep = (ham <= max_hamming) & (pos == first)
        return pa.table(
            {
                "doc_a": t["doc_a"].to_numpy(zero_copy_only=False)[keep],
                "doc_b": t["doc_b"].to_numpy(zero_copy_only=False)[keep],
                "hamming": pa.array(ham[keep].astype(np.int64), pa.int64()),
            }
        )

    return (
        sigs.map_batches(simhash_chunks_from_signatures, batch_format="pyarrow")
        .groupby("chunk_bucket")
        .map_groups(verified_from_chunk, batch_format="pyarrow")
    )


def dedup_simhash_sql(max_hamming: int = 3) -> str:
    """Exhaustive hamming-pair oracle over the STORED signature table the
    Ray pipeline writes (run the pipeline first): every unordered doc pair
    within ``max_hamming``, by exact bit-count SQL — no banding, no
    pigeonhole, so it independently checks the distributed candidate
    structure AND the hamming values."""
    import os

    from epichypersketch_jl_ray.sources.sinks import store_dir

    path = os.path.join(store_dir("simhash_sigs"), "*.parquet")
    return f"""
WITH sigs AS (SELECT doc_id, simhash FROM read_parquet('{path}'))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
"""


# --- semantic dedup (SemDeDup, Abbas et al. 2023) ---------------------------


def semantic_pairs(
    sf_dir: str,
    *,
    threshold: float = 0.45,
    k: int = 8,
    iters: int = 6,
    seed: int = 73,
    table: str = "embeddings",
    materialize: bool = True,
    store_clusters: bool = False,
) -> ray.data.Dataset:
    """Within-cluster near-dup pairs after DISTRIBUTED k-means clustering —
    the SemDeDup candidate structure (cluster first, compare only inside a
    cluster) with exact cosine verification, so precision is 1 and recall
    misses only pairs split across clusters (asserted vs the exact
    block-pair pipeline in tests).

    Scale shape: kmeans_fit streams the corpus (fixed-point exact partials —
    stages/kmeans.py — so the model is identical at any parallelism);
    assignment is one map_batches pass; pair generation is a
    groupby(cluster) whose per-group cost is |cluster|² dot products.
    Pick k ~ N/target_cluster_size (SemDeDup uses ~11k clusters at 100M+
    scale) so groups stay bounded; the fixture default k=8 keeps the test
    corpus in a handful of groups.

    ``materialize=True`` (default) pins the pruned (id, vector) read in the
    object store so the k-means iterations don't re-scan parquet — right
    whenever the embedding table fits the cluster's aggregate store. At
    100 TB-of-vectors scale pass False: kmeans_fit then streams a fresh
    read per iteration instead of spilling.

    ``store_clusters=True`` writes the (cluster, vec_id) assignment table
    to partitioned parquet at ``store_dir("sem_clusters")`` so the SQL oracle can
    independently recompute every within-cluster candidate pair and its
    exact cosine from the raw embeddings (see dedup_embedding_lsh — same
    stored-state pattern; k-means itself stays pinned by the determinism /
    batch-invariance tests).
    """
    from epichypersketch_jl_ray.stages.kmeans import assign_clusters, kmeans_fit

    ds = read_table(sf_dir, table, columns=["vec_id", "embedding"])
    if materialize:
        ds = ds.materialize()
    model = kmeans_fit(ds, k=k, iters=iters, seed=seed, spherical=True)
    tagged = assign_clusters(ds, model, keep_embedding=True)
    if store_clusters:
        from epichypersketch_jl_ray.sources.sinks import overwrite_store, store_dir

        # materialize-then-store when the corpus fits (one execution feeds
        # both the store and the pair stage); on the materialize=False
        # streaming path the write streams through unpinned and the pair
        # stage re-runs assign — a pure function of the broadcast centroids,
        # so both executions agree exactly
        tagged = overwrite_store(
            tagged,
            store_dir("sem_clusters"),
            columns=["cluster", "vec_id"],
            materialize=materialize,
        )

    def cluster_pairs(group: pa.Table) -> pa.Table:
        from epichypersketch_jl_ray.stages.ann import _embedding_matrix

        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        e = _embedding_matrix(group, "emb")  # already unit-norm
        sims = quantize_cosine(e @ e.T)
        ii, jj = np.nonzero(sims >= threshold)
        keep = ids[ii] < ids[jj]
        ii, jj = ii[keep], jj[keep]
        return pa.table(
            {
                "vec_a": pa.array(ids[ii], pa.int64()),
                "vec_b": pa.array(ids[jj], pa.int64()),
                "cosine": pa.array(sims[ii, jj], pa.float64()),
            }
        )

    return tagged.groupby("cluster").map_groups(cluster_pairs, batch_format="pyarrow")


# --- exact duplicated-substring spans (Lee et al. 2022) ----------------------


def duplicated_spans(
    sf_dir: str,
    *,
    gram_len: int = 32,
    table: str = "documents",
) -> ray.data.Dataset:
    """Exact duplicated-substring spans per document — the substring-level
    dedup of "Deduplicating Training Data Makes Language Models Better"
    (Lee et al. 2022), re-expressed for Ray Data: a position is duplicated
    when its ``gram_len``-char substring occurs at >= 2 sites anywhere in
    the corpus; overlapping/adjacent duplicated grams merge into maximal
    spans (doc_id, span_start, span_end), span_end exclusive.

    Instead of a suffix array (a global sort of every suffix — one giant
    all-to-all), the corpus streams through a 128-bit rolling-hash gram
    table. Both grouping stages run on the hash exchange (stages/exchange;
    on the gram, then on the doc), so the task count is the bucket count —
    not the multi-million distinct gram / doc count — and each bucket
    resolves ALL its grams (or docs) with one lexsort + run-length pass. A
    naive groupby(h1, h2).map_groups pays a per-group Python call for every
    distinct gram; bucketing is ~2.3x faster already at sf0.1 (11.6 ->
    4.6-5.1 s) and the gap grows with the corpus. The buckets are
    ``udaf.cpu_units`` of ~300 gram rows per footer row.
    Equal-length intervals merge exactly when consecutive starts
    differ by <= gram_len, so the per-doc pass is one sort + one diff.
    2^-128 collision odds stand in for byte-compare.
    """
    from epichypersketch_jl_ray.functions.hashing import rolling_gram_hashes
    from epichypersketch_jl_ray.sources.tables import table_rows

    ds = read_table(sf_dir, table, columns=["doc_id", "text"])
    # gram rows ~ total chars; estimate ~300 grams/doc conservatively —
    # a fixed 64 would mean 1e10-row buckets at web scale
    buckets = cpu_units(table_rows(sf_dir, table) * 300)

    def gram_rows(batch: pa.Table) -> pa.Table:
        h1, h2, rows, pos = rolling_gram_hashes(batch["text"], gram_len)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[rows]
        return pa.table(
            {
                "h1": pa.array(h1.view(np.int64), pa.int64()),
                "h2": pa.array(h2.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def bucket_multi_sites(group: pa.Table) -> pa.Table:
        # One lexsort resolves EVERY gram in the bucket; a run-length count
        # keeps sites whose (h1, h2) occurs >= 2 times corpus-wide.
        h1 = group["h1"].to_numpy(zero_copy_only=False)
        h2 = group["h2"].to_numpy(zero_copy_only=False)
        if len(h1) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
            )
        order = np.lexsort((h2, h1))
        h1s, h2s = h1[order], h2[order]
        new = np.concatenate(([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])))
        gid = np.cumsum(new) - 1
        multi = np.bincount(gid)[gid] >= 2
        ids = group["doc_id"].to_numpy(zero_copy_only=False)[order][multi]
        pos = group["pos"].to_numpy(zero_copy_only=False)[order][multi]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def bucket_merge_spans(group: pa.Table) -> pa.Table:
        # All docs in the bucket at once: sort by (doc, pos), break a span
        # where the doc changes or consecutive starts gap by > gram_len.
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        if len(doc) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "span_start": pa.array([], pa.int64()),
                    "span_end": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((pos, doc))
        d, p = doc[order], pos[order]
        brk = np.concatenate(([True], (d[1:] != d[:-1]) | (p[1:] - p[:-1] > gram_len)))
        idx = np.flatnonzero(brk)
        last = np.concatenate((idx[1:] - 1, [len(p) - 1]))
        return pa.table(
            {
                "doc_id": pa.array(d[idx], pa.int64()),
                "span_start": pa.array(p[idx], pa.int64()),
                "span_end": pa.array(p[last] + gram_len, pa.int64()),
            }
        )

    grams = block_refs(ds.map_batches(gram_rows, batch_format="pyarrow"))
    sites = map_buckets(bucket_multi_sites, hash_partition(grams, ["h1"], buckets))
    return map_buckets(bucket_merge_spans, hash_partition(block_refs(sites), ["doc_id"], buckets))


def duplicated_spans_sql(gram_len: int = 32) -> str:
    """Maximal duplicated-substring spans in pure SQL: generate every
    L-char gram, window-count occurrences by gram text, gaps-and-islands
    merge of duplicated starts (equal-length intervals chain exactly when
    consecutive starts differ by <= L)."""
    return f"""
WITH grams AS (
  SELECT doc_id, i AS pos, substr(text, i + 1, {gram_len}) AS g
  FROM documents, LATERAL unnest(range(0, GREATEST(length(text) - {gram_len} + 1, 0))) r(i)
),
dup AS (
  SELECT doc_id, pos FROM (
    SELECT doc_id, pos, COUNT(*) OVER (PARTITION BY g) AS c FROM grams
  ) WHERE c >= 2
),
islands AS (
  SELECT doc_id, pos,
         CASE WHEN pos - LAG(pos) OVER (PARTITION BY doc_id ORDER BY pos) <= {gram_len}
              THEN 0 ELSE 1 END AS brk
  FROM dup
),
grp AS (
  SELECT doc_id, pos,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos ROWS UNBOUNDED PRECEDING) AS gid
  FROM islands
)
SELECT doc_id, MIN(pos) AS span_start, MAX(pos) + {gram_len} AS span_end
FROM grp GROUP BY doc_id, gid
"""
