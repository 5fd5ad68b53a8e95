"""End-to-end corpus curation: the composite pipeline a training-data user
actually runs — quality filter → exact dedup → near-dup removal — expressed
as one chained Ray Data flow, each stage the scale-shaped operator proven
individually elsewhere (pipelines/dedup.py), and the WHOLE chain checked
against a single DuckDB oracle.

Stage shapes (all distributed, no driver materialization of corpus-scale
data):
1. quality filter — vectorized predicate pushpast the read (only doc_id,
   text, n_chars columns leave storage).
2. exact dedup — one hash exchange on the 128-bit content hash, keep min
   doc_id.
3. near-dup removal — MinHash-LSH banding + distributed exact-Jaccard
   verification (minhash_pairs) among the exact-dedup keepers; for each
   verified pair (a < b) the higher doc_id drops, by a bucketed left anti
   join of the keepers with the dropped ids (``_drop_ids``). Pair-wise (not
   transitive-closure) removal, matching the oracle's NOT IN semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from epichypersketch_jl_ray.pipelines.dedup import SHINGLE_N, minhash_pairs
from epichypersketch_jl_ray.stages.dedup import content_key_table
from epichypersketch_jl_ray.stages.exchange import (
    group_aggregate,
    hash_partition,
    map_buckets,
    to_table,
)
from epichypersketch_jl_ray.stages.udaf import cpu_units, input_units
from epichypersketch_jl_ray.sources.tables import read_table, table_rows


# session-level cache of the chain head shared by curate_corpus,
# curate_corpus_cc and decontaminate_corpus: all run in one driver/bench
# session over the same sf_dir, and the quality->exact-dedup(->minhash-
# verify) head is ~80% of either pipeline's wall. MATERIALIZED datasets pin
# blocks in the object store (spillable), not driver memory — same pattern
# as the motif activation cache (pipelines/motifs.py).
_CHAIN_CACHE: dict = {}
_KEEPER_CACHE: dict = {}


def _keeper_docs(sf_dir: str, *, min_chars: int) -> ray.data.Dataset:
    """Quality-filtered exact-dedup keepers WITH text (doc_id, text) —
    the shared first two stages of every curation chain, materialized into
    the object store once per (sf_dir, min_chars) for the session."""
    key = (sf_dir, min_chars)
    if key in _KEEPER_CACHE:
        return _KEEPER_CACHE[key]

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def quality(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["n_chars"], min_chars)
        return batch.filter(keep).select(["doc_id", "text"])

    filtered = docs.map_batches(quality, batch_format="pyarrow")

    # ONE hash exchange carries the text through the exact dedup: all rows
    # of a (h1, h2) group share the same text by construction (content
    # hash), so the max text is just "pick it" — this replaces the earlier
    # groupby + rejoin-on-doc_id, which shuffled the text a second time
    keys = ["h1", "h2"]

    keeper_docs = group_aggregate(
        filtered.map_batches(
            lambda b: content_key_table(b, keep=("text",)), batch_format="pyarrow"
        ),
        keys,
        {"doc_id": ("doc_id", "min"), "text": ("text", "max")},
        table_rows(sf_dir, "documents"),
        then=lambda t: t.drop_columns(keys),
    )
    _KEEPER_CACHE[key] = keeper_docs
    return keeper_docs


def _keepers_and_pairs(
    sf_dir: str, *, min_chars: int, threshold: float
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Shared head of the curation chain: quality filter -> exact-dedup
    keepers -> verified near-dup pairs among the keepers. Cached per
    (sf_dir, params) for the session."""
    key = (sf_dir, min_chars, threshold)
    if key in _CHAIN_CACHE:
        return _CHAIN_CACHE[key]
    keepers = _keeper_docs(sf_dir, min_chars=min_chars)
    pairs = minhash_pairs(keepers, threshold=threshold).materialize()
    _CHAIN_CACHE[key] = (keepers, pairs)
    return keepers, pairs


def _drop_ids(
    keepers: ray.data.Dataset, drops: ray.data.Dataset, drop_col: str, ids
) -> ray.data.Dataset:
    """(doc_id) of the keepers (``_keeper_docs``) minus the dropped ids: both
    sides go through one hash exchange on the doc id (``keepers.doc_id``,
    ``drops[drop_col]``); per bucket, ``ids(keepers table, drops table)``
    gives (keeper ids, dropped ids), and one Arrow left anti join removes
    the dropped ones."""

    def anti(k: pa.Table, d: pa.Table) -> pa.Table:
        keep, drop = ids(k, d)
        keep = pa.table({"doc_id": keep.cast(pa.int64())})
        drop = pa.table({"doc_id": drop.cast(pa.int64())})
        return keep.join(drop, "doc_id", join_type="left anti")

    buckets = cpu_units(keepers.count())
    return map_buckets(
        anti,
        hash_partition(input_units(keepers), ["doc_id"], buckets, ["doc_id"]),
        hash_partition(input_units(drops), [drop_col], buckets),
    )


def curate_corpus(
    sf_dir: str,
    *,
    min_chars: int = 120,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """Surviving doc_ids after quality filter + exact dedup + near-dup drop."""
    keepers, pairs = _keepers_and_pairs(
        sf_dir, min_chars=min_chars, threshold=threshold
    )

    # drop the higher doc_id of every verified pair
    return _drop_ids(keepers, pairs, "doc_b", lambda k, d: (k["doc_id"], d["doc_b"]))


def curate_corpus_cc(
    sf_dir: str,
    *,
    min_chars: int = 120,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """Cluster-aware curation: like curate_corpus, but near-dup removal drops
    whole duplicate CLUSTERS (connected components of the verified pair
    graph, stages/cc.py) keeping only each cluster's minimum doc_id — the
    transitive closure pair-wise removal misses on chains a~b~c with a!~c.
    """
    from epichypersketch_jl_ray.stages.cc import connected_components

    keepers, pairs = _keepers_and_pairs(
        sf_dir, min_chars=min_chars, threshold=threshold
    )

    comps = connected_components(pairs)

    # drop every clustered node except its component minimum
    def ids(k: pa.Table, d: pa.Table) -> tuple:
        return k["doc_id"], d["node"].filter(pc.not_equal(d["node"], d["component"]))

    return _drop_ids(keepers, comps, "node", ids)


def curate_corpus_cc_sql(min_chars: int = 120, threshold: float = 0.5) -> str:
    """Recursive-CTE oracle: transitive closure of the exact-Jaccard pair
    graph, keep each component's minimum doc_id."""
    assert SHINGLE_N == 3
    return f"""
WITH RECURSIVE
f AS (SELECT doc_id, text FROM documents WHERE n_chars >= {min_chars}),
k AS MATERIALIZED (SELECT MIN(doc_id) AS doc_id, text FROM f GROUP BY text),
t AS (SELECT doc_id, string_split(text,' ') toks FROM k),
s AS MATERIALIZED (SELECT DISTINCT doc_id, toks[i]||' '||toks[i+1]||' '||toks[i+2] sh
      FROM t, LATERAL unnest(range(1, len(toks)-1)) r(i)),
sz AS (SELECT doc_id, count(*) n FROM s GROUP BY 1),
inter AS (SELECT a.doc_id da, b.doc_id db, count(*) i
          FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id GROUP BY 1, 2),
j AS (SELECT da, db, i::DOUBLE / (x.n + y.n - i) jac FROM inter
      JOIN sz x ON x.doc_id = da JOIN sz y ON y.doc_id = db),
e AS MATERIALIZED (SELECT da u, db v FROM j WHERE jac >= {threshold}
      UNION SELECT db, da FROM j WHERE jac >= {threshold}),
reach(u, v) AS (SELECT u, v FROM e
      UNION SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u),
comp AS (SELECT u AS node, LEAST(u, MIN(v)) AS component FROM reach GROUP BY u)
SELECT doc_id FROM k
WHERE doc_id NOT IN (SELECT node FROM comp WHERE node <> component)
"""


def curate_corpus_sql(min_chars: int = 120, threshold: float = 0.5) -> str:
    assert SHINGLE_N == 3
    return f"""
WITH f AS (SELECT doc_id, text FROM documents WHERE n_chars >= {min_chars}),
k AS (SELECT MIN(doc_id) AS doc_id, text FROM f GROUP BY text),
t AS (SELECT doc_id, string_split(text,' ') toks FROM k),
s AS (SELECT DISTINCT doc_id, toks[i]||' '||toks[i+1]||' '||toks[i+2] sh
      FROM t, LATERAL unnest(range(1, len(toks)-1)) r(i)),
sz AS (SELECT doc_id, count(*) n FROM s GROUP BY 1),
inter AS (SELECT a.doc_id da, b.doc_id db, count(*) i
          FROM s a JOIN s b ON a.sh = b.sh AND a.doc_id < b.doc_id GROUP BY 1, 2),
j AS (SELECT da, db, i::DOUBLE / (x.n + y.n - i) jac FROM inter
      JOIN sz x ON x.doc_id = da JOIN sz y ON y.doc_id = db),
drops AS (SELECT DISTINCT db FROM j WHERE jac >= {threshold})
SELECT doc_id FROM k WHERE doc_id NOT IN (SELECT db FROM drops)
"""


# --- benchmark decontamination ---------------------------------------------
#
# The GPT-3-style training-data decontamination op (Brown et al. 2020, app. C;
# also Dodge et al. 2021 "C4 documenting"): drop every training document that
# shares any token n-gram with a held-out evaluation set. Here the eval set is
# carved deterministically out of the same documents table (doc_id % eval_mod
# == 0 stands in for "the benchmark"); contamination = any shared contiguous
# ngram_n-token window after the quality + exact-dedup head.
#
# Two exact paths, size-gated like the repo's other adaptive joins:
# - broadcast (default): the distinct eval n-gram hash set is benchmark-sized
#   (real decontamination lists are MBs), so it ships once via ray.put and the
#   training side is ONE shuffle-free map_batches membership pass.
# - semi-join: when the eval side exceeds broadcast_cap, both sides' n-gram
#   hashes meet in the buckets of the hash exchange (one vectorized
#   membership scan per bucket) — no broadcast, traffic bounded by n-gram
#   count.
# N-gram identity is the 64-bit combined token hash (functions/text.py), the
# same family the oracle-matched Jaccard pipelines rely on; collisions are
# ~n²/2⁶⁴ (document-count scale, not token scale) — widen to 128-bit for
# >10⁹-n-gram eval sets.


def _split_ngram_rows(
    batch: pa.Table, *, eval_mod: int, ngram_n: int, want_eval: bool, with_ids: bool
) -> pa.Table:
    """(g[, doc_id]) n-gram hash rows for the eval or train half of a batch."""
    from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes

    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mask = (ids % eval_mod == 0) if want_eval else (ids % eval_mod != 0)
    sub = batch.filter(pa.array(mask))
    cols: dict = {"g": pa.array(np.empty(0, np.int64), pa.int64())}
    if with_ids:
        cols["doc_id"] = pa.array(np.empty(0, np.int64), pa.int64())
    if sub.num_rows == 0:
        return pa.table(cols)
    flat, off = token_hashes(sub["text"])
    g, goff = ngram_hashes(flat, off, ngram_n)
    cols["g"] = pa.array(np.unique(g).view(np.int64) if not with_ids else g.view(np.int64))
    if with_ids:
        sub_ids = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols["doc_id"] = pa.array(np.repeat(sub_ids, np.diff(goff)), pa.int64())
    return pa.table(cols)


def _contaminated_semijoin(
    ev: ray.data.Dataset, keeper_docs: ray.data.Dataset, *, eval_mod: int, ngram_n: int
) -> ray.data.Dataset:
    """Distributed exact semi-join: train doc_ids whose n-gram hash set meets
    the eval set — both sides through the hash exchange on the n-gram hash,
    one vectorized membership scan per bucket. The scale path when the eval
    side can't broadcast; ``udaf.cpu_units`` of the (materialized) eval
    row count sizes the buckets."""
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units, input_units

    def train_rows(batch: pa.Table) -> pa.Table:
        return _split_ngram_rows(
            batch, eval_mod=eval_mod, ngram_n=ngram_n, want_eval=False, with_ids=True
        )

    def bucket_scan(evg: pa.Table, train: pa.Table) -> pa.Table:
        evset = np.sort(evg["g"].to_numpy(zero_copy_only=False).astype(np.int64))
        g = train["g"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = train["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(evset, g), max(len(evset) - 1, 0))
        hit = (evset[pos] == g) if len(evset) else np.zeros(len(g), dtype=bool)
        return pa.table({"doc_id": pa.array(np.unique(d[hit]), pa.int64())})

    buckets = cpu_units(ev.count())
    train = block_refs(keeper_docs.map_batches(train_rows, batch_format="pyarrow"))
    return map_buckets(
        bucket_scan,
        hash_partition(input_units(ev), ["g"], buckets),
        hash_partition(train, ["g"], buckets),
    )


def decontaminate_corpus(
    sf_dir: str,
    *,
    min_chars: int = 120,
    ngram_n: int = 8,
    eval_mod: int = 11,
    broadcast_cap: int = 2_000_000,
) -> ray.data.Dataset:
    """Training doc_ids (quality + exact-dedup keepers outside the eval set)
    that share NO ngram_n-token window with any eval-set document."""
    keeper_docs = _keeper_docs(sf_dir, min_chars=min_chars)

    ev = group_aggregate(
        keeper_docs.map_batches(
            lambda b: _split_ngram_rows(
                b, eval_mod=eval_mod, ngram_n=ngram_n, want_eval=True, with_ids=False
            ),
            batch_format="pyarrow",
        ),
        ["g"],
        {},
        keeper_docs.count(),
    )

    n_ev = ev.count()
    if n_ev <= broadcast_cap:
        # broadcast path: one shuffle-free membership pass over the corpus
        evset = np.sort(to_table(ev)["g"].to_numpy().astype(np.int64))
        evset_ref = ray.put(evset)

        def survivors(batch: pa.Table) -> pa.Table:
            from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes

            evset = ray.get(evset_ref)  # zero-copy shared-memory numpy
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            sub = batch.filter(pa.array(ids % eval_mod != 0))
            if sub.num_rows == 0:
                return pa.table({"doc_id": pa.array(np.empty(0, np.int64), pa.int64())})
            flat, off = token_hashes(sub["text"])
            g, goff = ngram_hashes(flat, off, ngram_n)
            g = g.view(np.int64)
            if len(evset) and len(g):
                idx = np.minimum(np.searchsorted(evset, g), len(evset) - 1)
                hit = evset[idx] == g
            else:
                hit = np.zeros(len(g), dtype=bool)
            row_ids = np.repeat(np.arange(sub.num_rows), np.diff(goff))
            dirty = np.bincount(row_ids[hit], minlength=sub.num_rows) > 0
            sub_ids = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"doc_id": pa.array(sub_ids[~dirty], pa.int64())})

        return keeper_docs.map_batches(survivors, batch_format="pyarrow")

    # semi-join path: anti-join train keepers against the contaminated set
    contaminated = _contaminated_semijoin(ev, keeper_docs, eval_mod=eval_mod, ngram_n=ngram_n)

    def ids(k: pa.Table, d: pa.Table) -> tuple:
        keep = k["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.array(keep[keep % eval_mod != 0]), d["doc_id"]

    return _drop_ids(keeper_docs, contaminated, "doc_id", ids)


def decontaminate_corpus_sql(
    min_chars: int = 120, ngram_n: int = 8, eval_mod: int = 11
) -> str:
    """Exact string-n-gram oracle (the Ray side matches on 64-bit n-gram
    hashes; any mismatch would surface as a value-hash diff at the gate)."""
    terms = "||' '||".join(f"toks[i+{j}]" if j else "toks[i]" for j in range(ngram_n))
    return f"""
WITH f AS (SELECT doc_id, text FROM documents WHERE n_chars >= {min_chars}),
k AS (SELECT MIN(doc_id) AS doc_id, text FROM f GROUP BY text),
ev AS (SELECT string_split(text,' ') toks FROM k WHERE doc_id % {eval_mod} = 0),
tr AS (SELECT doc_id, string_split(text,' ') toks FROM k WHERE doc_id % {eval_mod} <> 0),
evg AS (SELECT DISTINCT {terms} g
        FROM ev, LATERAL unnest(range(1, len(toks)-{ngram_n - 2})) r(i)),
trg AS (SELECT DISTINCT doc_id, {terms} g
        FROM tr, LATERAL unnest(range(1, len(toks)-{ngram_n - 2})) r(i)),
cont AS (SELECT DISTINCT doc_id FROM trg JOIN evg USING(g))
SELECT doc_id FROM k
WHERE doc_id % {eval_mod} <> 0 AND doc_id NOT IN (SELECT doc_id FROM cont)
"""


def domain_cap_sample(
    sf_dir: str,
    *,
    k: int = 25,
    batch_size: int = 8192,
) -> ray.data.Dataset:
    """RefinedWeb-style per-domain document cap: keep the ``k`` lowest-doc_id
    documents of every source domain (deterministic, so a re-crawl keeps the
    same representatives).

    Scale shape — exact two-level top-k, never a per-domain Python group:
    1. map-side partial: each batch keeps <= k rows per source via ONE
       lexsort + run-length rank pass (no pandas groupby, no Python loop),
       so the shuffle ships at most k rows per (batch, domain) — bounded by
       k * distinct-domains, not the corpus.
    2. bucketed merge: the partials go through the hash exchange on a
       64-bit hash of the source (``udaf.cpu_units`` buckets of the
       parquet footer row count / k); each bucket resolves ALL its domains
       with the same vectorized selection. Hot domains cost rows, not
       Python calls, and distinct-domain cardinality (millions at web
       scale) never becomes a per-group overhead.
    """
    from epichypersketch_jl_ray.functions.hashing import hash_strings_fast
    from epichypersketch_jl_ray.sources.tables import table_rows
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units

    def _keep_topk(src: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Boolean mask keeping the k smallest ids per source value.

        One lexsort; rank-within-group via run starts; mask back in input
        order."""
        order = np.lexsort((ids, src))
        s_sorted = src[order]
        starts = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))
        group_of = np.cumsum(np.concatenate(([0], (s_sorted[1:] != s_sorted[:-1]).astype(np.int64))))
        rank = np.arange(len(order)) - starts[group_of]
        mask = np.zeros(len(order), dtype=bool)
        mask[order] = rank < k
        return mask

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        # group by a BATCH-LOCAL dictionary encoding of the source string —
        # the batch is local, so no hash is needed and two domains can never
        # share a quota (a 64-bit hash grouping could drop a global-top-k
        # row on collision; the merge resolves by string but cannot recover
        # rows the partial already dropped). The hash is used only for
        # ROUTING, where a collision just co-buckets two domains.
        src = batch["source"].combine_chunks()
        codes = np.asarray(pc.dictionary_encode(src).indices, dtype=np.int64)
        mask = _keep_topk(codes, ids)
        kept = batch.filter(pa.array(mask))
        kh = hash_strings_fast(kept["source"].combine_chunks())
        return pa.table(
            {
                "source": kept["source"],
                "doc_id": kept["doc_id"],
                "source_h": pa.array(kh.view(np.int64)),
            }
        )

    def merge_bucket(group: pa.Table) -> pa.Table:
        ids = np.asarray(group["doc_id"], dtype=np.int64)
        # resolve by the STRING, not the hash: a 64-bit hash collision would
        # silently merge two domains' quotas
        src = group["source"].combine_chunks()
        codes = pc.dictionary_encode(src).indices
        mask = _keep_topk(np.asarray(codes, dtype=np.int64), ids)
        kept = group.filter(pa.array(mask))
        return pa.table({"source": kept["source"], "doc_id": kept["doc_id"]})

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    refs = block_refs(docs.map_batches(partial, batch_format="pyarrow", batch_size=batch_size))
    # post-partial rows are <= corpus_rows but ~k per (batch, domain);
    # footer-count / k is a cheap upper-bound proxy for the merge input
    buckets = cpu_units(table_rows(sf_dir, "documents") // max(k, 1))
    return map_buckets(merge_bucket, hash_partition(refs, ["source_h"], buckets))


def domain_cap_sample_sql(k: int = 25) -> str:
    return f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents) WHERE rn <= {k}
"""
