"""Text analysis over the documents table: quality features, token counts,
language ID, fingerprints (training-data-pipeline operators; SURVEY.md §2.12
webtext additions)."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray

from epichypersketch_jl_ray.functions.text import quality_features, winnow_fingerprints
from epichypersketch_jl_ray.sources.tables import read_table, table_rows
from epichypersketch_jl_ray.stages.exchange import group_aggregate, to_table


def _augment_pii(doc_id: pa.ChunkedArray | pa.Array, text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Append deterministic doc_id-derived PII to selected rows. The synthetic
    documents table contains no real PII, which would make a redaction oracle
    vacuously green (all zeros) — this augmentation, mirrored token-for-token
    in the SQL CTE below, makes the cross-engine regex comparison real:
    every-2nd row gains an email, every-3rd an IPv4, every-5th a phone."""
    import pyarrow.compute as pc

    did = np.asarray(doc_id, dtype=np.int64)
    did_s = pc.cast(pa.array(did), pa.string())
    empty = pa.array([""] * len(did))
    email = pc.if_else(
        pa.array(did % 2 == 0),
        pc.binary_join_element_wise(pa.array([" u"] * len(did)), did_s, pa.array(["@ex.com"] * len(did)), ""),
        empty,
    )
    ip = pc.if_else(
        pa.array(did % 3 == 0),
        pc.binary_join_element_wise(
            pa.array([" 10.1."] * len(did)), pc.cast(pa.array(did % 256), pa.string()), pa.array([".7"] * len(did)), ""
        ),
        empty,
    )
    phone = pc.if_else(
        pa.array(did % 5 == 0),
        pc.binary_join_element_wise(
            pa.array([" +1 555 0"] * len(did)), pc.cast(pa.array(did % 100), pa.string()), ""
        ),
        empty,
    )
    t = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    return pc.binary_join_element_wise(t, email, ip, phone, "")


def _ref_vocab_rows(batch: pa.Table, *, ref_mod: int) -> pa.Table:
    """Distinct (kind, h) hash rows from the reference slice of one batch:
    kind 0 = unigram token hashes, kind 1 = bigram hashes."""
    from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes

    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sub = batch.filter(pa.array(ids % ref_mod == 0))
    if sub.num_rows == 0:
        return pa.table(
            {"kind": pa.array([], pa.int64()), "h": pa.array([], pa.int64())}
        )
    flat, off = token_hashes(sub["text"])
    bg, _ = ngram_hashes(flat, off, 2)
    uni_u, bg_u = np.unique(flat), np.unique(bg)
    kind = np.concatenate(
        (np.zeros(len(uni_u), np.int64), np.ones(len(bg_u), np.int64))
    )
    h = np.concatenate((uni_u, bg_u)).view(np.int64)
    return pa.table({"kind": pa.array(kind, pa.int64()), "h": pa.array(h, pa.int64())})


def _member(sorted_set: np.ndarray, h: np.ndarray) -> np.ndarray:
    h = h.view(np.int64)
    if len(sorted_set) == 0 or len(h) == 0:
        return np.zeros(len(h), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_set, h), len(sorted_set) - 1)
    return sorted_set[idx] == h


def _lm_counts_semijoin(ds: ray.data.Dataset, ref: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc (lm_hits, oov_tokens) when the reference vocab can't broadcast:
    corpus token/bigram occurrence rows and the distinct reference rows go
    through the hash exchange on the hash, one vectorized membership scan
    per bucket emits partial counts (including zeros, so every doc keeps a
    row), then an exchange on the doc sums the partials — no driver state,
    no per-key groups. ``udaf.cpu_units`` of the (materialized) reference
    row count sizes the buckets."""
    from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units

    def corpus_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, off = token_hashes(batch["text"])
        bg, bgoff = ngram_hashes(flat, off, 2)
        kind = np.concatenate(
            (np.zeros(len(flat), np.int64), np.ones(len(bg), np.int64))
        )
        h = np.concatenate((flat, bg)).view(np.int64)
        doc = np.concatenate(
            (np.repeat(ids, np.diff(off)), np.repeat(ids, np.diff(bgoff)))
        )
        return pa.table(
            {
                "kind": pa.array(kind, pa.int64()),
                "h": pa.array(h, pa.int64()),
                "doc_id": pa.array(doc, pa.int64()),
            }
        )

    def bucket_scan(vocab: pa.Table, corpus: pa.Table) -> pa.Table:
        vk = vocab["kind"].to_numpy(zero_copy_only=False)
        vh = vocab["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = corpus["kind"].to_numpy(zero_copy_only=False)
        h = corpus["h"].to_numpy(zero_copy_only=False)
        d = corpus["doc_id"].to_numpy(zero_copy_only=False)
        uni, bg = k == 0, k == 1
        in_ref = np.zeros(len(h), dtype=bool)
        in_ref[uni] = _member(np.sort(vh[vk == 0]), h[uni])
        in_ref[bg] = _member(np.sort(vh[vk == 1]), h[bg])
        docs, inv = np.unique(d, return_inverse=True)
        hits = np.bincount(inv[bg & in_ref], minlength=len(docs))
        oov = np.bincount(inv[uni & ~in_ref], minlength=len(docs))
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "lm_hits": pa.array(hits.astype(np.int64), pa.int64()),
                "oov_tokens": pa.array(oov.astype(np.int64), pa.int64()),
            }
        )

    def merge_counts(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        if len(d) == 0:
            return group
        lm = group["lm_hits"].to_numpy(zero_copy_only=False)
        ov = group["oov_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        ds_, lm_, ov_ = d[order], lm[order], ov[order]
        new = np.ones(len(ds_), dtype=bool)
        new[1:] = ds_[1:] != ds_[:-1]
        idx = np.flatnonzero(new)
        return pa.table(
            {
                "doc_id": pa.array(ds_[idx], pa.int64()),
                "lm_hits": pa.array(np.add.reduceat(lm_, idx), pa.int64()),
                "oov_tokens": pa.array(np.add.reduceat(ov_, idx), pa.int64()),
            }
        )

    buckets = cpu_units(ref.count())
    corpus = block_refs(ds.map_batches(corpus_rows, batch_format="pyarrow"))
    partial = map_buckets(
        bucket_scan,
        hash_partition(block_refs(ref), ["h"], buckets),
        hash_partition(corpus, ["h"], buckets),
    )
    return map_buckets(merge_counts, hash_partition(block_refs(partial), ["doc_id"], buckets))


DOC_STATS_COLUMNS = [
    "doc_id", "n_chars", "n_tokens", "n_uniq_tokens", "ttr", "top_token_share",
    "top_bigram_share", "dup_trigram_frac", "max_token_run",
    "n_emails", "n_ips", "n_phones", "redacted",
    "n_bigrams", "lm_hits", "oov_tokens", "lm_coverage",
]


def doc_stats(
    sf_dir: str,
    *,
    ref_mod: int = 10,
    broadcast_cap: int = 4_000_000,
) -> ray.data.Dataset:
    """Per-document quality features + PII redaction + reference-LM coverage,
    all with SQL-expressible definitions (the redaction regexes are RE2 in
    both engines and shared verbatim with the oracle).

    LM coverage is the CCNet-style reference-model quality signal (Wenzek et
    al. 2020 filter docs by LM agreement with a curated corpus): a bigram
    vocabulary is built from the reference slice (doc_id % ref_mod == 0
    stands in for the curated corpus) and each document reports how many of
    its bigram positions the reference vocabulary covers (`lm_hits` /
    `lm_coverage`) plus its out-of-vocabulary token count (`oov_tokens`).
    All counts are integers and the coverage is one IEEE division, so the
    oracle match is exact. Size-gated like decontaminate_corpus: the distinct
    reference vocab broadcasts when it fits (the realistic shape — the
    reference corpus is curated and bounded while the web corpus streams),
    else a bucketed semi-join counts membership with zero driver state."""
    from epichypersketch_jl_ray.functions.pii import pii_counts, redact_pii
    from epichypersketch_jl_ray.functions.text import (
        ngram_hashes,
        repetition_features,
        token_hashes,
    )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    ref = group_aggregate(
        ds.map_batches(lambda b: _ref_vocab_rows(b, ref_mod=ref_mod), batch_format="pyarrow"),
        ["kind", "h"],
        {},
        table_rows(sf_dir, "documents"),
    )
    n_ref = ref.count()

    def base_columns(batch: pa.Table) -> tuple[dict, np.ndarray, np.ndarray]:
        """Per-doc local columns plus the (flat token hashes, offsets) they
        were derived from, so callers never tokenize twice."""
        qf = quality_features(batch["text"])
        aug = _augment_pii(batch["doc_id"], batch["text"])
        counts = pii_counts(aug)
        flat, off = token_hashes(batch["text"])
        rep = repetition_features(flat, off)
        cols = {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(qf["n_chars"], pa.int64()),
            "n_tokens": pa.array(qf["n_tokens"], pa.int64()),
            "n_uniq_tokens": pa.array(qf["n_uniq_tokens"], pa.int64()),
            "ttr": pa.array(qf["ttr"], pa.float64()),
            "top_token_share": pa.array(qf["top_token_share"], pa.float64()),
            "top_bigram_share": pa.array(rep["top_bigram_share"], pa.float64()),
            "dup_trigram_frac": pa.array(rep["dup_trigram_frac"], pa.float64()),
            "max_token_run": pa.array(rep["max_token_run"], pa.int64()),
            "n_emails": pa.array(counts["n_emails"], pa.int64()),
            "n_ips": pa.array(counts["n_ips"], pa.int64()),
            "n_phones": pa.array(counts["n_phones"], pa.int64()),
            "redacted": redact_pii(aug),
        }
        return cols, flat, off

    if n_ref <= broadcast_cap:
        vocab = to_table(ref)  # bounded by broadcast_cap
        hs = vocab["h"].to_numpy().astype(np.int64)
        kd = vocab["kind"].to_numpy().astype(np.int64)
        uni_set = np.sort(hs[kd == 0])
        bg_set = np.sort(hs[kd == 1])
        ref_ref = ray.put((uni_set, bg_set))

        def stats(batch: pa.Table) -> pa.Table:
            uni_set, bg_set = ray.get(ref_ref)  # zero-copy shared-memory numpy
            cols, flat, off = base_columns(batch)
            bg, bgoff = ngram_hashes(flat, off, 2)
            n = batch.num_rows
            row_tok = np.repeat(np.arange(n), np.diff(off))
            row_bg = np.repeat(np.arange(n), np.diff(bgoff))
            oov = np.bincount(row_tok[~_member(uni_set, flat)], minlength=n)
            hits = np.bincount(row_bg[_member(bg_set, bg)], minlength=n)
            n_bigrams = np.maximum(np.diff(off) - 1, 0)
            cols["n_bigrams"] = pa.array(n_bigrams, pa.int64())
            cols["lm_hits"] = pa.array(hits.astype(np.int64), pa.int64())
            cols["oov_tokens"] = pa.array(oov.astype(np.int64), pa.int64())
            cols["lm_coverage"] = pa.array(
                hits.astype(np.float64) / np.maximum(n_bigrams, 1), pa.float64()
            )
            return pa.table(cols)

        return ds.map_batches(stats, batch_format="pyarrow")

    # scale path: bucketed membership counts, attached by a bucketed join
    from epichypersketch_jl_ray.stages.join import bucketed_hash_join

    def base_stats(batch: pa.Table) -> pa.Table:
        cols, _flat, off = base_columns(batch)
        cols["n_bigrams"] = pa.array(np.maximum(np.diff(off) - 1, 0), pa.int64())
        return pa.table(cols)

    stats_ds = ds.map_batches(base_stats, batch_format="pyarrow")
    counts = _lm_counts_semijoin(ds, ref)
    joined = bucketed_hash_join(
        stats_ds, counts, left_on="doc_id", right_on="doc_id"
    )

    def finish(batch: pa.Table) -> pa.Table:
        hits = batch["lm_hits"].to_numpy(zero_copy_only=False).astype(np.int64)
        nbg = batch["n_bigrams"].to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.append_column(
            "lm_coverage",
            pa.array(hits.astype(np.float64) / np.maximum(nbg, 1), pa.float64()),
        )
        return batch.select(DOC_STATS_COLUMNS)

    return joined.map_batches(finish, batch_format="pyarrow")


def doc_stats_sql(ref_mod: int = 10) -> str:
    from epichypersketch_jl_ray.functions.pii import EMAIL_PATTERN, IPV4_PATTERN, PHONE_PATTERN

    return f"""
WITH aug AS (
  SELECT doc_id, text,
         text
         || CASE WHEN doc_id % 2 = 0 THEN ' u' || CAST(doc_id AS VARCHAR) || '@ex.com' ELSE '' END
         || CASE WHEN doc_id % 3 = 0 THEN ' 10.1.' || CAST(doc_id % 256 AS VARCHAR) || '.7' ELSE '' END
         || CASE WHEN doc_id % 5 = 0 THEN ' +1 555 0' || CAST(doc_id % 100 AS VARCHAR) ELSE '' END
         AS a
  FROM documents
),
tok_share AS (
  SELECT doc_id, CAST(max(cnt) AS DOUBLE) / sum(cnt) AS top_token_share
  FROM (
    SELECT doc_id, tok, count(*) AS cnt
    FROM documents, unnest(string_split(text, ' ')) AS u(tok)
    GROUP BY doc_id, tok
  )
  GROUP BY doc_id
),
t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
toks AS (
  SELECT doc_id, toks[i + 1] AS tok
  FROM t, LATERAL unnest(range(0, len(toks))) r(i)
),
bgs AS (
  SELECT doc_id, toks[i + 1] || ' ' || toks[i + 2] AS bg
  FROM t, LATERAL unnest(range(0, GREATEST(len(toks) - 1, 0))) r(i)
),
tgs AS (
  SELECT doc_id, toks[i + 1] || ' ' || toks[i + 2] || ' ' || toks[i + 3] AS tg
  FROM t, LATERAL unnest(range(0, GREATEST(len(toks) - 2, 0))) r(i)
),
topbg AS (
  SELECT doc_id, max(c) AS mx
  FROM (SELECT doc_id, bg, count(*) AS c FROM bgs GROUP BY 1, 2)
  GROUP BY doc_id
),
duptg AS (
  SELECT doc_id, COALESCE(SUM(c) FILTER (WHERE c >= 2), 0) AS dup
  FROM (SELECT doc_id, tg, count(*) AS c FROM tgs GROUP BY 1, 2)
  GROUP BY doc_id
),
posi AS (
  SELECT doc_id, i, toks[i + 1] AS tok
  FROM t, LATERAL unnest(range(0, len(toks))) r(i)
),
maxrun AS (
  SELECT doc_id, max(run_len) AS max_run
  FROM (
    SELECT doc_id, count(*) AS run_len
    FROM (SELECT doc_id, tok,
                 i - row_number() OVER (PARTITION BY doc_id, tok ORDER BY i) AS grp
          FROM posi)
    GROUP BY doc_id, tok, grp
  )
  GROUP BY doc_id
),
ref_tok AS (SELECT DISTINCT tok FROM toks WHERE doc_id % {ref_mod} = 0),
ref_bg AS (SELECT DISTINCT bg FROM bgs WHERE doc_id % {ref_mod} = 0),
lm AS (
  SELECT bgs.doc_id, COUNT(ref_bg.bg) AS hits
  FROM bgs LEFT JOIN ref_bg ON bgs.bg = ref_bg.bg
  GROUP BY bgs.doc_id
),
oov AS (
  SELECT toks.doc_id, COUNT(*) FILTER (WHERE ref_tok.tok IS NULL) AS oov_tokens
  FROM toks LEFT JOIN ref_tok ON toks.tok = ref_tok.tok
  GROUP BY toks.doc_id
)
SELECT aug.doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT) AS n_uniq_tokens,
       CAST(len(list_distinct(string_split(text, ' '))) AS DOUBLE) / len(string_split(text, ' ')) AS ttr,
       tok_share.top_token_share,
       CAST(COALESCE(topbg.mx, 0) AS DOUBLE)
         / GREATEST(len(string_split(text, ' ')) - 1, 1) AS top_bigram_share,
       CAST(COALESCE(duptg.dup, 0) AS DOUBLE)
         / GREATEST(len(string_split(text, ' ')) - 2, 1) AS dup_trigram_frac,
       CAST(maxrun.max_run AS BIGINT) AS max_token_run,
       CAST(len(regexp_extract_all(a, '{EMAIL_PATTERN}')) AS BIGINT) AS n_emails,
       CAST(len(regexp_extract_all(a, '{IPV4_PATTERN}')) AS BIGINT) AS n_ips,
       CAST(len(regexp_extract_all(a, '{PHONE_PATTERN}')) AS BIGINT) AS n_phones,
       regexp_replace(regexp_replace(regexp_replace(a,
           '{EMAIL_PATTERN}', '<EMAIL>', 'g'),
           '{IPV4_PATTERN}', '<IP>', 'g'),
           '{PHONE_PATTERN}', '<PHONE>', 'g') AS redacted,
       CAST(GREATEST(len(string_split(text, ' ')) - 1, 0) AS BIGINT) AS n_bigrams,
       CAST(COALESCE(lm.hits, 0) AS BIGINT) AS lm_hits,
       CAST(oov.oov_tokens AS BIGINT) AS oov_tokens,
       CAST(COALESCE(lm.hits, 0) AS DOUBLE)
         / GREATEST(len(string_split(text, ' ')) - 1, 1) AS lm_coverage
FROM aug
JOIN tok_share USING (doc_id)
LEFT JOIN topbg ON aug.doc_id = topbg.doc_id
LEFT JOIN duptg ON aug.doc_id = duptg.doc_id
JOIN maxrun ON aug.doc_id = maxrun.doc_id
LEFT JOIN lm ON aug.doc_id = lm.doc_id
JOIN oov ON aug.doc_id = oov.doc_id
"""


BPE_PATTERN = "[a-z]+|[0-9]+|[^a-z0-9 ]"
_BPE_RE = re.compile(BPE_PATTERN)


def bpeish_piece_counts(batch: pa.Table) -> pa.Table:
    """(doc_id, n_pieces): BPE-ish regex pieces per document (the per-row
    findall loop is the documented cost of regex tokenization)."""
    texts = batch["text"].to_pylist()
    counts = np.fromiter(
        (len(_BPE_RE.findall(t)) for t in texts), dtype=np.int64, count=len(texts)
    )
    return pa.table({"doc_id": batch["doc_id"], "n_pieces": pa.array(counts, pa.int64())})


def token_count_bpe(sf_dir: str) -> ray.data.Dataset:
    """BPE-ish regex token counting per document (letters / digits /
    single non-space symbol pieces)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(bpeish_piece_counts, batch_format="pyarrow", batch_size=512)


def token_count_bpe_sql() -> str:
    return f"""
SELECT doc_id, CAST(len(regexp_extract_all(text, '{BPE_PATTERN}')) AS BIGINT) AS n_pieces
FROM documents
"""


def fingerprint_columns(
    texts: pa.Array | pa.ChunkedArray, *, k: int = 8, window: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """(per-row fingerprint count, per-row xor digest) — the winnowing
    summary kernel of the fused per-doc frame (merged.doc_lang_fingerprints)."""
    hashes, off = winnow_fingerprints(texts, k=k, window=window)
    n_fp = np.diff(off)
    digest = np.zeros(len(n_fp), dtype=np.uint64)
    if len(hashes):
        row_ids = np.repeat(np.arange(len(n_fp)), n_fp)
        np.bitwise_xor.at(digest, row_ids, hashes)
    return n_fp.astype(np.int64), digest.view(np.int64)


def export_by_lang(sf_dir: str, *, out_dir: str | None = None) -> ray.data.Dataset:
    """Write-path query: documents written as lang-partitioned parquet (one
    directory per lang — the resumable partitioned-output layout), then the
    verification read comes FROM THE WRITTEN FILES, so the sink round-trip
    itself is oracle-checked (per-lang row counts + char sums)."""
    import tempfile

    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="graft_export_by_lang_")
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    ds.write_parquet(out_dir, partition_cols=["lang"])
    back = ray.data.read_parquet(out_dir)

    def norm(batch: pa.Table) -> pa.Table:
        # partition column comes back as dictionary/string depending on
        # reader; normalize for the aggregate
        return pa.table(
            {
                "lang": batch["lang"].cast(pa.string()),
                "n_chars": batch["n_chars"].cast(pa.int64()),
            }
        )

    return group_aggregate(
        back.map_batches(norm, batch_format="pyarrow"),
        ["lang"],
        {"n_docs": ([], "count_all"), "total_chars": ("n_chars", "sum")},
        table_rows(sf_dir, "documents"),
    )


def export_by_lang_sql() -> str:
    return """
SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


def distinctive_terms(sf_dir: str, *, k: int = 3) -> ray.data.Dataset:
    """Per-document top-k distinctive terms, tf-idf-style but integer-exact:
    score = tf / df as one IEEE double division (bit-identical in numpy and
    DuckDB — no transcendentals), ties broken by term.

    Scale shape: ONE map_batches builds the distinct (doc_id, term, tf) pairs
    (pandas groupby per batch — the minimal pre-aggregation; df cannot be
    combined below distinct-pair granularity), then two hash exchanges
    (stages/exchange): term buckets compute df per term AND attach it in the
    same segment scan (df is just the per-term row count over distinct pairs
    — no separate df shuffle or join), doc buckets take the per-doc top-k.
    No broadcast, no driver state; skewed terms spread across buckets by
    hash. ``udaf.cpu_units`` of the documents' footer row count sizes both.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from epichypersketch_jl_ray.functions.hashing import hash_strings_fast
    from epichypersketch_jl_ray.sources.tables import table_rows
    from epichypersketch_jl_ray.stages.exchange import hash_partition, map_buckets
    from epichypersketch_jl_ray.stages.udaf import block_refs, cpu_units

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"].combine_chunks(), pattern=" ")
        flat = toks.flatten().to_pandas()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row_of = np.repeat(ids, np.asarray(toks.value_lengths(), dtype=np.int64))
        tf = (
            pd.DataFrame({"doc_id": row_of, "term": flat})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        terms = pa.array(tf["term"], pa.string())
        return pa.table(
            {
                "doc_id": pa.array(tf["doc_id"].to_numpy(), pa.int64()),
                "term": terms,
                "tf": pa.array(tf["tf"].to_numpy().astype(np.int64), pa.int64()),
                "term_h": pa.array(hash_strings_fast(terms).view(np.int64)),
            }
        )

    def attach_df(group: pa.Table) -> pa.Table:
        term = group["term"].to_numpy(zero_copy_only=False)
        order = np.argsort(term, kind="stable")
        t_sorted = term[order]
        new = np.ones(len(t_sorted), dtype=bool)
        new[1:] = t_sorted[1:] != t_sorted[:-1]
        seg = np.cumsum(new) - 1
        df_per_seg = np.bincount(seg)
        df = np.empty(len(term), np.int64)
        df[order] = df_per_seg[seg]
        return pa.table(
            {
                "doc_id": group["doc_id"],
                "term": group["term"],
                "tf": group["tf"],
                "df": pa.array(df, pa.int64()),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = group["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        term = group["term"].to_numpy(zero_copy_only=False)
        score = tf / df  # one correctly-rounded IEEE op: oracle-identical
        order = np.lexsort((term, -score, doc))
        d_sorted = doc[order]
        new = np.ones(len(d_sorted), dtype=bool)
        new[1:] = d_sorted[1:] != d_sorted[:-1]
        seg_start = np.flatnonzero(new)
        rank = np.arange(len(d_sorted)) - np.repeat(seg_start, np.diff(np.append(seg_start, len(d_sorted))))
        take = order[rank < k]
        return pa.table(
            {
                "doc_id": group["doc_id"].take(take),
                "term": group["term"].take(take),
                "tf": group["tf"].take(take),
                "df": group["df"].take(take),
                "score": pa.array(score[take], pa.float64()),
            }
        )

    buckets = cpu_units(table_rows(sf_dir, "documents"))
    pairs = block_refs(docs.map_batches(tf_pairs, batch_format="pyarrow"))
    with_df = map_buckets(attach_df, hash_partition(pairs, ["term_h"], buckets))
    return map_buckets(topk, hash_partition(block_refs(with_df), ["doc_id"], buckets))


def distinctive_terms_sql(k: int = 3) -> str:
    return f"""
WITH t AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM t GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
s AS (SELECT doc_id, term, tf, df, tf::DOUBLE / df AS score,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY tf::DOUBLE / df DESC, term) AS rn
      FROM tf JOIN df USING (term))
SELECT doc_id, term, tf, df, score FROM s WHERE rn <= {k}
"""
