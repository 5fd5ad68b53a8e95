"""GPT-style sequence packing: concatenate the corpus token stream in
doc_id order and cut it into fixed-budget training sequences, emitting
(doc_id, seq_id, tok_start, tok_end) slices — the training-data layout step
that follows curation (documents concatenated with splitting allowed, every
sequence exactly ``seq_len`` tokens except the last).

Distributed shape: the global cut positions need each document's exclusive
prefix sum over the token stream — an exact distributed scan, NOT a driver
loop:

1. one column-pruned pass counts tokens per doc;
2. docs bucket into contiguous doc_id RANGES (``doc_id // range_size``);
   per-range token totals come from one small grouped sum whose output is
   range-count-sized (bounded: 100 TB at 1e10 docs / 1e6-doc ranges is 1e4
   rows), so the driver's exclusive cumsum over range totals is O(ranges);
3. the range-offset table broadcasts once; each range co-locates with one
   bucketed groupby and computes its docs' exact global offsets with a
   local sort + cumsum, then emits every (doc, sequence) overlap row
   vectorized (repeat + arange, no per-doc Python).

All arithmetic is integer, so the DuckDB window-function oracle matches
hash-exact. Token basis is whitespace split (``string_split(text, ' ')``),
the same basis as doc_stats.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from epichypersketch_jl_ray.functions.text import tokenize
from epichypersketch_jl_ray.sources.tables import read_table, table_dataset
from epichypersketch_jl_ray.stages.exchange import group_aggregate, to_table


_SLICES = pa.schema([(c, pa.int64()) for c in ("doc_id", "seq_id", "tok_start", "tok_end")])


def pack_sequences(
    sf_dir: str,
    *,
    seq_len: int = 256,
    range_size: int | None = None,
    table: str = "documents",
) -> ray.data.Dataset:
    """(doc_id, seq_id, tok_start, tok_end) slice rows: sequence ``seq_id``
    takes tokens [tok_start, tok_end) of ``doc_id`` (within-doc positions).
    ``range_size`` trades driver state (one int64 per range) against
    per-range group size; the default auto-sizes from the table's metadata
    row count toward ~8k ranges, so group count — and with it per-group
    Python overhead AND driver cumsum state — stays bounded at any corpus
    size (sparse/uneven doc_ids only make ranges uneven, never wrong)."""
    ds = read_table(sf_dir, table, columns=["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count
    if not n_docs:  # Ray Data's map of a 0-row read gives blocks with no columns
        return table_dataset(_SLICES.empty_table())
    if range_size is None:
        range_size = max(64, n_docs // 8192)

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.diff(np.asarray(tokenize(batch["text"]).offsets, dtype=np.int64))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "rng": pa.array(ids // range_size, pa.int64()),
            }
        )

    cd = ds.map_batches(counts, batch_format="pyarrow").materialize()

    # bounded driver state: one exclusive cumsum over per-range totals
    totals = to_table(group_aggregate(cd, ["rng"], {"t": ("n", "sum")}, None)).to_pandas()
    totals = totals.sort_values("rng")
    rng_ids = totals["rng"].to_numpy().astype(np.int64)
    t = totals["t"].to_numpy().astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(t)[:-1]))
    off_ref = ray.put((rng_ids, offsets))

    def emit_range(group: pa.Table) -> pa.Table:
        rng_ids, offsets = ray.get(off_ref)
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return _SLICES.empty_table()
        base = offsets[np.searchsorted(rng_ids, ids[0] // range_size)]
        order = np.argsort(ids, kind="stable")
        ids, n = ids[order], n[order]
        start = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        keep = n > 0
        ids, n, start = ids[keep], n[keep], start[keep]
        first_seq = start // seq_len
        n_seqs = (start + n - 1) // seq_len - first_seq + 1
        row = np.repeat(np.arange(len(ids)), n_seqs)
        q = np.arange(int(n_seqs.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(n_seqs)[:-1])), n_seqs
        )
        seq = first_seq[row] + q
        tok_start = np.maximum(seq * seq_len - start[row], 0)
        tok_end = np.minimum((seq + 1) * seq_len - start[row], n[row])
        return pa.table(
            {
                "doc_id": pa.array(ids[row], pa.int64()),
                "seq_id": pa.array(seq, pa.int64()),
                "tok_start": pa.array(tok_start, pa.int64()),
                "tok_end": pa.array(tok_end, pa.int64()),
            }
        )

    return cd.groupby("rng").map_groups(emit_range, batch_format="pyarrow")


def pack_sequences_sql(seq_len: int = 256) -> str:
    """Window-function oracle: exclusive prefix sum over doc_id order, then
    one LATERAL range() per overlapped sequence — pure integer arithmetic."""
    return f"""
WITH d AS (
  SELECT doc_id, len(string_split(text, ' ')) AS n FROM documents
),
c AS (
  SELECT doc_id, n,
         CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s
  FROM d
)
SELECT doc_id,
       (s // {seq_len}) + g.q AS seq_id,
       GREATEST(((s // {seq_len}) + g.q) * {seq_len} - s, 0) AS tok_start,
       LEAST((((s // {seq_len}) + g.q) + 1) * {seq_len} - s, n) AS tok_end
FROM c, LATERAL unnest(range(0, ((s + n - 1) // {seq_len}) - (s // {seq_len}) + 1)) g(q)
WHERE n > 0
"""
