"""Sequence packing (pipelines/packing.py): exact distributed prefix-sum
chunking of the doc_id-ordered token stream. Oracle parity is covered by
test_queries_oracle (merged token_count_bpe entry); here: planted layout,
range_size invariance, and stream-partition properties."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(tmp_path, texts, ids=None):
    d = tmp_path / "docs"
    d.mkdir()
    ids = ids if ids is not None else list(range(len(texts)))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_pack_sequences_planted(ray_session, tmp_path):
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    # token counts: doc0=3, doc1=5, doc2=2 -> stream of 10, seq_len=4:
    # seq0 = doc0[0:3] + doc1[0:1]; seq1 = doc1[1:5]; seq2 = doc2[0:2]
    sf = _write_docs(tmp_path, ["a b c", "d e f g h", "i j"])
    out = (
        pack_sequences(sf, seq_len=4)
        .to_pandas()
        .sort_values(["doc_id", "seq_id"])
        .reset_index(drop=True)
    )
    exp = pd.DataFrame(
        {
            "doc_id": [0, 1, 1, 2],
            "seq_id": [0, 0, 1, 2],
            "tok_start": [0, 0, 1, 0],
            "tok_end": [3, 1, 5, 2],
        }
    )
    pd.testing.assert_frame_equal(out[exp.columns], exp)


@pytest.mark.parametrize("range_size", [1, 7, 10_000])
def test_pack_sequences_range_size_invariant(ray_session, sf_dir, range_size):
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    key = ["doc_id", "seq_id"]
    a = (
        pack_sequences(sf_dir)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    b = (
        pack_sequences(sf_dir, range_size=range_size)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)[a.columns]
    )
    pd.testing.assert_frame_equal(a, b)


def test_pack_sequences_partitions_the_stream(ray_session, sf_dir):
    """Every sequence except the last holds exactly seq_len tokens, and each
    doc's slices partition [0, n_tokens) without gap or overlap."""
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    out = pack_sequences(sf_dir, seq_len=100).to_pandas()
    per_seq = (out["tok_end"] - out["tok_start"]).groupby(out["seq_id"]).sum()
    assert (per_seq.iloc[:-1] == 100).all() and 0 < per_seq.iloc[-1] <= 100
    for _, g in out.groupby("doc_id"):
        g = g.sort_values("seq_id")
        assert g["tok_start"].iloc[0] == 0
        assert (g["tok_start"].to_numpy()[1:] == g["tok_end"].to_numpy()[:-1]).all()


def test_pack_sequences_sparse_doc_ids(ray_session, tmp_path):
    """Non-dense doc_ids (gaps across ranges) still pack in doc_id order."""
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    sf = _write_docs(tmp_path, ["a b", "c d", "e f"], ids=[5, 1000, 70])
    out = (
        pack_sequences(sf, seq_len=3, range_size=64)
        .to_pandas()
        .sort_values(["seq_id", "doc_id"])
        .reset_index(drop=True)
    )
    # order 5, 70, 1000 -> stream a b | e f | c d, seqs of 3:
    # seq0 = 5[0:2] + 70[0:1]; seq1 = 70[1:2] + 1000[0:2]
    exp = pd.DataFrame(
        {
            "doc_id": [5, 70, 70, 1000],
            "seq_id": [0, 0, 1, 1],
            "tok_start": [0, 0, 1, 0],
            "tok_end": [2, 1, 2, 2],
        }
    )
    pd.testing.assert_frame_equal(
        out.sort_values(["doc_id", "seq_id"]).reset_index(drop=True)[exp.columns], exp
    )


def test_pack_sequences_of_a_corpus_with_no_document(ray_session, tmp_path):
    """No document, no sequence: 0 rows (the per-range totals are typed,
    though every bucket of them has 0 rows)."""
    from epichypersketch_jl_ray.pipelines.packing import pack_sequences

    sf = _write_docs(tmp_path, [])
    assert pack_sequences(sf, seq_len=4).count() == 0
