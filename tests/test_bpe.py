"""Trainable BPE: classic-merge correctness on a hand-checkable corpus,
determinism, encode/decode round trip, the LRU'd apply loop, and the
distributed apply path (broadcast tokenizer == local encode)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from epichypersketch_jl_ray.functions.bpe import BpeTokenizer, train_bpe
from epichypersketch_jl_ray.stages.udaf import broadcast_get


def test_classic_merges_hand_checked():
    # 'low' x5, 'lower' x2, 'newest' x6, 'widest' x3 — the ACL-2016 example:
    # the first merges must build 'est</w>' from (e,s), (es,t</w>)
    corpus = ["low " * 5 + "lower " * 2 + "newest " * 6 + "widest " * 3]
    merges = train_bpe(corpus, num_merges=10, min_freq=2)
    assert merges[0] == ("e", "s")          # freq 9 (newest+widest)
    assert merges[1] == ("es", "t</w>")     # freq 9
    tok = BpeTokenizer(merges)
    # frequent training words end up fully merged into one token
    assert tok.encode("newest") == ["newest</w>"]
    assert tok.encode("low") == ["low</w>"]
    # the learned 'est</w>' suffix generalizes to an unseen word
    assert tok.encode("tallest")[-1] in ("est</w>", "t</w>", "allest</w>")
    assert len(tok.encode("tallest")) > 1


def test_determinism_and_tie_break():
    corpus = ["ab cd ab cd"]  # (a,b</w>) and (c,d</w>) tie at 2
    m1 = train_bpe(corpus, num_merges=2, min_freq=2)
    m2 = train_bpe(corpus, num_merges=2, min_freq=2)
    assert m1 == m2 == [("a", "b</w>"), ("c", "d</w>")]  # lexicographic tie-break


def test_encode_decode_round_trip():
    corpus = ["the quick brown fox jumps over the lazy dog. " * 20]
    tok = BpeTokenizer(train_bpe(corpus, num_merges=60, min_freq=2))
    text = "the quick brown fox jumps over the lazy dog."
    # word-level BPE: decode restores words; punctuation is its own word
    assert tok.decode(tok.encode(text)) == "the quick brown fox jumps over the lazy dog ."
    # unseen words still encode (down to characters if need be)
    assert tok.decode(tok.encode("zyzzyva")) == "zyzzyva"


def test_min_freq_stops_training():
    merges = train_bpe(["a b c d e"], num_merges=50, min_freq=2)
    assert merges == []  # every pair is a singleton


def test_arrow_kernels():
    tok = BpeTokenizer(train_bpe(["hello hello world"], num_merges=20, min_freq=2))
    arr = pa.array(["hello world", None, ""])
    counts = tok.token_counts(arr)
    assert counts[1].as_py() is None and counts[2].as_py() == 0
    lists = tok.tokenize(arr)
    assert lists[0].as_py() == tok.encode("hello world")
    assert lists[1].as_py() == []


def test_distributed_apply_equals_local(ray_session):
    import ray

    docs = [f"document number {i} talks about sketching and streams" for i in range(200)]
    ds = ray.data.from_items([{"text": t} for t in docs])
    tok = BpeTokenizer(train_bpe(docs[:100], 80))
    ref = ray.put(tok)  # broadcast once, read per task through the worker memo

    def apply(batch: pa.Table) -> pa.Table:
        t = broadcast_get(ref)
        return pa.table({"n_tokens": t.token_counts(batch["text"])})

    got = ds.map_batches(apply, batch_format="pyarrow").take_all()
    want = [len(tok.encode(t)) for t in docs]
    assert sorted(r["n_tokens"] for r in got) == sorted(want)
    assert min(want) > 0
    # one instance per process: its word cache stays warm from call to call
    broadcast_get(ref).token_counts(pa.array(docs[:5]))
    assert broadcast_get(ref) is broadcast_get(ref) and broadcast_get(ref)._cache


def test_bpeish_piece_counts_equal_regex_findall():
    """token_count_bpe's batch function: one count of BPE-ish regex pieces
    per document, next to its doc_id."""
    import re

    from epichypersketch_jl_ray.pipelines.textstats import BPE_PATTERN, bpeish_piece_counts

    texts = ["hello world 42!", "", "a-b c_d", "über 3.14"]
    batch = pa.table({"doc_id": pa.array([7, 8, 9, 10], pa.int64()), "text": texts})
    out = bpeish_piece_counts(batch)
    assert out.column_names == ["doc_id", "n_pieces"]
    assert out["doc_id"].to_pylist() == [7, 8, 9, 10]
    assert out["n_pieces"].to_pylist() == [4, 0, 6, 5]
    assert out["n_pieces"].to_pylist() == [len(re.findall(BPE_PATTERN, t)) for t in texts]


def test_distributed_training_exact_vs_local(ray_session):
    """train_bpe_distributed == train_bpe over the concatenated corpus:
    the distributed word-count groupby + distinct-word merge loop is EXACT,
    not sample-approximate — and partition-count invariant."""
    import ray

    from epichypersketch_jl_ray.functions.bpe import train_bpe_distributed

    docs = [f"streaming sketches count {i % 7} items per pass" for i in range(120)]
    docs += ["", None, "LOWER lower LoWeR"]
    local = train_bpe([t for t in docs if t], num_merges=60)
    ds = ray.data.from_items([{"text": t} for t in docs])
    assert train_bpe_distributed(ds, "text", num_merges=60).merges == local
    assert train_bpe_distributed(ds.repartition(9), "text", num_merges=60).merges == local


def test_distributed_training_max_words_cap(ray_session):
    """max_words keeps the top-N words by (count desc, word asc) — equal to
    local training on a corpus restricted to those words."""
    import ray
    from collections import Counter

    from epichypersketch_jl_ray.functions.bpe import (
        train_bpe_distributed,
        train_bpe_from_word_counts,
        _WORD_RE,
    )

    docs = ["alpha " * 9 + "beta " * 7 + "gamma " * 5 + "delta " * 3 + "eps " * 2 + "zz"]
    counts = Counter(_WORD_RE.findall(" ".join(docs).lower()))
    top3 = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3])
    want = train_bpe_from_word_counts(top3, 40, min_freq=2)
    ds = ray.data.from_items([{"text": t} for t in docs])
    got = train_bpe_distributed(ds, "text", num_merges=40, max_words=3)
    assert got.merges == want


def test_distributed_training_default_cap_is_finite(ray_session):
    """The DEFAULT max_words is a finite constant (the one driver-side
    take_all in bpe.py is corpus-bounded otherwise), and capped-by-default
    training is byte-identical to an explicit uncapped run whenever the
    distinct-word count is under the cap."""
    import inspect
    import ray

    from epichypersketch_jl_ray.functions.bpe import train_bpe_distributed

    default = inspect.signature(train_bpe_distributed).parameters["max_words"].default
    assert default is not None and 0 < default <= 1 << 24

    docs = [f"capped default training sample {i % 11} tokens" for i in range(90)]
    ds = ray.data.from_items([{"text": t} for t in docs])
    capped = train_bpe_distributed(ds, "text", num_merges=50)
    uncapped = train_bpe_distributed(ds, "text", num_merges=50, max_words=None)
    assert capped.merges == uncapped.merges


@pytest.fixture(scope="module")
def doc_frame(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.merged import doc_lang_fingerprints

    return doc_lang_fingerprints(sf_dir).to_pandas().set_index("doc_id").sort_index()


def test_bpe_trained_counts_pipeline(ray_session, sf_dir, doc_frame):
    """The doc_lang_fingerprints BPE column: corpus-trained tokenizer counts
    equal direct local encode for every doc."""
    from epichypersketch_jl_ray.functions.bpe import train_bpe_distributed
    from epichypersketch_jl_ray.sources.tables import read_table

    out = doc_frame
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tok = train_bpe_distributed(docs, "text", num_merges=64)
    df = docs.to_pandas()
    assert len(out) == len(df)
    for _, row in df.sample(n=40, random_state=7).iterrows():
        assert int(out.loc[row["doc_id"], "n_tokens_bpe_trained"]) == len(tok.encode(row["text"]))


def test_fused_doc_frame_equals_singles(ray_session, sf_dir, doc_frame):
    """merged.doc_lang_fingerprints (one read + one fused map, no joins)
    byte-equals each single-purpose per-doc computation: langid_scores,
    textstats.fingerprint_columns and the classifier.quality_scores
    pipeline (the BPE column: test_bpe_trained_counts_pipeline)."""
    import numpy as np

    from epichypersketch_jl_ray.functions.text import langid_scores
    from epichypersketch_jl_ray.pipelines.classifier import quality_scores
    from epichypersketch_jl_ray.pipelines.textstats import fingerprint_columns
    from epichypersketch_jl_ray.sources.tables import read_table

    o = doc_frame
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"]).to_pandas()
    docs = docs.set_index("doc_id").sort_index()
    text = pa.array(docs["text"].tolist(), pa.string())
    n_fp, digest = fingerprint_columns(text)
    qs = quality_scores(sf_dir).to_pandas().set_index("doc_id").sort_index()
    assert (o.index == docs.index).all()
    assert (o["lang_pred"].to_numpy() == langid_scores(text).astype(str)).all()
    assert (o["lang_declared"] == docs["lang"]).all()
    assert (o["n_fingerprints"].to_numpy() == n_fp).all()
    assert (o["fp_digest"].to_numpy() == digest).all()
    assert np.array_equal(o["quality_prob"].to_numpy(), qs["quality_prob"].to_numpy())
