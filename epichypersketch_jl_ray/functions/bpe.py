"""Trainable byte-pair-encoding tokenizer (Sennrich et al., ACL 2016).

The scale shape mirrors how real 100 TB pipelines use BPE: classic BPE's
whole training state is the WORD-FREQUENCY table, so exact corpus-wide
training is a distributed word-count groupby (shuffle = distinct words per
batch, never the token stream) followed by the merge loop over DISTINCT
words on the driver (train_bpe_distributed; ``max_words`` caps the typo
tail at web scale). The tokenizer is then BROADCAST once (``ray.put``)
and APPLIED distributed via ``map_batches`` — tokenization is
embarrassingly parallel and dominates the cost at corpus scale.

Determinism: merge selection breaks frequency ties lexicographically, so
the same sample always yields the same merge list; the applied encoding
is the standard lowest-rank-first loop (as in the public GPT-2 encoder),
LRU-cached per distinct word inside each actor.

This complements the BPE-ish fixed-regex token COUNTER in
functions/text.py (oracle-checkable because it is pure regex); this
module produces actual subword vocabularies.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[a-z]+)?|[^\sA-Za-z0-9]")
_EOW = "</w>"


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word[:-1]) + (word[-1] + _EOW,)


def train_bpe(
    texts,
    num_merges: int = 200,
    *,
    lowercase: bool = True,
    min_freq: int = 2,
) -> list[tuple[str, str]]:
    """Texts (any iterable of str) -> ordered merge list. Deterministic:
    ties on pair frequency break lexicographically."""
    words: Counter = Counter()
    for t in texts:
        if t is None:
            continue
        if lowercase:
            t = t.lower()
        words.update(_WORD_RE.findall(t))
    return train_bpe_from_word_counts(words, num_merges, min_freq=min_freq)


def train_bpe_from_word_counts(
    words,
    num_merges: int = 200,
    *,
    min_freq: int = 2,
) -> list[tuple[str, str]]:
    """Word-frequency table (mapping word -> count) -> ordered merge list.

    This is the whole training state: classic BPE never looks at the corpus
    again once word counts exist, which is what makes EXACT corpus-scale
    training a distributed groupby + this driver loop over DISTINCT words
    (train_bpe_distributed)."""
    vocab: dict[tuple[str, ...], int] = {
        _word_symbols(w): c for w, c in dict(words).items() if w
    }
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pairs: Counter = Counter()
        for syms, freq in vocab.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += freq
        if not pairs:
            break
        best_freq = max(pairs.values())
        if best_freq < min_freq:
            break
        best = min(p for p, c in pairs.items() if c == best_freq)
        merges.append(best)
        merged = best[0] + best[1]
        new_vocab: dict[tuple[str, ...], int] = {}
        for syms, freq in vocab.items():
            out: list[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == best[0] and syms[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + freq
        vocab = new_vocab
    return merges


class BpeTokenizer:
    """Applies a trained merge list. Build once per actor (``__init__`` of a
    map_batches class, or broadcast the instance via ``ray.put``)."""

    _CACHE_MAX = 65536  # plain dict, not lru_cache: the instance must pickle
    # cleanly for ray.put broadcast (bound-method caches don't)

    def __init__(self, merges: list[tuple[str, str]], *, lowercase: bool = True) -> None:
        self.merges = [tuple(m) for m in merges]
        self.ranks = {tuple(m): i for i, m in enumerate(self.merges)}
        self.lowercase = lowercase
        self._cache: dict[str, tuple[str, ...]] = {}

    def _encode_word(self, word: str) -> tuple[str, ...]:
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        out = self._encode_word_uncached(word)
        if len(self._cache) < self._CACHE_MAX:
            self._cache[word] = out
        return out

    def _encode_word_uncached(self, word: str) -> tuple[str, ...]:
        syms = list(_word_symbols(word))
        ranks = self.ranks
        while len(syms) > 1:
            best_rank = None
            best_i = -1
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_i = r, i
            if best_rank is None:
                break
            syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
        return tuple(syms)

    def encode(self, text: str) -> list[str]:
        if self.lowercase:
            text = text.lower()
        out: list[str] = []
        for w in _WORD_RE.findall(text):
            out.extend(self._encode_word(w))
        return out

    def decode(self, tokens: list[str]) -> str:
        return "".join(tokens).replace(_EOW, " ").rstrip()

    # --- Arrow batch kernels (the distributed apply path) -----------------

    def token_counts(self, texts: pa.Array | pa.ChunkedArray) -> pa.Array:
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        return pa.array(
            [None if t is None else len(self.encode(t)) for t in texts.to_pylist()],
            pa.int64(),
        )

    def tokenize(self, texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        toks = [self.encode(t) if t is not None else [] for t in texts.to_pylist()]
        lengths = np.fromiter((len(t) for t in toks), np.int32, len(toks))
        return pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lengths))), pa.int32()),
            pa.array([s for t in toks for s in t], pa.string()),
        )


def word_count_dataset(ds, column: str, *, lowercase: bool = True):
    """Exact distributed word-frequency table of a text column:
    one C-level regex scan + Counter per batch (map-side combine — the
    shuffle ships distinct-words-per-batch, not the token stream), then a
    groupby(word).sum. Returns a Dataset of (word, count)."""
    import ray.data  # noqa: F401  (ds is already a Dataset; keep import local)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[column].combine_chunks()
        # one join + one findall: a single C regex pass over the batch; the
        # joiner '\n' never matches inside _WORD_RE tokens
        blob = "\n".join(t for t in texts.to_pylist() if t is not None)
        if lowercase:
            blob = blob.lower()
        c = Counter(_WORD_RE.findall(blob))
        if not c:
            return pa.table({"word": pa.array([], pa.string()), "count": pa.array([], pa.int64())})
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "count": pa.array(list(c.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.select_columns([column])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("count", alias_name="count"))
    )


def train_bpe_distributed(
    ds,
    column: str,
    *,
    num_merges: int = 200,
    lowercase: bool = True,
    min_freq: int = 2,
    max_words: int | None = 1 << 20,
) -> BpeTokenizer:
    """EXACT corpus-wide BPE training: distributed word counts (the corpus
    is read once, the shuffle is distinct-word-scale), then the classic
    merge loop over the DISTINCT-word table on the driver — byte-identical
    to train_bpe() over the concatenated corpus (pinned in tests).

    ``max_words`` is the 100 TB knob: keep only the top-N words by (count
    desc, word asc) before the driver loop — the standard frequency cap
    real tokenizer trainers apply when web-scale typo tails blow up the
    distinct-word count. The default (1<<20) bounds the one driver-side
    ``take_all`` in this module by a constant instead of by the corpus'
    distinct-word tail; pass ``max_words=None`` to opt out of the cap when
    the vocabulary is known to be bounded (identical results whenever the
    corpus has <= max_words distinct words, pinned in tests)."""
    wc = word_count_dataset(ds, column, lowercase=lowercase)
    if max_words is not None:
        wc = wc.sort(["count", "word"], descending=[True, False]).limit(max_words)
    counts = {r["word"]: r["count"] for r in wc.take_all()}
    merges = train_bpe_from_word_counts(counts, num_merges, min_freq=min_freq)
    return BpeTokenizer(merges, lowercase=lowercase)
