"""Combined per-pass sketch state for the webtext flagship pipeline.

One scan of the webpages table updates FOUR sketches at once (heavy-hitter
(url,lang)-keyed trigram CMS, distinct-url HLL, text-length KLL + t-digest,
url-membership Bloom) — the whole point of mergeable UDAFs: one pass, one
merge tree, four answers (north_star query set, BASELINE.json).
"""

from __future__ import annotations

import numpy as np

from epichypersketch_jl_ray.state.base import MergeableSketch
from epichypersketch_jl_ray.state.bloom import BloomFilter
from epichypersketch_jl_ray.state.countmin import CountMin
from epichypersketch_jl_ray.state.hll import HyperLogLog
from epichypersketch_jl_ray.state.kll import KLL
from epichypersketch_jl_ray.state.tdigest import TDigest


class WebSketchState(MergeableSketch):
    """cms + hll + kll + tdigest + bloom under one merge."""

    __slots__ = ("cms", "hll", "kll", "tdigest", "bloom", "rows_seen")

    def __init__(
        self,
        *,
        seed: int = 1234,
        delta: float = 1e-4,
        epsilon: float = 5e-5,
        hll_p: int = 14,
        kll_k: int = 200,
        compression: float = 100.0,
        bloom_capacity: int = 1 << 22,
        bloom_p: float = 1e-6,
    ) -> None:
        self.cms = CountMin(1, delta=delta, epsilon=epsilon, seed=seed)
        self.hll = HyperLogLog(p=hll_p, seed=seed)
        self.kll = KLL(k=kll_k, seed=seed)
        self.tdigest = TDigest(compression)
        self.bloom = BloomFilter(capacity=bloom_capacity, p=bloom_p, seed=seed)
        self.rows_seen = 0

    def update(
        self,
        *,
        ngram_keys: np.ndarray,
        url_hashes: np.ndarray,
        text_lengths: np.ndarray,
    ) -> "WebSketchState":
        self.cms.add_keys(ngram_keys)
        self.hll.update_hashed(url_hashes)
        self.kll.update(text_lengths.astype(np.float64))
        self.tdigest.update(text_lengths.astype(np.float64))
        self.bloom.add_hashed(url_hashes)
        self.rows_seen += int(len(url_hashes))
        return self

    def merge(self, other: "WebSketchState") -> "WebSketchState":
        return self.merge_many([other])

    def merge_many(self, others: list["WebSketchState"]) -> "WebSketchState":
        self.cms.merge_many([o.cms for o in others])
        self.bloom.merge_many([o.bloom for o in others])
        for o in others:
            self.hll.merge(o.hll)
            self.kll.merge(o.kll)
            self.tdigest.merge(o.tdigest)
            self.rows_seen += o.rows_seen
        return self

    def _state_arrays(self) -> tuple:
        out = [("rows_seen", self.rows_seen)]
        for name in ("cms", "hll", "kll", "bloom", "tdigest"):
            out.append((name, getattr(self, name).digest()))
        return tuple(out)
