"""epichypersketch_jl_ray — a Ray-Data-native distributed sketch / approximate
aggregation engine.

Re-expresses the query and data-processing capabilities of the reference
EpicHyperSketch.jl (count-min-sketch motif enumeration; see
/root/reference/src/EpicHyperSketch.jl) as idiomatic Ray Data pipelines:
``ray.data.Dataset`` → ``map_batches`` over zero-copy Arrow batches, one
partial sketch state per batch and a tree merge of those states
(``stages.udaf``), and a broadcast (``ray.put``) read-only sketch for the
selection pass.

Sub-packages
------------
state/      pure-numpy mergeable sketch kernels (CountMin, HLL, KLL, TDigest,
            Bloom, MinHash, SimHash) — no Ray dependency.
functions/  vectorized batch functions (hashing, tokenization, html extraction).
sources/    readers + deterministic fixture generators (webpages table).
stages/     Ray Data stage builders (UDAF harness, motif enumeration, dedup, ann).
pipelines/  end-user pipelines; each has a ``queries()`` entry in __ray_entry__.
"""

from epichypersketch_jl_ray.config import SketchConfig
from epichypersketch_jl_ray.errors import (
    HyperSketchError,
    InvalidConfigurationError,
    SchemaError,
)

__version__ = "0.1.0"


def __getattr__(name):
    # lazy exports mirroring the reference's public surface
    # (/root/reference/src/EpicHyperSketch.jl:49-72): entry points + the
    # low-level pieces for manual pipelines. Lazy so importing the package
    # never drags in Ray before the driver initializes it.
    if name in ("obtain_enriched_configurations", "obtain_enriched_configurations_partitioned"):
        from epichypersketch_jl_ray import api

        return getattr(api, name)
    if name in ("CountMin", "HyperLogLog", "KLL", "TDigest", "BloomFilter", "MinHasher", "SpaceSaving", "ReservoirSample", "DDSketch", "GroupedSketch", "ThetaSketch", "FrequentDirections", "CountSketch", "TupleState"):
        from epichypersketch_jl_ray import state

        return getattr(state, name)
    if name == "connected_components":
        from epichypersketch_jl_ray.stages.cc import connected_components

        return connected_components
    if name in ("minhash_pairs", "ngram_jaccard_pairs"):
        from epichypersketch_jl_ray.pipelines import dedup

        return getattr(dedup, name)
    if name == "build_checkpointed":
        from epichypersketch_jl_ray.checkpoint import build_checkpointed

        return build_checkpointed
    if name in ("pagerank_fixedpoint", "copurchase_pagerank"):
        from epichypersketch_jl_ray.pipelines import graph

        return getattr(graph, name)
    if name in ("train_bpe", "train_bpe_distributed", "BpeTokenizer"):
        from epichypersketch_jl_ray.functions import bpe

        return getattr(bpe, name)
    if name == "domain_cap_sample":
        from epichypersketch_jl_ray.pipelines.curate import domain_cap_sample

        return domain_cap_sample
    raise AttributeError(name)


__all__ = [
    "SketchConfig",
    "HyperSketchError",
    "InvalidConfigurationError",
    "SchemaError",
    "obtain_enriched_configurations",
    "obtain_enriched_configurations_partitioned",
    "CountMin",
    "HyperLogLog",
    "KLL",
    "TDigest",
    "BloomFilter",
    "MinHasher",
    "SpaceSaving",
    "ReservoirSample",
    "DDSketch",
    "GroupedSketch",
    "ThetaSketch",
    "FrequentDirections",
    "CountSketch",
    "TupleState",
    "connected_components",
    "minhash_pairs",
    "ngram_jaccard_pairs",
    "build_checkpointed",
    "pagerank_fixedpoint",
    "copurchase_pagerank",
    "train_bpe",
    "train_bpe_distributed",
    "BpeTokenizer",
    "domain_cap_sample",
    "__version__",
]
