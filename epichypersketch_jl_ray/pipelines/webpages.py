"""Flagship webtext pipeline over the input_hint webpages table.

    sorted parquet files, their global row range [0, N) (N from the
    footers) cut into U contiguous ranges, U the smallest multiple of the
    cluster's CPUs that is at least ceil(N / 2**16) (udaf.cpu_units)
      → one Ray task per range: udaf.fold_parquet_ranges(WebSketchBuilder)
        over pruned columns, batch_size-row tables that span files
        (html→text extract, tokenize, (url,lang)-salted trigram keys, 4
        sketches in ONE scan; one WebSketchState per range)
      → merge_state_refs
      → queries (heavy hitters / distinct / quantiles / membership)

The html→text extraction runs INSIDE the pass and its output is checked
byte-identical against the stored ``text`` column (input_hint invariant) —
corruption raises rather than silently diverging.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from epichypersketch_jl_ray.functions.hashing import combine_into, fnv1a64, hash_combine
from epichypersketch_jl_ray.functions.html import extract_text
from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes
from epichypersketch_jl_ray.state.websketch import WebSketchState
from epichypersketch_jl_ray.stages.udaf import (
    file_rows,
    fold_parquet_ranges,
    tree_merge,  # noqa: F401  (perfbench/web.py wraps pipelines.webpages.tree_merge)
)

WEB_SEED = 20260401
WEB_COLUMNS = ["url", "html", "text", "lang"]


def web_batch_features(batch: pa.Table):
    """Extract per-batch arrays for the sketch update: trigram keys salted by
    (url, lang), url hashes, text lengths. A stored ``text`` column must
    equal the extraction (input_hint invariant)."""
    html = batch["html"]
    text = extract_text(html)
    if "text" in batch.column_names:
        stored = batch["text"]
        if isinstance(stored, pa.ChunkedArray):
            stored = stored.combine_chunks()
        if len(text) and not pc.all(pc.equal(text, stored)).as_py():
            raise ValueError("extracted text differs from stored text (input_hint invariant)")
    url = batch["url"]
    lang = batch["lang"]
    url_h = fnv1a64(url)
    lang_h = fnv1a64(lang)
    flat, off = token_hashes(text)
    ng, ng_off = ngram_hashes(flat, off, 3)
    # key trigrams by lang so heavy hitters are (lang, ngram) pairs — the
    # grouped-heavy-hitter query of the north_star; url stays out of the key
    # (url-keyed counts are what HLL/Bloom answer)
    keys = np.repeat(lang_h, np.diff(ng_off))
    combine_into(keys, ng, np.empty_like(keys))
    lengths = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    return keys, url_h, lengths, ng


def bloom_capacity_for(n_docs: int) -> int:
    """Bloom capacity from a corpus-size hint: distinct urls <= total docs,
    so sizing capacity to the doc count keeps the fill ratio at or below
    the ~0.5 design point (a Bloom at its rated capacity has fill 0.5 by
    construction; the round-1 soak showed the fixed default overfilling to
    0.78 at 10M docs). Floor keeps tiny corpora from degenerate geometry."""
    return max(1 << 16, int(n_docs))


def parquet_files(input_dir: str) -> list[str]:
    """Sorted parquet files under ``input_dir``, recursively: nested or
    partitioned layouts (e.g. ``lang=xx/`` subdirs) count. The ONE file list
    a build both sizes its Bloom filter from and reads."""
    import glob

    files = sorted(glob.glob(f"{input_dir}/**/*.parquet", recursive=True))
    if not files:
        raise ValueError(f"no parquet files under {input_dir!r}")
    return files


def make_state(*, n_docs_hint: int | None = None, **kwargs) -> WebSketchState:
    defaults = dict(seed=WEB_SEED, delta=1e-4, epsilon=5e-5, hll_p=14, kll_k=256)
    if n_docs_hint is not None and "bloom_capacity" not in kwargs:
        defaults["bloom_capacity"] = bloom_capacity_for(n_docs_hint)
    defaults.update(kwargs)
    return WebSketchState(**defaults)


class WebSketchBuilder:
    """Pass-1 partial builder: one scan of a batch, four sketches, one
    WebSketchState. The same callable is ``build_web_sketches``' and
    ``checkpoint.build_checkpointed``'s ``make_partial``; ``n_docs_hint``
    sizes the Bloom filter (see ``make_state``)."""

    def __init__(self, **state_kwargs) -> None:
        self.state_kwargs = state_kwargs

    def __call__(self, batch: pa.Table) -> WebSketchState:
        keys, url_h, lengths, _ = web_batch_features(batch)
        st = make_state(**self.state_kwargs)
        return st.update(ngram_keys=keys, url_hashes=url_h, text_lengths=lengths)


def build_web_sketches(
    input_dir: str,
    *,
    batch_size: int = 4096,
    **state_kwargs,
) -> WebSketchState:
    """Build the merged 4-sketch state for a webpages parquet directory.

    The sorted file list's global row range ``[0, N)`` is cut into
    ``udaf.cpu_units(N)`` contiguous ranges, one Ray task per range
    (``udaf.fold_parquet_ranges``): 4 ranges on 4 CPUs up to 2**18 rows,
    however many files hold them. A task reads only the row groups of its
    files that overlap its range, folds them as ``batch_size``-row tables
    that span file boundaries (only its last table may be shorter), and
    returns ONE partial; ``batch_size`` bounds the rows the kernels see at
    once. The partials are merged by ``udaf.merge_state_refs``, in range
    order.

    ``N`` and the per-file row counts come from the footers, read once; the
    Bloom filter is sized from ``N`` unless the caller passes an explicit
    ``bloom_capacity``. Raises ValueError when no file holds a row.
    """
    files = parquet_files(input_dir)
    rows = file_rows(files)
    if "bloom_capacity" not in state_kwargs and "n_docs_hint" not in state_kwargs:
        state_kwargs["n_docs_hint"] = sum(rows)
    return fold_parquet_ranges(
        files,
        rows,
        WebSketchBuilder(**state_kwargs),
        WebSketchState,
        batch_size=batch_size,
        columns=WEB_COLUMNS,
    )


def query_plants(state: WebSketchState, phrases: list[tuple[str, str]]) -> pd.DataFrame:
    """CMS estimates for (lang, trigram) probes."""
    rows = []
    for lang, phrase in phrases:
        lang_h = fnv1a64(pa.array([lang]))
        flat, off = token_hashes(pa.array([phrase]))
        ng, _ = ngram_hashes(flat, off, 3)
        key = hash_combine(np.repeat(lang_h, len(ng)), ng)
        est = int(state.cms.estimate_keys(key[:1])[0])
        rows.append((lang, phrase, est))
    return pd.DataFrame(rows, columns=["lang", "phrase", "estimate"])


def web_sketch_summary(sf_dir: str) -> pd.DataFrame:
    """Driver-facing flagship query: build the 4-sketch state over the
    deterministic webpages corpus (sized by sf) and return its summary plus
    the planted heavy-hitter estimates — rows-only check (sketch answers are
    approximate; bounds are asserted in tests/test_webpages.py)."""
    from epichypersketch_jl_ray.sources.webpages import PLANTS, webpages_dir_for

    rows = {"sf0.001": 3_000, "sf0.01": 12_000, "sf0.1": 120_000}.get(
        sf_dir.rstrip("/").rsplit("/", 1)[-1], 12_000
    )
    web_dir = webpages_dir_for(rows, n_shards=16)
    state = build_web_sketches(web_dir)
    summary = web_summary(state)
    plants = query_plants(state, [("en", phrase) for phrase, _ in PLANTS])
    out = plants.rename(columns={"estimate": "en_estimate"})
    for k, v in summary.items():
        out[k] = v
    return out


def web_summary(state: WebSketchState) -> dict:
    return {
        "rows": state.rows_seen,
        "distinct_urls_est": float(state.hll.estimate()),
        "text_len_p50_kll": state.kll.quantile(0.5),
        "text_len_p99_kll": state.kll.quantile(0.99),
        "text_len_p50_td": state.tdigest.quantile(0.5),
        "bloom_fill": state.bloom.fill_ratio(),
        "cms_inserts": state.cms.n_inserts,
    }
