"""web_build / web_build_ckpt: the one-scan CMS + HLL + KLL + t-digest + Bloom
build over a seeded Common-Crawl-style webpages fixture.

Both workloads read the same input with the same sketch parameters and must
produce byte-identical CMS/HLL/Bloom state; they differ only in the operator
layer. ``web_build`` streams read_parquet -> map_batches partial per batch ->
tree_merge (``pipelines.webpages.build_web_sketches``); ``web_build_ckpt``
folds one state per file in raw Ray tasks and writes blobs, sha256 digests
and a manifest (``checkpoint.build_checkpointed``).
"""

from __future__ import annotations

import glob
import math
import os
import shutil
import tempfile
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from epichypersketch_jl_ray import checkpoint
from epichypersketch_jl_ray.functions.hashing import fnv1a64
from epichypersketch_jl_ray.functions.html import extract_text
from epichypersketch_jl_ray.functions.text import ngram_hashes, token_hashes
from epichypersketch_jl_ray.pipelines import webpages as pw
from epichypersketch_jl_ray.sources.webpages import (
    LANGS,
    PLANTS,
    expected_distinct_urls,
    expected_plant_count,
    generate_webpages,
    held_out_urls,
)
from epichypersketch_jl_ray.state.websketch import WebSketchState

from perfbench.tracing import classify_ops, op_window, ray_op_metrics, timed

# 60k docs in 12 shards of 5k (one full 4096-row batch and a partial one per
# shard): one streaming build takes 2-3 s on 4 shared vCPUs, so a 10 s run
# holds several builds and a whole run with its set-up stays under 40 s.
DOCS, SHARDS = 60_000, 12
TINY_DOCS, TINY_SHARDS = 3_000, 4
BATCH = 4096  # build_web_sketches' default batch size
COLUMNS = ["url", "html", "text", "lang"]
HELD_OUT = 100_000  # absent urls probed for the Bloom false-positive rate
HLL_SIGMAS = 5.0  # HLL relative error must stay within 5 standard errors


def kll_rank_bound(k: int) -> float:
    """Published normalized rank error of a KLL sketch with parameter k
    (Apache DataSketches' fit, 99% confidence)."""
    return 2.296 / k**0.9723


class MakePartial:
    """Per-batch partial for build_checkpointed: bench.py's make_partial,
    with the Bloom filter sized from the corpus row count as the streaming
    path sizes it."""

    def __init__(self, n_docs: int) -> None:
        self.n_docs = n_docs

    def __call__(self, tbl: pa.Table) -> WebSketchState:
        keys, url_h, lengths, _ = pw.web_batch_features(tbl)
        return pw.make_state(n_docs_hint=self.n_docs).update(
            ngram_keys=keys, url_hashes=url_h, text_lengths=lengths
        )


class WebBuild:
    def __init__(self, *, checkpointed: bool, tiny: bool, work_dir: str) -> None:
        self.name = "web_build_ckpt" if checkpointed else "web_build"
        self.checkpointed = checkpointed
        self.rows, self.shards = (TINY_DOCS, TINY_SHARDS) if tiny else (DOCS, SHARDS)
        self.work_dir = work_dir
        self.ckpt_dir: str | None = None

    # --- set-up --------------------------------------------------------------

    def prepare(self, seed: int, in_dir: str) -> None:
        self.in_dir = in_dir
        self.files = generate_webpages(in_dir, self.rows, n_shards=self.shards, seed=seed)

    def reference(self) -> None:
        """Exact answers for the checks, computed without Ray."""
        tbl = pq.read_table(self.files, columns=COLUMNS)
        # expected CMS/HLL/Bloom digests: an in-process fold of the same
        # per-batch partials (these three merges are exact, so batching and
        # merge order cannot change them)
        partial = MakePartial(self.rows)
        parts = [partial(pa.Table.from_batches([b])) for b in tbl.to_batches(max_chunksize=BATCH)]
        ref = parts[0].merge_many(parts[1:])
        self.ref_digests = {k: getattr(ref, k).digest() for k in ("cms", "hll", "bloom")}
        self.url_hashes = fnv1a64(tbl["url"].combine_chunks())
        self.held_out_hashes = fnv1a64(pa.array(held_out_urls(HELD_OUT)))
        lengths = pc.utf8_length(tbl["text"]).to_numpy(zero_copy_only=False)
        self.lengths_sorted = np.sort(lengths.astype(np.float64))
        # exact (lang, planted trigram) counts: plant p sits in rows
        # p+1, p+1+stride, ... of the global row order
        langs = tbl["lang"].to_numpy(zero_copy_only=False)
        self.plant_truth = []
        self.plant_totals_ok = True
        for p, (phrase, frac) in enumerate(PLANTS):
            rows = np.arange(p + 1, self.rows, int(round(1.0 / frac)))
            per_lang = Counter(langs[rows].tolist())
            self.plant_truth += [(str(lang), phrase, per_lang.get(lang, 0)) for lang in LANGS]
            self.plant_totals_ok &= sum(per_lang.values()) == expected_plant_count(self.rows, p)

    # --- one end-to-end build --------------------------------------------------

    def run(self) -> WebSketchState:
        if not self.checkpointed:
            return pw.build_web_sketches(self.in_dir, batch_size=BATCH)
        self._drop_ckpt()
        self.ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
        state, _ = checkpoint.build_checkpointed(
            self.files, MakePartial(self.rows), WebSketchState, self.ckpt_dir
        )
        return state

    def _drop_ckpt(self) -> None:
        if self.ckpt_dir:
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
            self.ckpt_dir = None

    def cleanup(self) -> None:
        self._drop_ckpt()

    # --- correctness -----------------------------------------------------------

    def _plant_estimates(self, state: WebSketchState) -> tuple[np.ndarray, float]:
        est = pw.query_plants(state, [(lang, phrase) for lang, phrase, _ in self.plant_truth])
        eps_n = math.e / state.cms.cols * state.cms.n_inserts  # CMS bound: est <= true + eps*N
        return est["estimate"].to_numpy(), eps_n

    def _rank_err(self, value: float, q: float) -> float:
        """Distance from q to the exact rank interval of ``value`` (ties in
        the integer lengths make the rank an interval)."""
        n = len(self.lengths_sorted)
        lo = np.searchsorted(self.lengths_sorted, value, side="left") / n
        hi = np.searchsorted(self.lengths_sorted, value, side="right") / n
        return float(max(0.0, lo - q, q - hi))

    def accuracy(self, state: WebSketchState) -> dict[str, float]:
        distinct = expected_distinct_urls(self.rows)
        est, eps_n = self._plant_estimates(state)
        exact = np.array([t[2] for t in self.plant_truth])
        return {
            "hll_rel_err": abs(state.hll.estimate() - distinct) / distinct,
            "bloom_fpr": float(state.bloom.contains_hashed(self.held_out_hashes).mean()),
            "cms_overcount_eps": float(((est - exact) / eps_n).max()),
            "kll_rank_err": max(self._rank_err(state.kll.quantile(q), q) for q in (0.5, 0.99)),
        }

    def check(self, state: WebSketchState) -> dict[str, bool]:
        checks = {"rows_seen": state.rows_seen == self.rows}
        for k, digest in self.ref_digests.items():
            checks[f"digest.{k}"] = getattr(state, k).digest() == digest
        est, eps_n = self._plant_estimates(state)
        for (lang, phrase, exact), e in zip(self.plant_truth, est):
            checks[f"cms.plant.{lang}.{phrase.split()[0]}"] = bool(exact <= e <= exact + eps_n)
        checks["cms.plant_totals"] = bool(self.plant_totals_ok)
        checks["bloom.no_false_negatives"] = bool(state.bloom.contains_hashed(self.url_hashes).all())
        acc = self.accuracy(state)
        checks["hll.within_bound"] = acc["hll_rel_err"] <= HLL_SIGMAS * 1.04 / math.sqrt(state.hll.m)
        checks["kll.within_bound"] = acc["kll_rank_err"] <= kll_rank_bound(state.kll.k)
        return checks

    # --- traced run ------------------------------------------------------------

    def instrument(self, tracer) -> None:
        tracer.wrap(pw, "build_web_sketches", "pipelines.webpages.build_web_sketches")
        tracer.wrap(pw, "tree_merge", "stages.udaf.tree_merge")
        tracer.wrap(checkpoint, "build_checkpointed", "checkpoint.build_checkpointed")

    def layer_metrics(self, tracer, state: WebSketchState) -> tuple[dict[str, float], list[dict]]:
        """Per-layer numbers of the traced build just run; returns (metrics,
        labelled Ray operators)."""
        m: dict[str, float] = {}
        ops: list[dict] = []
        call = tracer.last_call("stages.udaf.tree_merge")
        if call is not None:
            ops = classify_ops([(call["args"][0], None)])
            part = [op for op in ops if op["op"] == "web_partial"]
            m["stages.udaf.partial_states"] = sum(op["rows"] for op in part)
            m["stages.udaf.partial_mb"] = sum(op["out_mb"] for op in part)
            window = op_window(ops, "web_partial")
            if window is not None:
                m["stages.udaf.tree_merge_s"] = call["end"] - window[1]
            read = op_window(ops, "read")
            if read is not None:
                m["sources.read_parquet_s"] = read[1] - read[0]
        m.update(ray_op_metrics(ops))
        call = tracer.last_call("checkpoint.build_checkpointed")
        if call is not None:
            walls = [rec["wall_s"] for rec in call["result"][1]["lineage"]]
            m["checkpoint.partition_wall_s.sum"] = sum(walls)
            m["checkpoint.partition_wall_s.max"] = max(walls)
            blobs = glob.glob(os.path.join(self.ckpt_dir, "*.bin"))
            m["checkpoint.blob_mb"] = sum(os.path.getsize(b) for b in blobs) / 1e6
            # the build appends each finished partition to manifest.jsonl, so
            # its last write ends the partition phase; the rest of the call
            # is the merge (blob loads, tree merge, metrics.json)
            manifest = os.path.join(self.ckpt_dir, "manifest.jsonl")
            m["checkpoint.merge_s"] = call["end_epoch"] - os.path.getmtime(manifest)
        return m, ops

    def kernels(self, tracer) -> tuple[dict[str, float], float]:
        """Single-process kernel and state throughput over the workload's own
        input, cut into the streaming path's batches. Returns (metrics,
        kernel floor seconds = features + sketch update over every batch)."""
        tbl = pq.read_table(self.files, columns=COLUMNS)
        t = Counter()
        n = Counter()
        parts = []
        with tracer.span("kernels.web"):
            for rb in tbl.to_batches(max_chunksize=BATCH):
                b = pa.Table.from_batches([rb])
                html, text = b["html"], b["text"]
                n["html_mb"] += pc.sum(pc.binary_length(html)).as_py() / 1e6
                n["rows"] += len(b)
                t["extract"] += timed(extract_text, html)[1]
                (flat, off), dt = timed(token_hashes, text)
                t["tokens"] += dt
                t["ngrams"] += timed(ngram_hashes, flat, off, 3)[1]
                (keys, url_h, lengths, _), dt = timed(pw.web_batch_features, b)
                t["features"] += dt
                st = pw.make_state(n_docs_hint=self.rows)
                t["update"] += timed(st.update, ngram_keys=keys, url_hashes=url_h, text_lengths=lengths)[1]
                n["keys"] += len(keys)
                n["urls"] += len(url_h)
                fresh = pw.make_state(n_docs_hint=self.rows)
                t["cms"] += timed(fresh.cms.add_keys, keys)[1]
                t["hll"] += timed(fresh.hll.update_hashed, url_h)[1]
                t["kll"] += timed(fresh.kll.update, lengths)[1]
                t["tdigest"] += timed(fresh.tdigest.update, lengths)[1]
                t["bloom"] += timed(fresh.bloom.add_hashed, url_h)[1]
                raw, dt = timed(st.to_bytes)
                t["to_bytes"] += dt
                n["state_mb"] += len(raw) / 1e6
                part, dt = timed(WebSketchState.from_bytes, raw)
                t["from_bytes"] += dt
                parts.append(part)
            _, merge_s = timed(parts[0].merge_many, parts[1:])
        m = {
            "sources.input_mb": tbl.nbytes / 1e6,
            "functions.extract_text.mb_per_s": n["html_mb"] / t["extract"],
            "functions.token_hashes.rows_per_s": n["rows"] / t["tokens"],
            "functions.ngram_hashes.rows_per_s": n["rows"] / t["ngrams"],
            "pipelines.webpages.web_batch_features.rows_per_s": n["rows"] / t["features"],
            "state.countmin.add_keys.keys_per_s": n["keys"] / t["cms"],
            "state.hll.update_hashed.keys_per_s": n["urls"] / t["hll"],
            "state.kll.update.values_per_s": n["rows"] / t["kll"],
            "state.tdigest.update.values_per_s": n["rows"] / t["tdigest"],
            "state.bloom.add_hashed.keys_per_s": n["urls"] / t["bloom"],
            "state.websketch.to_bytes.mb_per_s": n["state_mb"] / t["to_bytes"],
            "state.websketch.from_bytes.mb_per_s": n["state_mb"] / t["from_bytes"],
            "state.websketch.merge_many.s": merge_s,
        }
        return m, t["features"] + t["update"]
