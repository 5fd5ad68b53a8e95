"""Deterministic Common-Crawl-style webpages fixture (BASELINE.json
input_hint shape; FIXTURES.md F1/F2).

Schema: url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string. Fully seeded — same (n_rows, seed) produces identical tables at
any shard count, so correctness runs, checkpoint/resume runs and N-vs-4N
bench runs all see the same bytes (no wall-clock or locale dependence).

Planted ground truth (reference planted-motif strategy,
/root/reference/test/test_large_example_ordinary.jl:12-113):
- 4 marker trigrams inserted into known fractions of docs → exact CMS truth;
- url duplicates with known multiplicity → exact distinct count for HLL;
- a held-out url range guaranteed absent → Bloom false-positive probes;
- Zipf-ish power-law over hosts and langs → heavy-hitter skew (north_rule);
- edge rows: empty text, single-token docs.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from epichypersketch_jl_ray.functions.html import render_html

VOCAB = np.array(
    [
        "data", "query", "scan", "join", "merge", "sort", "hash", "batch", "stream",
        "table", "row", "column", "index", "cache", "shard", "block", "spill", "fast",
        "slow", "big", "small", "key", "value", "filter", "agg", "window", "line",
        "part", "order", "the",
    ]
)
PLANTS = [
    ("alpha beta gamma", 0.050),
    ("delta epsilon zeta", 0.030),
    ("eta theta iota", 0.024),
    ("kappa lambda mu", 0.016),
]
LANGS = np.array(["en", "de", "fr", "es", "zh"])
LANG_P = np.array([0.55, 0.15, 0.12, 0.10, 0.08])
N_HOSTS = 1000
DUP_EVERY = 10  # every 10th row reuses the url of the previous row


def expected_plant_count(n_rows: int, plant_idx: int) -> int:
    """Exact occurrence count of a planted trigram (one insertion per chosen
    doc; deterministic given the stride construction below)."""
    stride = int(round(1.0 / PLANTS[plant_idx][1]))
    offset = plant_idx + 1
    return len(range(offset, n_rows, stride))


def expected_distinct_urls(n_rows: int) -> int:
    dups = len([i for i in range(n_rows) if i % DUP_EVERY == 9])
    return n_rows - dups


def _u01(idx: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """Counter-based uniform(0,1) per global row index — shard-invariant."""
    from epichypersketch_jl_ray.functions.hashing import splitmix64

    h = splitmix64(idx.astype(np.uint64) ^ splitmix64(np.uint64(seed * 1000 + stream)))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _host_of(idx: np.ndarray, seed: int) -> np.ndarray:
    return (_u01(idx, seed, 3) ** 4 * N_HOSTS).astype(np.int64)


def _chunk(start: int, stop: int, seed: int, length_mu: float = 3.3) -> pa.Table:
    from epichypersketch_jl_ray.functions.hashing import splitmix64

    n = stop - start
    idx = np.arange(start, stop)
    # doc lengths: lognormal via Box-Muller on counter-based uniforms
    u1 = np.clip(_u01(idx, seed, 1), 1e-12, 1.0)
    u2 = _u01(idx, seed, 2)
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    upper = 300 if length_mu <= 3.3 else 2000  # default clip unchanged (determinism)
    lengths = np.clip(np.exp(length_mu + 0.6 * normal).astype(np.int64), 1, upper)
    lengths[idx % 97 == 0] = 0  # empty docs
    lengths[idx % 89 == 0] = 1  # single-token docs
    # tokens: per (row, position) counter hash into the vocab
    total = int(lengths.sum())
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    row_ids = np.repeat(idx.astype(np.uint64), lengths)
    pos_ids = (np.arange(total, dtype=np.uint64) - np.repeat(offsets[:-1], lengths).astype(np.uint64))
    tok_h = splitmix64(splitmix64(row_ids * np.uint64(0x9E3779B97F4A7C15) ^ pos_ids) ^ np.uint64(seed))
    words = VOCAB[(tok_h % np.uint64(len(VOCAB))).astype(np.int64)]
    texts = []
    for i in range(n):
        texts.append(" ".join(words[offsets[i] : offsets[i + 1]]))
    # plant marker trigrams at known strides (occurrence count exactly known)
    for p, (phrase, frac) in enumerate(PLANTS):
        stride = int(round(1.0 / frac))
        for g in range(p + 1, stop, stride):
            if start <= g < stop:
                texts[g - start] = (phrase + " " + texts[g - start]).strip()
    # urls: power-law host popularity, deterministic per row
    hosts = _host_of(idx, seed)
    urls = [f"https://h{h}.example.org/p/{i}" for h, i in zip(hosts, idx)]
    for j in range(n):
        if idx[j] % DUP_EVERY == 9 and idx[j] > 0:
            prev = int(idx[j]) - 1
            urls[j] = f"https://h{int(_host_of(np.array([prev]), seed)[0])}.example.org/p/{prev}"
    langs = LANGS[np.searchsorted(np.cumsum(LANG_P), _u01(idx, seed, 4), side="right")]
    ts = pa.array((1767225600_000_000 + idx * 1_000_000), pa.timestamp("us"))  # 2026-01-01 ramp
    text_arr = pa.array(texts, pa.string())
    titles = pa.array([u.rsplit("/", 1)[-1] for u in urls], pa.string())
    html = render_html(titles, text_arr)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": ts,
            "html": html,
            "text": text_arr,
            "lang": pa.array(langs.tolist(), pa.string()),
        }
    )


def held_out_urls(n: int = 1000) -> list[str]:
    """Urls guaranteed absent from any generated table."""
    return [f"https://absent{i}.example.net/x/{i}" for i in range(n)]


def generate_webpages(
    out_dir: str,
    n_rows: int,
    *,
    n_shards: int = 8,
    seed: int = 42,
    length_mu: float = 3.3,
) -> list[str]:
    """Write the fixture as n_shards parquet files; returns the file list.
    A shard file that already exists is kept, not rewritten.

    Shard boundaries are fixed functions of (n_rows, n_shards) and every
    chunk is seeded by its global row range, so the logical table is
    identical for any shard count.
    """
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n_rows, n_shards + 1).astype(int)
    files = []
    for s in range(n_shards):
        path = os.path.join(out_dir, f"webpages-{s:05d}.parquet")
        files.append(path)
        if os.path.exists(path):
            continue
        tbl = _chunk(int(bounds[s]), int(bounds[s + 1]), seed, length_mu)
        pq.write_table(tbl, path)
    return files


def webpages_dir_for(
    n_rows: int, *, seed: int = 42, n_shards: int = 8, length_mu: float = 3.3
) -> str:
    """Cached fixture location under /tmp (generated on first use)."""
    mu_tag = "" if length_mu == 3.3 else f"_mu{length_mu}"
    out = f"/tmp/graft_webpages/n{n_rows}_s{seed}_f{n_shards}{mu_tag}"
    generate_webpages(out, n_rows, n_shards=n_shards, seed=seed, length_mu=length_mu)
    return out
