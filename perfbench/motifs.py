"""motifs_k3: the paper's count -> select -> extract dataflow.

A seeded, normalized feature-occurrence table shaped like TPC-H lineitem
(l_orderkey, l_suppkey, l_quantity) goes through
``sources.activation.activation_from_table`` (the bucket groupby shuffle) and
``pipelines.motifs.motif_pipeline(motif_size=3)`` in the ordinary-features
case: CMS count pass + tree merge, broadcast, select+extract pass against the
merged sketch, and the exact-verify groupby. The output must equal an exact
recount written here with itertools/numpy.

Shape, fitted to the repository's lineitem sf0.1 test table (600k rows,
147,236 orders, 1000 suppliers), at a tenth of its sequences:

- sequence lengths follow that table's measured histogram (LENGTH_HIST: mean
  4.07 features, longest 17, so no row reaches the pipeline's max_active_len
  of 64), which gives 10.87 3-combinations per sequence as there;
- feature ids are uniform over 1000 ids, as the suppliers are there (the most
  frequent 1% of ids hold 1.1% of the occurrences), so nearly every
  3-combination is distinct (98.9% there) and the 5-row CountMin sketch holds
  about 5 nonzero cells per combination (0.8M over 160k here; 4.5 there,
  7.2M over 1.6M, where more cells collide);
- the reference fixture's four planted 3-sets
  (``sources.reference_fixtures.ORDINARY_PLANTS``) are planted with the
  fixture's counts (60 sequences), with ids disjoint from the noise, so their
  exact counts are known. That keeps the 3-sets seen at least MIN_COUNT times
  to a few hundredths of a percent of the combinations, as in sf0.1 (487 of
  1.6M); a planted sequence keeps its drawn length, the 3-set replaces three
  of its features.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from epichypersketch_jl_ray.pipelines import motifs as pm
from epichypersketch_jl_ray.sources import activation as sa
from epichypersketch_jl_ray.sources.reference_fixtures import ORDINARY_PLANTS
from epichypersketch_jl_ray.stages.motifs import enumerate_batch
from epichypersketch_jl_ray.state.countmin import CountMin

from perfbench.tracing import classify_ops, op_window, ray_op_metrics, timed

# 15k sequences (~60k rows, ~160k 3-combinations), a tenth of sf0.1
SEQS, TINY_SEQS = 15_000, 1_500
SHARDS = 8
K, MIN_COUNT, MAX_ACTIVE_LEN = 3, 3, 64
BATCH = 2048  # motif_pipeline's default batch size
# number of sf0.1 lineitem orders with 0, 1, 2, ... line items
LENGTH_HIST = [0, 11016, 21814, 29500, 29097, 23631, 15625, 8941, 4407, 1959, 818, 292, 93, 29, 10, 1, 2, 1]
FEATURE_BASE, FEATURES = 1_000, 1_000  # noise ids: base + [0, FEATURES)
KEY_COLS = [f"m{i + 1}" for i in range(K)]


def generate_lineitem(seed: int, n_seq: int) -> pa.Table:
    """Normalized occurrence rows, sorted by order key like lineitem.

    The multisets of sequence lengths (LENGTH_HIST quantiles) and of feature
    ids (every id equally often) are the same for every seed, so every seed
    enumerates the same number of combinations over the same feature
    frequencies; the seed decides which features share a sequence and where
    the planted sequences sit."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(LENGTH_HIST) / sum(LENGTH_HIST)
    lengths = rng.permutation(np.searchsorted(cdf, (np.arange(n_seq) + 0.5) / n_seq, side="right"))
    total = int(lengths.sum())
    feats = FEATURE_BASE + rng.permutation(np.arange(total) % FEATURES).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # planted sequences: the 3-set replaces the first three features
    starts = offsets[:-1][lengths >= K]
    slot = 0
    for motif, count in ORDINARY_PLANTS:
        for _ in range(count):
            feats[starts[slot] : starts[slot] + K] = motif
            slot += 1
    keys = np.repeat(4 * np.arange(n_seq, dtype=np.int64) + 1, lengths)
    qty = rng.integers(1, 51, total).astype(np.float64)  # integral: sums are exact
    return pa.table({"l_orderkey": keys, "l_suppkey": feats, "l_quantity": qty})


def exact_motifs(tbl: pa.Table) -> pa.Table:
    """Every occurrence of every 3-set seen at least MIN_COUNT times, by
    brute force: per sequence, sort by (feature, quantity) as the activation
    table does, take all slot triples i<j<l, count with numpy."""
    keys = tbl["l_orderkey"].to_numpy()
    feats = tbl["l_suppkey"].to_numpy().astype(np.int64)
    qty = tbl["l_quantity"].to_numpy()
    order = np.lexsort((qty, feats, keys))
    keys, feats, qty = keys[order], feats[order], qty[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    lengths = np.diff(np.append(starts, len(keys)))
    cols: dict[str, list] = {c: [] for c in KEY_COLS + ["data_index", "contribution"]}
    for length in np.unique(lengths[lengths >= K]):
        seq = np.flatnonzero(lengths == length)
        slots = np.array(list(combinations(range(int(length)), K)))
        idx = starts[seq][:, None, None] + slots[None, :, :]  # (seqs, combos, K)
        f = feats[idx].reshape(-1, K)
        for i, c in enumerate(KEY_COLS):
            cols[c].append(f[:, i])
        cols["data_index"].append(np.repeat(keys[starts[seq]], len(slots)))
        q = qty[idx]
        cols["contribution"].append((q[..., 0] + q[..., 1] + q[..., 2]).ravel())
    flat = {c: np.concatenate(v) for c, v in cols.items()}
    code = (flat["m1"] << 42) | (flat["m2"] << 21) | flat["m3"]  # ids < 2**21
    _, inv, cnt = np.unique(code, return_inverse=True, return_counts=True)
    count = cnt[inv]
    keep = count >= MIN_COUNT
    out = {c: v[keep] for c, v in flat.items()}
    out["estimate"] = count[keep]
    return pa.table(out)


def canonical(tbl: pa.Table) -> np.ndarray:
    """(rows, 6) float64 matrix of the output columns in a fixed row order."""
    names = KEY_COLS + ["data_index", "contribution", "estimate"]
    mat = np.stack([tbl[c].to_numpy().astype(np.float64) for c in names], axis=1)
    return mat[np.lexsort(mat.T[::-1])]


class Motifs:
    name = "motifs_k3"

    def __init__(self, *, tiny: bool) -> None:
        self.n_seq = TINY_SEQS if tiny else SEQS

    # --- set-up --------------------------------------------------------------

    def prepare(self, seed: int, in_dir: str) -> None:
        self.in_dir = in_dir
        self.table = generate_lineitem(seed, self.n_seq)
        self.rows = self.table.num_rows
        os.makedirs(in_dir, exist_ok=True)
        bounds = np.linspace(0, self.rows, SHARDS + 1).astype(int)
        self.files = []
        for s in range(SHARDS):
            path = os.path.join(in_dir, f"lineitem-{s:05d}.parquet")
            pq.write_table(self.table.slice(bounds[s], bounds[s + 1] - bounds[s]), path)
            self.files.append(path)

    def reference(self) -> None:
        self.expected = canonical(exact_motifs(self.table))
        self.plants = {tuple(sorted(m)): c for m, c in ORDINARY_PLANTS}

    # --- one end-to-end run ----------------------------------------------------

    def run(self) -> pa.Table:
        ds = ray.data.read_parquet(self.in_dir)
        act = sa.activation_from_table(
            ds,
            key_col="l_orderkey",
            feature_col="l_suppkey",
            contribution_col="l_quantity",
            size_hint_rows=self.rows,
        )
        # kept for the traced run: its stats hold the select and verify operators
        self.result_ds = pm.motif_pipeline(act, motif_size=K, min_count=MIN_COUNT).materialize()
        blocks = ray.get(self.result_ds.to_arrow_refs())
        return pa.concat_tables([b for b in blocks if b.num_rows])  # empty blocks have no schema

    def cleanup(self) -> None:
        pass

    # --- correctness -----------------------------------------------------------

    def accuracy(self, out: pa.Table) -> dict[str, float]:
        return {}

    def check(self, out: pa.Table) -> dict[str, bool]:
        got = canonical(out)
        checks = {
            "output_equals_exact_recount": got.shape == self.expected.shape
            and bool(np.array_equal(got, self.expected))
        }
        sets = Counter(map(tuple, got[:, :K].astype(np.int64).tolist()))
        for motif, count in self.plants.items():
            checks[f"plant.{'-'.join(map(str, motif))}"] = sets.get(motif, 0) == count
        return checks

    # --- traced run ------------------------------------------------------------

    def instrument(self, tracer) -> None:
        tracer.wrap(sa, "activation_from_table", "sources.activation.activation_from_table")
        tracer.wrap(pm, "motif_pipeline", "pipelines.motifs.motif_pipeline")
        tracer.wrap(pm, "tree_merge", "stages.udaf.tree_merge")

    def layer_metrics(self, tracer, out: pa.Table) -> tuple[dict[str, float], list[dict]]:
        m: dict[str, float] = {}
        merge = tracer.last_call("stages.udaf.tree_merge")
        if merge is None:
            return m, []
        # count-pass states carry the activation shuffle as their parent;
        # the returned dataset adds select and the exact-verify groupby
        ops = classify_ops([(merge["args"][0], "activation"), (self.result_ds, "motif_verify")])
        m.update(ray_op_metrics(ops))
        shuffle = op_window(ops, "activation")
        read = op_window(ops, "read")
        count = op_window(ops, "motif_count")
        select = op_window(ops, "motif_select")
        verify = op_window(ops, "motif_verify")
        if read:
            m["sources.read_parquet_s"] = read[1] - read[0]
        if shuffle and read:
            m["sources.activation.shuffle_s"] = shuffle[1] - read[0]
        if count:
            m["stages.motifs.count_s"] = count[1] - count[0]
            m["stages.udaf.tree_merge_s"] = merge["end"] - count[1]
        if select:
            m["stages.motifs.select_s"] = select[1] - select[0]
            selected = sum(op["rows"] for op in ops if op["op"] == "motif_select")
            m["stages.motifs.selected"] = selected
            m["stages.motifs.verified"] = out.num_rows
            m["stages.motifs.select_precision"] = out.num_rows / selected if selected else 1.0
        if select and verify:
            m["stages.motifs.verify_s"] = verify[1] - select[1]
        cms = merge["result"].cms
        m["stages.motifs.broadcast_mb"] = len(cms.to_bytes()) / 1e6
        m["state.countmin.nnz"] = (
            int(np.count_nonzero(cms.dense)) if cms.dense is not None else len(cms.ids)
        )
        return m, ops

    def kernels(self, tracer) -> tuple[dict[str, float], float]:
        """Single-process enumerate / CountMin.add / CountMin.estimate over
        the workload's own activation table in the pipeline's batches.
        Returns (metrics, kernel floor seconds = enumerate twice + add +
        estimate: the work of the count and the select pass)."""
        tbl = pq.read_table(self.files)
        act = sa.activation_from_table(
            ray.data.from_arrow(tbl),
            key_col="l_orderkey",
            feature_col="l_suppkey",
            contribution_col="l_quantity",
            size_hint_rows=self.rows,
        )
        act_tbl = pa.concat_tables(ray.get(act.materialize().to_arrow_refs()))
        geometry = dict(delta=pm.ORACLE_DELTA, epsilon=pm.ORACLE_EPSILON, seed=pm.MOTIF_SEED)
        t = Counter()
        combos = 0
        with tracer.span("kernels.motifs"):
            enums, parts = [], []
            for rb in act_tbl.to_batches(max_chunksize=BATCH):
                enum, dt = timed(
                    enumerate_batch, pa.Table.from_batches([rb]), K, max_active_len=MAX_ACTIVE_LEN
                )
                t["enumerate"] += dt
                combos += len(enum["hash_mat"])
                cms = CountMin(K, **geometry)
                t["add"] += timed(cms.add, enum["hash_mat"])[1]
                enums.append(enum["hash_mat"])
                parts.append(cms)
            merged = parts[0].merge_many(parts[1:])
            for hash_mat in enums:
                t["estimate"] += timed(merged.estimate, hash_mat)[1]
        m = {
            "sources.input_mb": tbl.nbytes / 1e6,
            "stages.motifs.enumerate_batch.combos_per_s": combos / t["enumerate"],
            "state.countmin.add.combos_per_s": combos / t["add"],
            "state.countmin.estimate.combos_per_s": combos / t["estimate"],
        }
        return m, 2 * t["enumerate"] + t["add"] + t["estimate"]
