"""Count-Min Sketch with the reference's exact geometry and hash family.

Geometry (reference /root/reference/src/sketch.jl:5-25):
    rows R = ceil(ln(1/delta)),  num_counters = R * ceil(e/epsilon),
    cols C = num_counters // R  (== ceil(e/epsilon)).

Hash family (reference /root/reference/src/count_cpu.jl:62-71 and
/root/reference/src/count_gpu.jl:21-30): multilinear with seeded random
coefficients a_{r,e} drawn uniformly from [1, num_counters-1]
(/root/reference/src/sketch.jl:63-69); for a feature vector f the row-r column
is ``((sum_e a_{r,e} * f_e) mod num_counters) mod C``
(double-mod fold, /root/reference/src/count_gpu.jl:133-136).

Deliberate divergences from the reference (SURVEY.md §7.4):
- counters are int64, not Int32 (/root/reference/src/sketch.jl:59) — Int32
  overflows at the 10^12-row target scale;
- ``estimate`` is the proper CMS min over all rows (GPU semantics,
  /root/reference/src/count_gpu.jl:139-155), never the CPU path's
  first-row-only query (/root/reference/src/count_cpu.jl:167-180);
- the RNG is numpy's PCG64 rather than Julia's RNG — the hash *family* and
  coefficient distribution are identical, the draws are not bit-identical.

Storage is sparse COO (sorted flat ids + counts) so per-batch partial states
cost O(#touched cells), densifying only when the sketch fills up — this is
what makes per-block partial emission + tree merge cheap at scale. Up to
2^24 cells a batch is counted one sketch row at a time: row r's columns go
into one reused buffer (for pre-hashed keys the splitmix mix and the mod run
in place there) and their ``bincount`` into row r of one (rows, cols) array.
A dense state adds that array; a fresh state with more than half its cells
nonzero takes it as its dense state (the same array, and the same bytes, as
COO then ``densify``); otherwise its nonzeros merge into the COO state.
Past 2^24 cells (the motif and n-gram sketches), and for a weighted batch
whose total |weight| reaches 2^53 (where a float64 bincount would round), a
batch is counted exactly in int64 by sorting, one sketch row at a time: row
r's columns are sorted on their own and run-length encoded (weights summed
per run), and since rows own disjoint ranges of flat ids, the rows' runs
concatenate already sorted. A COO merge goes row by row too: row r takes
its ``searchsorted`` slice of every input and sorts and sums only those.
Estimates take the same per-row columns and a running min over rows.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from epichypersketch_jl_ray.functions.hashing import splitmix64
from epichypersketch_jl_ray.state.base import MergeableSketch


def cms_rows(delta: float) -> int:
    """R = ceil(ln(1/delta)) — /root/reference/src/sketch.jl:5-7."""
    return int(math.ceil(math.log(1.0 / delta)))


def cms_num_counters(rows: int, epsilon: float) -> int:
    """rows * ceil(e/epsilon) — /root/reference/src/sketch.jl:15-17."""
    return rows * int(math.ceil(math.e / epsilon))


def cms_cols(num_counters: int, rows: int) -> int:
    """num_counters // rows — /root/reference/src/sketch.jl:23-25."""
    return num_counters // rows


class CountMin(MergeableSketch):
    """Mergeable Count-Min sketch over integer feature vectors.

    Parameters
    ----------
    hash_width:
        number of hash coefficient columns — ``motif_size`` for ordinary
        motifs, ``2*motif_size - 1`` for the convolution case
        (/root/reference/src/sketch.jl:84-88), ``1`` for pre-hashed keys.
    """

    __slots__ = (
        "rows",
        "cols",
        "num_counters",
        "hash_width",
        "seed",
        "coeffs",
        "ids",
        "counts",
        "n_inserts",
        "dense",
        "row_seeds",
    )

    def __init__(
        self,
        hash_width: int,
        *,
        delta: float = 1e-4,
        epsilon: float = 5e-5,
        seed: int = 1234,
    ) -> None:
        if hash_width < 1:
            raise ValueError("hash_width must be >= 1")
        self.rows = cms_rows(delta)
        self.num_counters = cms_num_counters(self.rows, epsilon)
        self.cols = cms_cols(self.num_counters, self.rows)
        self.hash_width = int(hash_width)
        self.seed = int(seed)
        # Uniform in [1, num_counters-1], reference /root/reference/src/sketch.jl:68
        rng = np.random.default_rng(self.seed)
        self.coeffs = rng.integers(
            1, self.num_counters, size=(self.rows, self.hash_width), dtype=np.int64
        )
        self.ids = np.empty(0, dtype=np.int64)  # sorted flat ids = row*cols + col
        self.counts = np.empty(0, dtype=np.int64)
        self.n_inserts = 0  # N in the bound est <= true + eps*N
        self.dense = None  # np.ndarray (rows, cols) once densified
        # per-row seeds for the pre-hashed-key path (see add_keys)
        self.row_seeds = splitmix64(
            np.uint64(self.seed) ^ np.arange(1, self.rows + 1, dtype=np.uint64)
        )

    # --- hashing -----------------------------------------------------------

    def hash_columns(self, features: np.ndarray) -> np.ndarray:
        """(n, hash_width) int feature matrix -> (n, rows) column indices.

        Multilinear hash + double-mod fold; features are pre-reduced mod
        num_counters so int64 products cannot overflow ((a*(f mod M)) mod M
        == (a*f) mod M). A row's sum of hash_width products is at most
        hash_width * (M-1)^2, which must stay below 2^63.
        """
        if self.hash_width * (self.num_counters - 1) ** 2 >= 2**63:
            raise ValueError(
                f"multilinear hash would overflow int64: hash_width * (num_counters - 1)^2 "
                f"= {self.hash_width} * ({self.num_counters} - 1)^2 >= 2^63"
            )
        f = np.asarray(features)
        if f.ndim == 1:
            f = f[:, None]
        if f.shape[1] != self.hash_width:
            raise ValueError(f"expected width {self.hash_width}, got {f.shape[1]}")
        fr = f.astype(np.int64, copy=False) % self.num_counters
        h = fr @ self.coeffs.T  # (n, rows)
        return (h % self.num_counters) % self.cols

    def key_columns(self, keys: np.ndarray) -> np.ndarray:
        """(n,) pre-hashed uint64 keys -> (n, rows) column indices: row r's
        column is ``splitmix64(key ^ row_seeds[r]) % cols``.

        The multilinear family (hash_columns) is only pairwise-independent for
        SMALL integer features (the reference's regime,
        /root/reference/src/sketch.jl:68): two 64-bit keys congruent mod
        num_counters would collide in EVERY row. Pre-hashed keys therefore get
        an independent splitmix64 mix per row instead. add_keys and
        estimate_keys compute the same columns one row at a time (_key_rows).
        """
        k = np.asarray(keys, dtype=np.uint64)
        mixed = splitmix64(k[:, None] ^ self.row_seeds[None, :])
        return (mixed % np.uint64(self.cols)).astype(np.int64)

    def _key_rows(self, keys: np.ndarray):
        """Yield key_columns' row 0, 1, ... of uint64 ``keys``, each as an
        int64 view of ONE reused buffer, valid until the next row is taken:
        the mix and the mod run in place, so a batch of n keys needs two
        n-element buffers whatever the row count. The mod is taken as
        ``x - (x // cols) * cols``: numpy divides an array by a scalar with
        a multiply-and-shift, about 2x faster than its ``remainder``."""
        buf = np.empty(len(keys), dtype=np.uint64)
        scratch = np.empty_like(buf)
        cols = np.uint64(self.cols)
        for seed in self.row_seeds:
            np.bitwise_xor(keys, seed, out=buf)
            splitmix64(buf, out=buf, scratch=scratch)
            np.floor_divide(buf, cols, out=scratch)
            scratch *= cols
            buf -= scratch
            yield buf.view(np.int64)

    # --- update ------------------------------------------------------------

    def add(self, features: np.ndarray, weights: np.ndarray | None = None) -> "CountMin":
        """Count each feature-vector occurrence once (or ``weights`` times)."""
        h = self.hash_columns(features)
        return self._add_rows(h.T, len(h), weights)

    def add_keys(self, keys: np.ndarray, weights: np.ndarray | None = None) -> "CountMin":
        """Count pre-hashed uint64 keys (per-row independent hashing).

        Large unweighted batches are deduped first (unique + counts as
        weights): hashing each DISTINCT key once instead of each occurrence
        cuts per-batch memory traffic by the mean multiplicity.
        """
        k = np.asarray(keys, dtype=np.uint64)
        if weights is None and len(k) > 4096:
            k, weights = np.unique(k, return_counts=True)
        return self._add_rows(self._key_rows(k), len(k), weights)

    def _add_rows(self, rows, n: int, weights: np.ndarray | None) -> "CountMin":
        """Count a batch of n items given as its columns, one array per
        sketch row: an iterable, consumed once, row 0 first (``h.T`` of an
        (n, rows) column matrix, or _key_rows)."""
        if n == 0:
            return self
        w = wf = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.int64)
            self.n_inserts += int(w.sum())
            wf = w.astype(np.float64)
        else:
            self.n_inserts += n
        # a weighted bincount sums in float64, exact while every partial sum
        # stays below 2^53, which holds when the total |weight| does (a float
        # sum of nonnegative integers reaches 2^53 exactly when the true sum
        # does: below it every partial sum is exact)
        if self.num_counters > (1 << 24) or (wf is not None and np.abs(wf).sum() >= 2.0**53):
            self._add_sorted(rows, n, w)
            return self
        # O(cols) bincount per row beats an O(n log n) sort for small sketches
        dense = self.dense is not None
        acc = self.dense if dense else np.empty((self.rows, self.cols), np.int64)
        for r, col in enumerate(rows):
            counts = np.bincount(col, weights=wf, minlength=self.cols)
            if dense:
                acc[r] += counts.astype(np.int64, copy=False)
            else:
                acc[r] = counts  # exact: float counts are integers below 2^53
        if dense:
            return self
        # numpy finds the nonzeros of a bool mask about 2x faster than an int64's
        touched = acc.ravel() != 0
        if len(self.ids) == 0 and np.count_nonzero(touched) > self.num_counters // 2:
            # born dense: the array _merge_coo's densify would build
            self.dense = acc
            return self
        nz = np.flatnonzero(touched)
        self._merge_coo([nz], [acc.ravel()[nz]])
        return self

    def _add_sorted(self, rows, n: int, weights: np.ndarray | None) -> None:
        """Exact int64 count of a batch by sorting each row's columns: the
        path past 2^24 cells, and for weights too large for a float64
        bincount. Row r's columns are sorted on their own and run-length
        encoded; rows own disjoint ranges of flat ids, so the rows' runs
        concatenate already sorted."""
        ids, cnts = [], []
        for r, col in enumerate(rows):
            if weights is None:
                s = np.sort(col)
                starts = _run_starts(s)
                cnt = np.diff(starts, append=n)
            else:
                order = np.argsort(col)
                s = col[order]
                starts = _run_starts(s)
                cnt = np.add.reduceat(weights[order], starts)  # exact int64 sums
            if self.dense is not None:
                self.dense[r][s[starts]] += cnt  # each column once
            else:
                ids.append(s[starts] + r * self.cols)
                cnts.append(cnt)
        if self.dense is None:
            self._merge_coo([np.concatenate(ids)], [np.concatenate(cnts)])

    def _merge_coo(self, ids: list[np.ndarray], counts: list[np.ndarray]) -> None:
        """Add sorted sparse (ids, counts) runs into the COO state, one sketch
        row at a time: row r takes its ``searchsorted`` slice of every run,
        and where more than one run has cells in the row, the slices are
        concatenated, argsorted and summed per id (reduceat; integer sums,
        so the order of equal ids does not matter). Rows own disjoint id
        ranges, so their results concatenate already sorted. A single run
        into an empty state is already canonical and is taken as is (the
        fresh-partial case of every batch update)."""
        if len(self.ids) == 0 and len(ids) == 1:
            self.ids, self.counts = ids[0], counts[0]
        else:
            runs = [(i, c) for i, c in zip([self.ids, *ids], [self.counts, *counts]) if len(i)]
            bounds = np.arange(self.rows + 1) * self.cols
            cuts = [np.searchsorted(i, bounds) for i, _ in runs]
            out_ids, out_cts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
            for r in range(self.rows):
                row = [
                    (i[cut[r] : cut[r + 1]], c[cut[r] : cut[r + 1]])
                    for (i, c), cut in zip(runs, cuts)
                    if cut[r + 1] > cut[r]
                ]
                if len(row) == 1:  # one canonical run: ids unique, counts summed
                    rid, rct = row[0]
                elif row:
                    rid = np.concatenate([i for i, _ in row])
                    order = np.argsort(rid)
                    rid = rid[order]
                    starts = _run_starts(rid)
                    rct = np.add.reduceat(np.concatenate([c for _, c in row])[order], starts)
                    rid = rid[starts]
                else:
                    continue
                out_ids.append(rid)
                out_cts.append(rct)
            self.ids, self.counts = np.concatenate(out_ids), np.concatenate(out_cts)
        # densify when COO overhead exceeds dense storage (2 int64 per nnz)
        if len(self.ids) > self.num_counters // 2:
            self.densify()

    def densify(self) -> "CountMin":
        if self.dense is None:
            d = np.zeros(self.num_counters, dtype=np.int64)
            d[self.ids] = self.counts
            self.dense = d.reshape(self.rows, self.cols)
            self.ids = np.empty(0, dtype=np.int64)
            self.counts = np.empty(0, dtype=np.int64)
        return self

    # --- merge / query -----------------------------------------------------

    def merge(self, other: "CountMin") -> "CountMin":
        return self.merge_many([other])

    def merge_many(self, others: list["CountMin"]) -> "CountMin":
        for o in others:
            if (self.rows, self.cols, self.hash_width, self.seed) != (
                o.rows,
                o.cols,
                o.hash_width,
                o.seed,
            ):
                raise ValueError("cannot merge CountMin sketches with different geometry/seed")
            self.n_inserts += o.n_inserts
        if self.dense is not None or any(o.dense is not None for o in others):
            self.densify()
            d = self.dense.ravel()
            for o in others:
                if o.dense is not None:
                    d += o.dense.ravel()
                else:
                    d[o.ids] += o.counts  # a canonical COO holds each id once
            return self
        self._merge_coo([o.ids for o in others], [o.counts for o in others])
        return self

    def at_least(self, t: int) -> "CountMin":
        """Threshold view: a new sketch with this one's geometry, seed and
        n_inserts that keeps only the cells >= t; this sketch is not touched.

        An estimate is the min over rows, so it reaches t exactly when every
        row's cell does: ``view.estimate(x) >= t`` exactly when
        ``self.estimate(x) >= t``, and where it passes the two are equal. A
        select pass broadcasts the view, O(cells >= t) instead of O(sketch).
        Survivors stay dense only past ``_merge_coo``'s densify point.
        """
        view = object.__new__(CountMin)
        for name in self.__slots__:
            setattr(view, name, getattr(self, name))
        if self.dense is not None:
            flat = self.dense.ravel()
            keep = flat >= t
            ids = np.flatnonzero(keep).astype(np.int64)
            if len(ids) > self.num_counters // 2:
                view.dense = np.where(keep, flat, 0).reshape(self.rows, self.cols)
            else:
                view.dense, view.ids, view.counts = None, ids, flat[ids]
            return view
        keep = self.counts >= t
        view.ids, view.counts = self.ids[keep], self.counts[keep]
        return view

    def _row_values(self, r: int, col: np.ndarray) -> np.ndarray:
        """Counter values of sketch row r at columns ``col``."""
        if self.dense is not None:
            return self.dense[r][col]
        # search row r's slice of the sorted COO ids only (about 1/rows of
        # them), which stays in cache where the whole id array would not
        lo, hi = np.searchsorted(self.ids, (r * self.cols, (r + 1) * self.cols))
        ids, counts = self.ids[lo:hi], self.counts[lo:hi]
        out = np.zeros(len(col), dtype=np.int64)
        if len(ids):
            q = col + r * self.cols
            pos = np.minimum(np.searchsorted(ids, q), len(ids) - 1)
            hit = ids[pos] == q
            out[hit] = counts[pos[hit]]
        return out

    def estimate(self, features: np.ndarray) -> np.ndarray:
        """CMS point estimate: min over rows (/root/reference/src/count_gpu.jl:139-155)."""
        return self._estimate_rows(self.hash_columns(features).T)

    def estimate_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._estimate_rows(self._key_rows(np.asarray(keys, dtype=np.uint64)))

    def _estimate_rows(self, rows) -> np.ndarray:
        """Running min over rows of each item's cell; ``rows`` as in _add_rows."""
        est = None
        for r, col in enumerate(rows):
            v = self._row_values(r, col)
            est = v if est is None else np.minimum(est, v, out=est)
        return est

    # --- protocol ----------------------------------------------------------

    # --- compact wire format ------------------------------------------------
    # Sparse COO ids/counts (and the dense array) serialize at the narrowest
    # width that holds their values (every configured geometry keeps flat ids
    # under 2^31, and partial-state counts are block-bounded), which halves
    # tree-merge/checkpoint state traffic vs pickled int64 arrays — the
    # dominant byte stream in the oracle-parity (near-exact) sketch regimes.
    # __reduce__ routes plain pickle through the same format, so composite
    # states (MotifCountState, WebSketchState) compress without changes.
    # Width choice depends only on array CONTENT, so byte-canonicality under
    # merge order is preserved; from_bytes still reads legacy pickle blobs.

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        buf.write(_WIRE_MAGIC)
        buf.write(
            struct.pack(
                "<qqqqqqB",
                self.rows,
                self.cols,
                self.num_counters,
                self.hash_width,
                self.seed,
                self.n_inserts,
                1 if self.dense is not None else 0,
            )
        )

        def put(arr: np.ndarray) -> None:
            a = np.ascontiguousarray(arr)
            if a.size and (int(a.max()) > 2**31 - 1 or int(a.min()) < -(2**31)):
                a = a.astype(np.int64, copy=False)
                width = 8
            else:
                a = a.astype(np.int32)
                width = 4
            buf.write(struct.pack("<qB", a.size, width))
            buf.write(a.tobytes())

        if self.dense is not None:
            put(self.dense.ravel())
        else:
            put(self.ids)
            put(self.counts)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountMin":
        if bytes(data[:4]) != _WIRE_MAGIC:
            return super().from_bytes(data)  # legacy pickle blobs (old checkpoints)
        off = 4
        rows, cols, num_counters, hash_width, seed, n_inserts, dense_flag = struct.unpack_from(
            "<qqqqqqB", data, off
        )
        off += struct.calcsize("<qqqqqqB")

        def get() -> tuple[np.ndarray, int]:
            nonlocal off
            size, width = struct.unpack_from("<qB", data, off)
            off2 = off + struct.calcsize("<qB")
            dt = np.int32 if width == 4 else np.int64
            a = np.frombuffer(data, dtype=dt, count=size, offset=off2).astype(np.int64)
            return a, off2 + size * width

        obj = cls.__new__(cls)
        obj.rows, obj.cols, obj.num_counters = int(rows), int(cols), int(num_counters)
        obj.hash_width, obj.seed, obj.n_inserts = int(hash_width), int(seed), int(n_inserts)
        # coefficients and row seeds re-derive deterministically from the seed,
        # exactly as __init__ does
        rng = np.random.default_rng(obj.seed)
        obj.coeffs = rng.integers(
            1, obj.num_counters, size=(obj.rows, obj.hash_width), dtype=np.int64
        )
        obj.row_seeds = splitmix64(
            np.uint64(obj.seed) ^ np.arange(1, obj.rows + 1, dtype=np.uint64)
        )
        if dense_flag:
            flat, off = get()
            obj.dense = flat.reshape(obj.rows, obj.cols)
            obj.ids = np.empty(0, dtype=np.int64)
            obj.counts = np.empty(0, dtype=np.int64)
        else:
            obj.dense = None
            obj.ids, off = get()
            obj.counts, off = get()
        return obj

    def __reduce__(self):
        return (_countmin_from_wire, (self.to_bytes(),))

    def _state_arrays(self) -> tuple:
        if self.dense is not None:
            nz = np.flatnonzero(self.dense.ravel())
            coo = (nz.astype(np.int64), self.dense.ravel()[nz])
        else:
            coo = (self.ids, self.counts)
        return (
            ("geom", (self.rows, self.cols, self.hash_width, self.seed)),
            ("ids", coo[0]),
            ("counts", coo[1]),
            ("n_inserts", self.n_inserts),
        )


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a
    nonempty sorted array."""
    return np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))


_WIRE_MAGIC = b"CM01"


def _countmin_from_wire(data: bytes) -> CountMin:
    return CountMin.from_bytes(data)
