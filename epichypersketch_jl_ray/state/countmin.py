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
A CMS query that needs only the cells reaching a threshold skips the
partial sketches: ``cells`` and ``key_cells`` give a batch's raw flat cell
ids (row r's at ``r * cols + col``, unsorted, with weights for deduped
keys), ``cut_cells`` routes them into contiguous ranges of flat ids without
sorting, and ``sum_cells_at_least`` sorts one range once and keeps the cells
that reach the threshold.
Estimates take the same per-row columns and a running min over rows.
"""

from __future__ import annotations

import io
import math
import struct
from bisect import bisect_right

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
        return np.stack(self._feature_rows(features), axis=1)

    def _feature_rows(self, features: np.ndarray) -> list[np.ndarray]:
        """hash_columns' columns, one (n,) array per sketch row."""
        fr = self._reduced(features)
        return [self._feature_row(r, fr) for r in range(self.rows)]

    def _feature_row(self, r: int, fr: np.ndarray) -> np.ndarray:
        """Row r's columns of reduced features ``fr`` (see _reduced)."""
        return (fr @ self.coeffs[r] % self.num_counters) % self.cols

    def _reduced(self, features: np.ndarray) -> np.ndarray:
        """(n, hash_width) int64 features mod num_counters: hash_columns'
        input, checked."""
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
        return f.astype(np.int64, copy=False) % self.num_counters

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
        for r in range(self.rows):
            yield self._key_row(r, keys, buf, scratch)

    def _key_row(self, r: int, keys: np.ndarray, buf: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Row r's columns of uint64 ``keys``, computed in ``buf`` (returned
        as an int64 view) with ``scratch``; both uint64 of the keys' length."""
        cols = np.uint64(self.cols)
        np.bitwise_xor(keys, self.row_seeds[r], out=buf)
        splitmix64(buf, out=buf, scratch=scratch)
        np.floor_divide(buf, cols, out=scratch)
        scratch *= cols
        buf -= scratch
        return buf.view(np.int64)

    # --- update ------------------------------------------------------------

    def add(self, features: np.ndarray, weights: np.ndarray | None = None) -> "CountMin":
        """Count each feature-vector occurrence once (or ``weights`` times)."""
        rows = self._feature_rows(features)
        return self._add_rows(rows, len(rows[0]), weights)

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

    def cells(self, features: np.ndarray) -> np.ndarray:
        """The flat cell ids ``add(features)`` counts, one per feature
        vector and sketch row, unsorted: row r's ``r * cols + col`` at
        positions ``[r * n, (r + 1) * n)`` (see _flat_cells)."""
        fr = self._reduced(features)
        return self._flat_cells((self._feature_row(r, fr) for r in range(self.rows)), len(fr))

    def key_cells(
        self, keys: np.ndarray, weights: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The flat cell ids ``add_keys(keys, weights)`` counts and their
        weights (None: one each), laid out as ``cells``. A large unweighted
        batch is deduped as ``add_keys`` dedups it: each distinct key's
        cells once, weighted by its count."""
        k = np.asarray(keys, dtype=np.uint64)
        if weights is None and len(k) > 4096:
            k, weights = np.unique(k, return_counts=True)
        ids = self._flat_cells(self._key_rows(k), len(k))
        if weights is None:
            return ids, None
        return ids, np.tile(np.asarray(weights, dtype=np.int64), self.rows)

    def _flat_cells(self, rows, n: int) -> np.ndarray:
        """Flat cell ids of a batch of n items given as its columns, one
        array per sketch row (as in _add_rows), row r's at ``[r * n,
        (r + 1) * n)``: int32 while ``num_counters < 2**31``, which halves
        the bytes a count task ships, else int64."""
        dtype = np.int32 if self.num_counters < 2**31 else np.int64
        out = np.empty(self.rows * n, dtype=dtype)
        for r, col in enumerate(rows):
            np.add(col, r * self.cols, out=out[r * n : (r + 1) * n], casting="unsafe")
        return out

    def _add_rows(self, rows, n: int, weights: np.ndarray | None) -> "CountMin":
        """Count a batch of n items given as its columns, one array per
        sketch row: an iterable, consumed once, row 0 first (_feature_rows
        or _key_rows)."""
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
        """Add sorted sparse (ids, counts) runs into the COO state
        (``_sum_runs``). A single run into an empty state is already
        canonical and is taken as is (the fresh-partial case of every batch
        update)."""
        if len(self.ids) == 0 and len(ids) == 1:
            self.ids, self.counts = ids[0], counts[0]
        else:
            runs = zip([self.ids, *ids], [self.counts, *counts])
            self.ids, self.counts = _sum_runs(runs, self.cols)
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
        select pass broadcasts the view, O(cells >= t) instead of O(sketch);
        the CMS queries build it without a merged sketch (``cut_cells``,
        ``sum_cells_at_least`` and ``merge_cells``), and this is the
        reference they are tested against. Survivors stay dense only past
        ``_merge_coo``'s densify point.
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

    def merge_cells(self, ids: np.ndarray, counts: np.ndarray) -> "CountMin":
        """Add sorted canonical (ids, counts) cells of this geometry to this
        COO sketch, without counting inserts: a sharded threshold count
        puts the ranges' ``sum_cells_at_least`` cells, concatenated in range
        order, into a sketch of its geometry with no cell (past half the
        cells it densifies, as ``at_least`` keeps such a view dense)."""
        self._merge_coo([ids], [counts])
        return self

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
        return self._estimate_rows(self._feature_rows(features))

    def estimate_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._estimate_rows(self._key_rows(np.asarray(keys, dtype=np.uint64)))

    def estimate_at_least(self, features: np.ndarray, t: int) -> np.ndarray:
        """``where(est >= t, est, 0)`` of ``estimate(features)`` (see
        _estimate_at_least)."""
        return self._estimate_at_least(self._reduced(features), self._feature_row, t)

    def estimate_keys_at_least(self, keys: np.ndarray, t: int) -> np.ndarray:
        """``where(est >= t, est, 0)`` of ``estimate_keys(keys)`` (see
        _estimate_at_least)."""
        k = np.asarray(keys, dtype=np.uint64)
        return self._estimate_at_least(
            k, lambda r, x: self._key_row(r, x, np.empty_like(x), np.empty_like(x)), t
        )

    def _estimate_at_least(self, items: np.ndarray, row_cols, t: int) -> np.ndarray:
        """The estimate of each of ``items`` where it reaches t, else 0: a
        select pass keeps only those. An estimate is the min over rows, so
        an item whose cell in some row is below t is out; row r is hashed
        (``row_cols(r, items)``) and looked up only for the items whose
        rows 0..r-1 all reached t. Where an item passes, its value is the
        full min over rows, as ``estimate`` gives it."""
        out = np.zeros(len(items), dtype=np.int64)
        live = np.arange(len(items))
        est = None
        for r in range(self.rows):
            v = self._row_values(r, row_cols(r, items))
            est = v if est is None else np.minimum(est, v, out=v)
            keep = np.flatnonzero(est >= t)
            if len(keep) < len(live):
                live, items, est = live[keep], items[keep], est[keep]
            if not len(live):
                return out
        out[live] = est
        return out

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
    # states (WebSketchState) compress without changes.
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


def _sum_runs(runs, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-by-cell sum of sorted canonical (ids, counts) runs of a sketch
    with ``cols`` columns, one sketch row at a time: row r takes its
    ``searchsorted`` slice of every run, and where more than one run has
    cells in the row, the slices are concatenated, argsorted and summed per
    id (reduceat; integer sums, so the order of equal ids does not matter).
    Rows own disjoint id ranges, so their results concatenate already
    sorted. Only the rows between the runs' first and last id are visited,
    so a run set that covers one range of flat ids costs that range."""
    runs = [(i, c) for i, c in runs if len(i)]
    out_ids, out_cts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    if not runs:
        return out_ids[0], out_cts[0]
    first = min(int(i[0]) for i, _ in runs) // cols
    last = max(int(i[-1]) for i, _ in runs) // cols
    bounds = np.arange(first, last + 2, dtype=np.int64) * cols
    cuts = [np.searchsorted(i, bounds) for i, _ in runs]
    for r in range(len(bounds) - 1):
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
    return np.concatenate(out_ids), np.concatenate(out_cts)


def _concat_cells(parts: list) -> tuple[np.ndarray, np.ndarray | None]:
    """Raw (ids, weights) cell parts as one (ids, weights): weights None
    when no part is weighted, else 1 for each cell of an unweighted part."""
    ids = np.concatenate([i for i, _ in parts])
    if all(w is None for _, w in parts):
        return ids, None
    return ids, np.concatenate([np.ones(len(i), np.int64) if w is None else w for i, w in parts])


def cut_cells(
    parts: list[tuple[np.ndarray, np.ndarray | None]], rows: int, cols: int, shards: int
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Route the raw (ids, weights) cells of batches of a ``rows`` x
    ``cols`` sketch, each laid out as ``CountMin.cells`` gives them, into
    ``shards`` unsorted (ids, weights) ranges, range s holding the flat ids
    in ``[s * N // shards, (s + 1) * N // shards)`` (N = rows * cols).
    Nothing is sorted: a sketch row inside one range goes there whole, and
    only a row that a range boundary crosses is split with masks."""
    bounds = [s * rows * cols // shards for s in range(shards + 1)]
    ranges: list[list] = [[] for _ in range(shards)]
    for ids, weights in parts:
        n = len(ids) // rows
        for r in range(rows):
            row = slice(r * n, (r + 1) * n)
            seg, wseg = ids[row], None if weights is None else weights[row]
            first = bisect_right(bounds, r * cols) - 1
            last = bisect_right(bounds, (r + 1) * cols - 1) - 1
            for s in range(first, last + 1):
                keep = slice(None) if first == last else (seg >= bounds[s]) & (seg < bounds[s + 1])
                ranges[s].append((seg[keep], None if wseg is None else wseg[keep]))
    empty = np.empty(0, dtype=parts[0][0].dtype if parts else np.int32)
    return [_concat_cells(r) if r else (empty, None) for r in ranges]


def sum_cells_at_least(
    parts: list[tuple[np.ndarray, np.ndarray | None]], t: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cells that reach ``t`` of the sum of raw (ids, weights) cells
    (weights None: 1 each), as sorted int64 (ids, counts): the reduce of one
    range of a sharded threshold count, its parts being that range of every
    count task's ``cut_cells``. A cell of the merged sketch is the sum of
    every insert into its id, so the range's cells that reach ``t`` are
    exactly the merged sketch's ``at_least(t)`` cells in that range. The
    ids are sorted once: an unweighted range run-length encodes a plain
    sort; a weighted one sums its weights over an argsort (``reduceat``)."""
    ids, w = _concat_cells(parts) if parts else (np.empty(0, np.int64), None)
    if not len(ids):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if w is None:
        s = np.sort(ids)
        starts = _run_starts(s)
        counts = np.diff(starts, append=len(s))
    else:
        order = np.argsort(ids)
        s = ids[order]
        starts = _run_starts(s)
        counts = np.add.reduceat(w[order], starts)  # exact int64 sums
    keep = counts >= t
    return s[starts[keep]].astype(np.int64), counts[keep].astype(np.int64)


_WIRE_MAGIC = b"CM01"


def _countmin_from_wire(data: bytes) -> CountMin:
    return CountMin.from_bytes(data)
