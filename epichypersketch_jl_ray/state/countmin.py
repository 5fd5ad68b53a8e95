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
what makes per-block partial emission + tree merge cheap at scale. A batch
is counted in one pass (a bincount up to 2^24 cells, a sort above), and a
fresh state whose first batch fills more than half the cells is built dense
directly: the same array, and the same bytes, as COO then ``densify``.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

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
        from epichypersketch_jl_ray.functions.hashing import splitmix64

        self.row_seeds = splitmix64(
            np.uint64(self.seed) ^ np.arange(1, self.rows + 1, dtype=np.uint64)
        )

    # --- hashing -----------------------------------------------------------

    def hash_columns(self, features: np.ndarray) -> np.ndarray:
        """(n, hash_width) int feature matrix -> (n, rows) column indices.

        Multilinear hash + double-mod fold; features are pre-reduced mod
        num_counters so int64 products cannot overflow ((a*(f mod M)) mod M
        == (a*f) mod M).
        """
        f = np.asarray(features)
        if f.ndim == 1:
            f = f[:, None]
        if f.shape[1] != self.hash_width:
            raise ValueError(f"expected width {self.hash_width}, got {f.shape[1]}")
        fr = f.astype(np.int64, copy=False) % self.num_counters
        h = fr @ self.coeffs.T  # (n, rows); max ~ width * M^2 < 2^63 for M<=2^21
        return (h % self.num_counters) % self.cols

    def key_columns(self, keys: np.ndarray) -> np.ndarray:
        """(n,) pre-hashed uint64 keys -> (n, rows) column indices.

        The multilinear family (hash_columns) is only pairwise-independent for
        SMALL integer features (the reference's regime,
        /root/reference/src/sketch.jl:68): two 64-bit keys congruent mod
        num_counters would collide in EVERY row. Pre-hashed keys therefore get
        an independent splitmix64 mix per row instead.
        """
        from epichypersketch_jl_ray.functions.hashing import splitmix64

        k = np.asarray(keys, dtype=np.uint64)
        # one (rows, n) mix for all rows; the (n, rows) result is its
        # transposed view, so _add_cols reads it back row-major, copy-free
        mixed = splitmix64(k[None, :] ^ self.row_seeds[:, None])
        return (mixed % np.uint64(self.cols)).astype(np.int64).T

    # --- update ------------------------------------------------------------

    def add(self, features: np.ndarray, weights: np.ndarray | None = None) -> "CountMin":
        """Count each feature-vector occurrence once (or ``weights`` times)."""
        return self._add_cols(self.hash_columns(features), weights)

    def add_keys(self, keys: np.ndarray, weights: np.ndarray | None = None) -> "CountMin":
        """Count pre-hashed uint64 keys (per-row independent hashing).

        Large unweighted batches are deduped first (unique + counts as
        weights): hashing each DISTINCT key once instead of each occurrence
        cuts per-batch memory traffic by the mean multiplicity.
        """
        k = np.asarray(keys, dtype=np.uint64)
        if weights is None and len(k) > 4096:
            uniq, counts = np.unique(k, return_counts=True)
            return self._add_cols(self.key_columns(uniq), counts.astype(np.int64))
        return self._add_cols(self.key_columns(k), weights)

    def _add_cols(self, cols: np.ndarray, weights: np.ndarray | None) -> "CountMin":
        n = cols.shape[0]
        if n == 0:
            return self
        # row-major flat ids (row r's n cells, then row r+1's): the order
        # key_columns computes them in; every scatter below is order-free
        flat = (cols.T + (np.arange(self.rows, dtype=np.int64) * self.cols)[:, None]).ravel()
        if weights is None:
            w = None
            self.n_inserts += n
        else:
            w = np.asarray(weights, dtype=np.int64)
            self.n_inserts += int(w.sum())
            w = np.tile(w, self.rows)
        self._scatter(flat, w)
        return self

    def _scatter(self, flat_ids: np.ndarray, weights: np.ndarray | None) -> None:
        if self.num_counters <= (1 << 24):
            # O(num_counters) bincount beats O(n log n) sort for small
            # sketches (weighted bincount sums in float64: exact below 2^53)
            counts = np.bincount(flat_ids, weights=weights, minlength=self.num_counters)
            counts = counts.astype(np.int64, copy=False)
            if self.dense is not None:
                self.dense += counts.reshape(self.rows, self.cols)
                return
            if len(self.ids) == 0 and np.count_nonzero(counts) > self.num_counters // 2:
                # born dense: the array _merge_coo's densify would build
                self.dense = counts.reshape(self.rows, self.cols)
                return
            nz = np.flatnonzero(counts)
            self._merge_coo([nz], [counts[nz]])
            return
        order = np.argsort(flat_ids, kind="stable")
        sid = flat_ids[order]
        uniq, start = np.unique(sid, return_index=True)
        if weights is None:
            cnt = np.diff(np.append(start, len(sid))).astype(np.int64)
        else:
            cs = np.concatenate(([0], np.cumsum(weights[order])))
            cnt = (cs[np.append(start[1:], len(sid))] - cs[start]).astype(np.int64)
        if self.dense is not None:
            self.dense.ravel()[uniq] += cnt  # uniq holds each cell once
            return
        self._merge_coo([uniq], [cnt])

    def _merge_coo(self, ids: list[np.ndarray], counts: list[np.ndarray]) -> None:
        """Add sorted sparse (ids, counts) runs into the COO state: one
        concatenate + stable argsort + reduceat for any number of runs. A
        single run into an empty state is already canonical and is taken
        as is (the fresh-partial case of every batch update)."""
        if len(self.ids) == 0 and len(ids) == 1:
            self.ids, self.counts = ids[0], counts[0]
        else:
            all_ids = np.concatenate([self.ids, *ids])
            all_cts = np.concatenate([self.counts, *counts])
            order = np.argsort(all_ids, kind="stable")
            sid, sct = all_ids[order], all_cts[order]
            starts = np.flatnonzero(np.diff(sid, prepend=sid[0] - 1)) if len(sid) else np.empty(0, np.int64)
            self.ids = sid[starts]
            self.counts = np.add.reduceat(sct, starts) if len(sid) else sct
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

    def lookup_flat(self, flat_ids: np.ndarray) -> np.ndarray:
        """Counter values for flat cell ids (any shape)."""
        if self.dense is not None:
            return self.dense.ravel()[flat_ids]
        shape = flat_ids.shape
        q = flat_ids.ravel()
        pos = np.searchsorted(self.ids, q)
        pos_c = np.minimum(pos, len(self.ids) - 1) if len(self.ids) else pos
        out = np.zeros(len(q), dtype=np.int64)
        if len(self.ids):
            hit = self.ids[pos_c] == q
            out[hit] = self.counts[pos_c[hit]]
        return out.reshape(shape)

    def estimate(self, features: np.ndarray) -> np.ndarray:
        """CMS point estimate: min over rows (/root/reference/src/count_gpu.jl:139-155)."""
        return self._estimate_cols(self.hash_columns(features))

    def estimate_keys(self, keys: np.ndarray) -> np.ndarray:
        return self._estimate_cols(self.key_columns(keys))

    def _estimate_cols(self, cols: np.ndarray) -> np.ndarray:
        flat = cols.T + (np.arange(self.rows, dtype=np.int64) * self.cols)[:, None]
        return self.lookup_flat(flat).min(axis=0)

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
        from epichypersketch_jl_ray.functions.hashing import splitmix64

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


_WIRE_MAGIC = b"CM01"


def _countmin_from_wire(data: bytes) -> CountMin:
    return CountMin.from_bytes(data)
