"""Pure stdlib/numpy WebP-lossless (VP8L) codec.

Spec: RFC 9649 (the WebP file format) — RIFF container plus the VP8L
lossless bitstream. The decoder covers the full lossless feature set:

- simple (1-2 symbol) and normal (code-length-coded) prefix codes, the
  max-symbol early stop, and the 19-entry code-length code with the
  16/17/18 repeat extensions;
- LZ77 backward references (24 length / 40 distance prefix-value codes)
  with the 120-entry 2D close-neighbour distance map;
- the color cache (1..11 bits, 0x1e35a7bd multiplicative hash);
- the meta-prefix (entropy) image selecting per-block prefix-code groups;
- all four transforms, inverse-applied in reverse stream order: predictor
  (14 modes, libwebp border semantics where the top-right neighbour of the
  last column is the current row's first pixel), color (signed 3.5
  fixed-point cross-channel deltas), subtract-green, and color-indexing
  with sub-byte pixel bundling for palettes of at most 16 colors.

Lossy WebP ("VP8 " chunks) raises NotImplementedError — that codec
genuinely needs libvpx. "VP8X" extended containers are walked to find the
VP8L chunk.

The encoder exists so round trips need no external files (same approach
as the GIF codec in functions/codecs.py), and it writes the WebP rows of
the multimodal image fixture:
literal coding with optional run-length LZ77 (distance-1 runs and
distance-width row copies — exercising both 2D map codes), an optional
color cache, subtract-green, uniform-mode predictor and color transforms,
palette (color-indexing) with bundling, and an optional checkerboard
two-group meta-prefix split, so every decoder path above is pinned by
bit-exact round-trip tests rather than external fixtures.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

_MAX_CODE_LEN = 15
_MAX_CL_LEN = 7  # code-length-code lengths are stored in 3 bits
_CLC_ORDER = (17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_HASH_MUL = 0x1E35A7BD

# RFC 9649 distance-mapping table: distance codes 1..120 address a close
# 2D neighbourhood as (dx, dy); actual distance = dx + dy * width
# (clamped to >= 1). Codes > 120 are literal distances minus 120.
_DIST_MAP = (
    (0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2),
    (2, 1), (-2, 1), (2, 2), (-2, 2), (0, 3), (3, 0), (1, 3), (-1, 3),
    (3, 1), (-3, 1), (2, 3), (-2, 3), (3, 2), (-3, 2), (0, 4), (4, 0),
    (1, 4), (-1, 4), (4, 1), (-4, 1), (3, 3), (-3, 3), (2, 4), (-2, 4),
    (4, 2), (-4, 2), (0, 5), (3, 4), (-3, 4), (4, 3), (-4, 3), (5, 0),
    (1, 5), (-1, 5), (5, 1), (-5, 1), (2, 5), (-2, 5), (5, 2), (-5, 2),
    (4, 4), (-4, 4), (3, 5), (-3, 5), (5, 3), (-5, 3), (0, 6), (6, 0),
    (1, 6), (-1, 6), (6, 1), (-6, 1), (2, 6), (-2, 6), (6, 2), (-6, 2),
    (4, 5), (-4, 5), (5, 4), (-5, 4), (3, 6), (-3, 6), (6, 3), (-6, 3),
    (0, 7), (7, 0), (1, 7), (-1, 7), (5, 5), (-5, 5), (7, 1), (-7, 1),
    (4, 6), (-4, 6), (6, 4), (-6, 4), (2, 7), (-2, 7), (7, 2), (-7, 2),
    (3, 7), (-3, 7), (7, 3), (-7, 3), (5, 6), (-5, 6), (6, 5), (-6, 5),
    (8, 0), (4, 7), (-4, 7), (7, 4), (-7, 4), (8, 1), (8, 2), (6, 6),
    (-6, 6), (8, 3), (5, 7), (-5, 7), (7, 5), (-7, 5), (8, 4), (6, 7),
    (-6, 7), (7, 6), (-7, 6), (8, 5), (7, 7), (-7, 7), (8, 6), (8, 7),
)


def _sub_size(size: int, bits: int) -> int:
    return (size + (1 << bits) - 1) >> bits


# ---------------------------------------------------------------------------
# bit I/O (VP8L packs bits LSB-first into bytes; prefix codes are canonical
# and their bits arrive most-significant-first, as in DEFLATE)
# ---------------------------------------------------------------------------


class _BitReader:
    __slots__ = ("data", "pos", "buf", "nbits")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.buf = 0
        self.nbits = 0

    def _fill(self, n: int) -> None:
        while self.nbits < n:
            b = self.data[self.pos] if self.pos < len(self.data) else 0
            self.pos += 1
            self.buf |= b << self.nbits
            self.nbits += 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self._fill(n)
        v = self.buf & ((1 << n) - 1)
        self.buf >>= n
        self.nbits -= n
        return v

    def peek(self, n: int) -> int:
        self._fill(n)
        return self.buf & ((1 << n) - 1)

    def skip(self, n: int) -> None:
        self.buf >>= n
        self.nbits -= n


class _BitWriter:
    __slots__ = ("buf", "cur", "n")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.cur = 0
        self.n = 0

    def write(self, v: int, n: int) -> None:
        self.cur |= (v & ((1 << n) - 1)) << self.n
        self.n += n
        while self.n >= 8:
            self.buf.append(self.cur & 0xFF)
            self.cur >>= 8
            self.n -= 8

    def write_code(self, code: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.write((code >> i) & 1, 1)

    def finish(self) -> bytes:
        if self.n:
            self.buf.append(self.cur & 0xFF)
            self.cur = 0
            self.n = 0
        return bytes(self.buf)


# ---------------------------------------------------------------------------
# prefix codes
# ---------------------------------------------------------------------------


def _reverse_bits(v: int, n: int) -> int:
    r = 0
    for _ in range(n):
        r = (r << 1) | (v & 1)
        v >>= 1
    return r


def _canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """Symbol -> (code, length) for a canonical prefix code (DEFLATE rule:
    codes assigned in increasing (length, symbol) order)."""
    nz = sorted((ln, s) for s, ln in enumerate(lengths) if ln > 0)
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for ln, s in nz:
        code <<= ln - prev_len
        prev_len = ln
        codes[s] = (code, ln)
        code += 1
    return codes


def _build_decoder(lengths: list[int]):
    """Decode structure from code lengths: ('single', sym) for one-symbol
    codes (zero bits read), else ('table', maxlen, syms, lens) — a flat
    LSB-first peek table as in DEFLATE decoders."""
    nz = [(ln, s) for s, ln in enumerate(lengths) if ln > 0]
    if not nz:
        raise ValueError("empty prefix code")
    if len(nz) == 1:
        return ("single", nz[0][1])
    maxlen = max(ln for ln, _ in nz)
    if maxlen > _MAX_CODE_LEN:
        raise ValueError("prefix code length > 15")
    if sum(1 << (maxlen - ln) for ln, _ in nz) != (1 << maxlen):
        raise ValueError("prefix code is not complete")
    codes = _canonical_codes(lengths)
    syms = np.zeros(1 << maxlen, dtype=np.int32)
    lens = np.zeros(1 << maxlen, dtype=np.int8)
    for s, (code, ln) in codes.items():
        rev = _reverse_bits(code, ln)
        syms[rev :: 1 << ln] = s
        lens[rev :: 1 << ln] = ln
    return ("table", maxlen, syms, lens)


def _read_symbol(br: _BitReader, dec) -> int:
    if dec[0] == "single":
        return dec[1]
    _, maxlen, syms, lens = dec
    v = br.peek(maxlen)
    ln = int(lens[v])
    br.skip(ln)
    return int(syms[v])


def _read_code_lengths(br: _BitReader, num_symbols: int) -> list[int]:
    cl_lens = [0] * 19
    num_codes = br.read(4) + 4
    for i in range(num_codes):
        cl_lens[_CLC_ORDER[i]] = br.read(3)
    cl_dec = _build_decoder(cl_lens)
    if br.read(1):  # explicit max_symbol
        length_nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(length_nbits)
    else:
        max_symbol = num_symbols
    lengths = [0] * num_symbols
    symbol = 0
    prev = 8
    while symbol < num_symbols:
        if max_symbol == 0:
            break
        max_symbol -= 1
        code_len = _read_symbol(br, cl_dec)
        if code_len < 16:
            lengths[symbol] = code_len
            symbol += 1
            if code_len:
                prev = code_len
        else:
            extra = (2, 3, 7)[code_len - 16]
            base = (3, 3, 11)[code_len - 16]
            repeat = br.read(extra) + base
            fill = prev if code_len == 16 else 0
            if symbol + repeat > num_symbols:
                raise ValueError("code-length repeat overruns alphabet")
            for _ in range(repeat):
                lengths[symbol] = fill
                symbol += 1
    return lengths


def _read_prefix_code(br: _BitReader, alphabet_size: int):
    if br.read(1):  # simple code
        num_symbols = br.read(1) + 1
        s0 = br.read(8) if br.read(1) else br.read(1)
        if s0 >= alphabet_size:
            raise ValueError("simple-code symbol out of range")
        if num_symbols == 1:
            return ("single", s0)
        s1 = br.read(8)
        if s1 >= alphabet_size or s1 == s0:
            raise ValueError("invalid simple-code symbol pair")
        lengths = [0] * alphabet_size
        lengths[s0] = 1
        lengths[s1] = 1
        return _build_decoder(lengths)
    return _build_decoder(_read_code_lengths(br, alphabet_size))


# ---------------------------------------------------------------------------
# LZ77 prefix values
# ---------------------------------------------------------------------------


def _lz77_value(br: _BitReader, code: int) -> int:
    if code < 4:
        return code + 1
    extra = (code - 2) >> 1
    offset = (2 + (code & 1)) << extra
    return offset + br.read(extra) + 1


def _lz77_code(value: int) -> tuple[int, int, int]:
    """value (>=1) -> (prefix code, n extra bits, extra bits value)."""
    if value <= 4:
        return value - 1, 0, 0
    for code in range(4, 40):
        extra = (code - 2) >> 1
        lo = ((2 + (code & 1)) << extra) + 1
        if lo <= value <= lo + (1 << extra) - 1:
            return code, extra, value - lo
    raise ValueError(f"LZ77 value {value} out of range")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _decode_entropy_coded(br: _BitReader, w: int, h: int, level0: bool) -> np.ndarray:
    """Decode one spatially-coded ARGB image of w x h (the LZ77 + prefix-code
    + color-cache layer). Returns uint32 (h, w). ``level0`` enables the
    meta-prefix image recursion (transforms are handled by the caller)."""
    cache_bits = 0
    if br.read(1):
        cache_bits = br.read(4)
        if not 1 <= cache_bits <= 11:
            raise ValueError("invalid color-cache size")
    meta_idx = None
    meta_bits = 0
    meta_w = 0
    ngroups = 1
    if level0 and br.read(1):
        meta_bits = br.read(3) + 2
        meta_w = _sub_size(w, meta_bits)
        mimg = _decode_entropy_coded(br, meta_w, _sub_size(h, meta_bits), False)
        meta_idx = ((mimg.ravel() >> 8) & 0xFFFF).astype(np.int64)
        ngroups = int(meta_idx.max()) + 1
    cache_size = (1 << cache_bits) if cache_bits else 0
    groups = []
    for _ in range(ngroups):
        groups.append(
            (
                _read_prefix_code(br, 256 + 24 + cache_size),
                _read_prefix_code(br, 256),
                _read_prefix_code(br, 256),
                _read_prefix_code(br, 256),
                _read_prefix_code(br, 40),
            )
        )
    total = w * h
    pix = np.zeros(total, dtype=np.uint32)
    cache = [0] * cache_size if cache_bits else None
    shift = 32 - cache_bits if cache_bits else 0
    single = groups[0] if meta_idx is None else None
    pos = 0
    x = 0
    y = 0
    while pos < total:
        g = single if single is not None else groups[
            int(meta_idx[(y >> meta_bits) * meta_w + (x >> meta_bits)])
        ]
        s = _read_symbol(br, g[0])
        if s < 256:
            r = _read_symbol(br, g[1])
            b = _read_symbol(br, g[2])
            a = _read_symbol(br, g[3])
            argb = (a << 24) | (r << 16) | (s << 8) | b
            pix[pos] = argb
            if cache is not None:
                cache[((_HASH_MUL * argb) & 0xFFFFFFFF) >> shift] = argb
            pos += 1
            x += 1
            if x == w:
                x = 0
                y += 1
        elif s < 280:
            length = _lz77_value(br, s - 256)
            dcode = _lz77_value(br, _read_symbol(br, g[4]))
            if dcode > 120:
                dist = dcode - 120
            else:
                dx, dy = _DIST_MAP[dcode - 1]
                dist = dx + dy * w
                if dist < 1:
                    dist = 1
            if dist > pos or pos + length > total:
                raise ValueError("LZ77 reference out of bounds")
            for _ in range(length):
                v = int(pix[pos - dist])
                pix[pos] = v
                if cache is not None:
                    cache[((_HASH_MUL * v) & 0xFFFFFFFF) >> shift] = v
                pos += 1
            x = pos % w
            y = pos // w
        else:
            if cache is None:
                raise ValueError("color-cache symbol without a cache")
            pix[pos] = cache[s - 280]
            pos += 1
            x += 1
            if x == w:
                x = 0
                y += 1
    return pix.reshape(h, w)


def _read_transforms(br: _BitReader, w: int, h: int) -> tuple[list, int]:
    """Read the transform list; returns (transforms, coded_width). Each entry
    is (type, bits, operand_width, data...) with operand_width the image
    width at that point in the (forward) chain."""
    transforms: list = []
    seen: set[int] = set()
    cw = w
    while br.read(1):
        t = br.read(2)
        if t in seen:
            raise ValueError("transform repeated")
        seen.add(t)
        if t in (0, 1):  # predictor / color
            bits = br.read(3) + 2
            data = _decode_entropy_coded(
                br, _sub_size(cw, bits), _sub_size(h, bits), False
            )
            transforms.append((t, bits, cw, data))
        elif t == 2:  # subtract green
            transforms.append((2, 0, cw, None))
        else:  # color indexing
            num_colors = br.read(8) + 1
            stored = _decode_entropy_coded(br, num_colors, 1, False)
            # palette entries are component-wise delta-coded
            ch = np.stack(
                [(stored.ravel() >> s) & 0xFF for s in (24, 16, 8, 0)], axis=1
            ).astype(np.uint8)
            pal = np.cumsum(ch.astype(np.uint64), axis=0).astype(np.uint8)
            palette = (
                (pal[:, 0].astype(np.uint32) << 24)
                | (pal[:, 1].astype(np.uint32) << 16)
                | (pal[:, 2].astype(np.uint32) << 8)
                | pal[:, 3]
            )
            wbits = 0 if num_colors > 16 else (1 if num_colors > 4 else (2 if num_colors > 2 else 3))
            transforms.append((3, wbits, cw, palette, num_colors))
            cw = _sub_size(cw, wbits)
    return transforms, cw


def _channels(img: np.ndarray) -> np.ndarray:
    """uint32 (h, w) -> int32 (h, w, 4) as [a, r, g, b]."""
    return np.stack(
        [(img >> 24) & 0xFF, (img >> 16) & 0xFF, (img >> 8) & 0xFF, img & 0xFF],
        axis=-1,
    ).astype(np.int32)


def _recombine(ch: np.ndarray) -> np.ndarray:
    ch = (ch & 0xFF).astype(np.uint32)
    return (ch[..., 0] << 24) | (ch[..., 1] << 16) | (ch[..., 2] << 8) | ch[..., 3]


def _avg2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) >> 1


def _predict(mode: int, L, T, TL, TR) -> np.ndarray:
    if mode == 0:
        return np.array([255, 0, 0, 0], dtype=np.int32)
    if mode == 1:
        return L
    if mode == 2:
        return T
    if mode == 3:
        return TR
    if mode == 4:
        return TL
    if mode == 5:
        return _avg2(_avg2(L, TR), T)
    if mode == 6:
        return _avg2(L, TL)
    if mode == 7:
        return _avg2(L, T)
    if mode == 8:
        return _avg2(TL, T)
    if mode == 9:
        return _avg2(T, TR)
    if mode == 10:
        return _avg2(_avg2(L, TL), _avg2(T, TR))
    if mode == 11:  # Select: pick T when sum|L-TL| <= sum|T-TL|
        d = int(np.abs(L - TL).sum()) - int(np.abs(T - TL).sum())
        return T if d <= 0 else L
    if mode == 12:  # ClampAddSubtractFull
        return np.clip(L + T - TL, 0, 255)
    if mode == 13:  # ClampAddSubtractHalf ((ave-TL)/2 truncates toward zero)
        ave = _avg2(L, T)
        diff = ave - TL
        half = np.where(diff >= 0, diff >> 1, -((-diff) >> 1))
        return np.clip(ave + half, 0, 255)
    raise ValueError(f"predictor mode {mode}")


def _predictor_pass(img: np.ndarray, bits: int, modes: np.ndarray, inverse: bool) -> np.ndarray:
    """Shared forward/inverse predictor walk. ``img`` holds residuals when
    inverse, original pixels when forward; neighbours always come from the
    reconstructed (= original) image, so one raster walk serves both."""
    h, w = img.shape
    data = _channels(img)
    out = np.zeros_like(data)  # reconstructed pixels
    res = np.zeros_like(data)  # residuals
    src = data  # in inverse mode: residuals; in forward mode: pixels
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                p = _predict(0, None, None, None, None)
            elif y == 0:
                p = out[0, x - 1]
            elif x == 0:
                p = out[y - 1, 0]
            else:
                mode = int(modes[y >> bits, x >> bits])
                L = out[y, x - 1]
                T = out[y - 1, x]
                TL = out[y - 1, x - 1]
                TR = out[y, 0] if x == w - 1 else out[y - 1, x + 1]
                p = _predict(mode, L, T, TL, TR)
            if inverse:
                out[y, x] = (src[y, x] + p) & 0xFF
            else:
                out[y, x] = src[y, x]
                res[y, x] = (src[y, x] - p) & 0xFF
    return _recombine(out if inverse else res)


def _signed8(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.uint8).astype(np.int8).astype(np.int32)


def _color_delta(pred: np.ndarray, color: np.ndarray) -> np.ndarray:
    """ColorTransformDelta: (int8 pred * int8 color) >> 5 (arithmetic)."""
    return (_signed8(pred) * _signed8(color)) >> 5


def _inv_color_transform(img: np.ndarray, bits: int, cti: np.ndarray) -> np.ndarray:
    h, w = img.shape
    blocks = cti[np.ix_(np.arange(h) >> bits, np.arange(w) >> bits)]
    g2r = (blocks & 0xFF).astype(np.int64)
    g2b = ((blocks >> 8) & 0xFF).astype(np.int64)
    r2b = ((blocks >> 16) & 0xFF).astype(np.int64)
    ch = _channels(img)
    g = ch[..., 2]
    r = (ch[..., 1] + _color_delta(g2r, g)) & 0xFF
    b = (ch[..., 3] + _color_delta(g2b, g)) & 0xFF
    b = (b + _color_delta(r2b, r)) & 0xFF
    ch[..., 1] = r
    ch[..., 3] = b
    return _recombine(ch)


def _inv_subtract_green(img: np.ndarray) -> np.ndarray:
    ch = _channels(img)
    ch[..., 1] = (ch[..., 1] + ch[..., 2]) & 0xFF
    ch[..., 3] = (ch[..., 3] + ch[..., 2]) & 0xFF
    return _recombine(ch)


def _inv_color_indexing(
    img: np.ndarray, wbits: int, full_w: int, palette: np.ndarray, num_colors: int
) -> np.ndarray:
    h, _rw = img.shape
    green = ((img >> 8) & 0xFF).astype(np.int64)
    if wbits == 0:
        idx = green[:, :full_w]
    else:
        bpp = 8 >> wbits
        xs = np.arange(full_w)
        idx = (green[:, xs >> wbits] >> ((xs & ((1 << wbits) - 1)) * bpp)) & (
            (1 << bpp) - 1
        )
    out = palette[np.minimum(idx, num_colors - 1)]
    return np.where(idx < num_colors, out, np.uint32(0))


def decode_webp(payload: bytes | np.ndarray) -> np.ndarray:
    """WebP bytes -> uint8 image: (h, w, 4) RGBA when the stream declares
    alpha, else (h, w) gray when all channels agree, else (h, w, 3) RGB
    (same shape convention as decode_gif/decode_png). Lossless (VP8L) only;
    lossy VP8 raises NotImplementedError."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    if raw[:4] != b"RIFF" or raw[8:12] != b"WEBP":
        raise ValueError("not a WebP (RIFF/WEBP) file")
    pos = 12
    vp8l = None
    while pos + 8 <= len(raw):
        fourcc = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        if fourcc == b"VP8L":
            vp8l = raw[pos + 8 : pos + 8 + size]
            break
        if fourcc == b"VP8 ":
            raise NotImplementedError("lossy WebP (VP8) decode needs libvpx")
        pos += 8 + size + (size & 1)  # VP8X/ALPH/ICCP/EXIF etc. are skipped
    if vp8l is None:
        raise ValueError("no VP8L chunk in WebP container")
    if not vp8l or vp8l[0] != 0x2F:
        raise ValueError("bad VP8L signature byte")
    br = _BitReader(vp8l[1:])
    w = br.read(14) + 1
    h = br.read(14) + 1
    alpha_used = br.read(1)
    if br.read(3):
        raise ValueError("unknown VP8L version")
    transforms, cw = _read_transforms(br, w, h)
    img = _decode_entropy_coded(br, cw, h, True)
    for t in reversed(transforms):
        kind = t[0]
        if kind == 0:
            img = _predictor_pass(img, t[1], (t[3] >> 8) & 0xFF, inverse=True)
        elif kind == 1:
            img = _inv_color_transform(img, t[1], t[3])
        elif kind == 2:
            img = _inv_subtract_green(img)
        else:
            img = _inv_color_indexing(img, t[1], t[2], t[3], t[4])
    ch = _channels(img).astype(np.uint8)
    a, r, g, b = ch[..., 0], ch[..., 1], ch[..., 2], ch[..., 3]
    if alpha_used:
        return np.stack([r, g, b, a], axis=-1)
    if np.array_equal(r, g) and np.array_equal(g, b):
        return g.copy()
    return np.stack([r, g, b], axis=-1)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _huffman_depths(hist: dict[int, int]) -> dict[int, int]:
    heap = [(cnt, sym, sym) for sym, cnt in sorted(hist.items())]
    heapq.heapify(heap)
    parent: dict[int, int] = {}
    nxt = -1
    while len(heap) > 1:
        c1, _t1, n1 = heapq.heappop(heap)
        c2, _t2, n2 = heapq.heappop(heap)
        parent[n1] = nxt
        parent[n2] = nxt
        heapq.heappush(heap, (c1 + c2, nxt, nxt))
        nxt -= 1
    lengths: dict[int, int] = {}
    for sym in hist:
        d = 0
        n = sym
        while n in parent:
            n = parent[n]
            d += 1
        lengths[sym] = d
    return lengths


def _huffman_lengths(hist: dict[int, int], maxlen: int) -> dict[int, int]:
    """Code lengths for a histogram (>=2 distinct symbols) limited to
    ``maxlen``: counts are ceil-halved until the exact Huffman tree fits,
    so the result is always a COMPLETE canonical code (Kraft sum exactly
    1), which the decoder's completeness check requires."""
    counts = dict(hist)
    while True:
        lengths = _huffman_depths(counts)
        if max(lengths.values()) <= maxlen:
            return lengths
        counts = {s: (c + 1) // 2 for s, c in counts.items()}


def _write_prefix_code(bw: _BitWriter, hist: dict[int, int], alphabet: int):
    """Write one prefix code for ``hist``; returns symbol -> (code, len)."""
    nz = sorted(s for s, c in hist.items() if c > 0)
    if not nz:
        nz = [0]
    if len(nz) <= 2 and all(s < 256 for s in nz):
        bw.write(1, 1)  # simple code
        bw.write(len(nz) - 1, 1)
        s0 = nz[0]
        if s0 < 2:
            bw.write(0, 1)
            bw.write(s0, 1)
        else:
            bw.write(1, 1)
            bw.write(s0, 8)
        if len(nz) == 1:
            return {s0: (0, 0)}
        bw.write(nz[1], 8)
        return {s0: (0, 1), nz[1]: (1, 1)}
    bw.write(0, 1)  # normal code
    h = {s: hist[s] for s in nz if hist.get(s, 0) > 0}
    if len(h) == 1:  # pad so the canonical code is complete
        only = next(iter(h))
        h[0 if only != 0 else 1] = 1
    lengths_map = _huffman_lengths(h, _MAX_CODE_LEN)
    lengths = [0] * alphabet
    for s, ln in lengths_map.items():
        lengths[s] = ln
    n_emit = max(2, max(lengths_map) + 1)
    emitted = lengths[:n_emit]
    clh: dict[int, int] = {}
    for v in emitted:
        clh[v] = clh.get(v, 0) + 1
    if len(clh) == 1:  # complete the code-length code too
        only = next(iter(clh))
        clh[(only + 1) % 16] = 1
    cl_lengths_map = _huffman_lengths(clh, _MAX_CL_LEN)
    cl_lengths = [0] * 19
    for s, ln in cl_lengths_map.items():
        cl_lengths[s] = ln
    num_codes = max(
        4, 1 + max(i for i, s in enumerate(_CLC_ORDER) if cl_lengths[s] > 0)
    )
    bw.write(num_codes - 4, 4)
    for i in range(num_codes):
        bw.write(cl_lengths[_CLC_ORDER[i]], 3)
    # explicit max_symbol so trailing zeros cost nothing
    bw.write(1, 1)
    nbits = 2
    while (n_emit - 2) >> nbits:
        nbits += 2
    bw.write((nbits - 2) // 2, 3)
    bw.write(n_emit - 2, nbits)
    cl_codes = _canonical_codes(cl_lengths)
    for v in emitted:
        bw.write_code(*cl_codes[v])
    return _canonical_codes(lengths)


def _tokenize(
    img: np.ndarray, cache_bits: int, use_lz77: bool
) -> list[tuple]:
    """Pixel stream -> tokens mirroring decoder semantics exactly:
    ('lit', a, r, g, b) / ('copy', length, dist_code) / ('cache', idx)."""
    h, w = img.shape
    flat = img.ravel()
    total = flat.size
    cache = [None] * (1 << cache_bits) if cache_bits else None
    shift = 32 - cache_bits if cache_bits else 0
    tokens: list[tuple] = []
    pos = 0
    while pos < total:
        if use_lz77 and pos > 0:
            run = 0
            v1 = flat[pos - 1]
            while pos + run < total and run < 4096 and flat[pos + run] == v1:
                run += 1
            rowrun = 0
            if pos >= w:
                while (
                    pos + rowrun < total
                    and rowrun < 4096
                    and flat[pos + rowrun] == flat[pos + rowrun - w]
                ):
                    rowrun += 1
            best, dcode = (run, 2) if run >= rowrun else (rowrun, 1)
            if w == 1:
                best, dcode = max(run, rowrun), 2
            if best >= 3:
                tokens.append(("copy", best, dcode))
                if cache is not None:
                    for i in range(best):
                        v = int(flat[pos + i])
                        cache[((_HASH_MUL * v) & 0xFFFFFFFF) >> shift] = v
                pos += best
                continue
        v = int(flat[pos])
        if cache is not None:
            slot = ((_HASH_MUL * v) & 0xFFFFFFFF) >> shift
            if cache[slot] == v:
                tokens.append(("cache", slot))
                pos += 1
                continue
            cache[slot] = v
        tokens.append(
            ("lit", (v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)
        )
        pos += 1
    return tokens


def _token_positions(tokens: list[tuple]) -> list[int]:
    out = []
    pos = 0
    for t in tokens:
        out.append(pos)
        pos += t[1] if t[0] == "copy" else 1
    return out


def _write_entropy_coded(
    bw: _BitWriter,
    img: np.ndarray,
    *,
    level0: bool,
    cache_bits: int = 0,
    use_lz77: bool = False,
    meta_bits: int = 0,
) -> None:
    h, w = img.shape
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    tokens = _tokenize(img, cache_bits, use_lz77)
    positions = _token_positions(tokens)
    if level0:
        if meta_bits:
            bw.write(1, 1)
            bw.write(meta_bits - 2, 3)
            mw, mh = _sub_size(w, meta_bits), _sub_size(h, meta_bits)
            gx, gy = np.meshgrid(np.arange(mw), np.arange(mh))
            meta_groups = ((gx ^ gy) & 1).astype(np.uint32)  # checkerboard
            _write_entropy_coded(bw, meta_groups << 8, level0=False)
            group_of = lambda p: int(  # noqa: E731
                meta_groups[(p // w) >> meta_bits, (p % w) >> meta_bits]
            )
            ngroups = int(meta_groups.max()) + 1
        else:
            bw.write(0, 1)
            group_of = lambda _p: 0  # noqa: E731
            ngroups = 1
    else:
        group_of = lambda _p: 0  # noqa: E731
        ngroups = 1
    hists = [
        [dict() for _ in range(5)] for _ in range(ngroups)
    ]  # green/red/blue/alpha/dist
    def bump(d: dict, k: int) -> None:
        d[k] = d.get(k, 0) + 1

    for tok, pos in zip(tokens, positions):
        hg = hists[group_of(pos)]
        if tok[0] == "lit":
            _t, a, r, g, b = tok
            bump(hg[0], g)
            bump(hg[1], r)
            bump(hg[2], b)
            bump(hg[3], a)
        elif tok[0] == "copy":
            bump(hg[0], 256 + _lz77_code(tok[1])[0])
            bump(hg[4], _lz77_code(tok[2])[0])
        else:
            bump(hg[0], 280 + tok[1])
    cache_size = (1 << cache_bits) if cache_bits else 0
    codes = []
    for g in range(ngroups):
        codes.append(
            (
                _write_prefix_code(bw, hists[g][0], 256 + 24 + cache_size),
                _write_prefix_code(bw, hists[g][1], 256),
                _write_prefix_code(bw, hists[g][2], 256),
                _write_prefix_code(bw, hists[g][3], 256),
                _write_prefix_code(bw, hists[g][4], 40),
            )
        )
    for tok, pos in zip(tokens, positions):
        cg = codes[group_of(pos)]
        if tok[0] == "lit":
            _t, a, r, g, b = tok
            bw.write_code(*cg[0][g])
            bw.write_code(*cg[1][r])
            bw.write_code(*cg[2][b])
            bw.write_code(*cg[3][a])
        elif tok[0] == "copy":
            code, nb, ev = _lz77_code(tok[1])
            bw.write_code(*cg[0][256 + code])
            bw.write(ev, nb)
            code, nb, ev = _lz77_code(tok[2])
            bw.write_code(*cg[4][code])
            bw.write(ev, nb)
        else:
            bw.write_code(*cg[0][280 + tok[1]])


def _to_argb(pixels: np.ndarray) -> tuple[np.ndarray, bool]:
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = np.stack([px, px, px], axis=-1)
    if px.ndim != 3 or px.shape[2] not in (3, 4):
        raise ValueError("expected (h, w), (h, w, 3) or (h, w, 4) uint8")
    has_alpha = px.shape[2] == 4
    a = px[..., 3].astype(np.uint32) if has_alpha else np.uint32(255)
    argb = (
        (a << 24) * np.uint32(1)
        + (px[..., 0].astype(np.uint32) << 16)
        + (px[..., 1].astype(np.uint32) << 8)
        + px[..., 2].astype(np.uint32)
    )
    if not has_alpha:
        argb |= np.uint32(0xFF000000)
    return argb.astype(np.uint32), has_alpha


def _forward_color_transform(img: np.ndarray, deltas: tuple[int, int, int]) -> np.ndarray:
    g2r, g2b, r2b = deltas
    ch = _channels(img)
    g = ch[..., 2]
    r0 = ch[..., 1].copy()  # the decoder's r2b delta sees the FINAL red
    ch[..., 1] = (r0 - _color_delta(np.int64(g2r & 0xFF), g)) & 0xFF
    ch[..., 3] = (
        ch[..., 3]
        - _color_delta(np.int64(g2b & 0xFF), g)
        - _color_delta(np.int64(r2b & 0xFF), r0)
    ) & 0xFF
    return _recombine(ch)


def _forward_subtract_green(img: np.ndarray) -> np.ndarray:
    ch = _channels(img)
    ch[..., 1] = (ch[..., 1] - ch[..., 2]) & 0xFF
    ch[..., 3] = (ch[..., 3] - ch[..., 2]) & 0xFF
    return _recombine(ch)


def encode_webp_lossless(
    pixels: np.ndarray,
    *,
    cache_bits: int = 0,
    use_lz77: bool = False,
    subtract_green: bool = False,
    predictor_mode: int | None = None,
    color_transform: tuple[int, int, int] | None = None,
    palette: bool = False,
    meta_bits: int = 0,
    transform_bits: int = 4,
) -> bytes:
    """uint8 (h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA -> lossless WebP.

    The optional knobs select which VP8L features the stream uses (so tests
    can pin each decoder path): ``predictor_mode`` / ``color_transform``
    apply one uniform mode / delta-triple across all blocks, ``palette``
    engages color-indexing (with bundling for <= 16 distinct colors), and
    ``meta_bits`` splits the prefix codes into a two-group checkerboard
    meta-prefix image. ``palette`` excludes the other transforms (matching
    libwebp's encoder constraint)."""
    img, has_alpha = _to_argb(pixels)
    h, w = img.shape
    if not (1 <= w <= 16384 and 1 <= h <= 16384):
        raise ValueError("VP8L dimensions must be in [1, 16384]")
    if palette and (subtract_green or predictor_mode is not None or color_transform):
        raise ValueError("palette excludes the pixel-value transforms")
    bw = _BitWriter()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(1 if has_alpha else 0, 1)
    bw.write(0, 3)  # version
    if subtract_green:
        bw.write(1, 1)
        bw.write(2, 2)
        img = _forward_subtract_green(img)
    if color_transform is not None:
        bw.write(1, 1)
        bw.write(1, 2)
        bits = transform_bits
        bw.write(bits - 2, 3)
        g2r, g2b, r2b = (d & 0xFF for d in color_transform)
        cte = np.full(
            (_sub_size(h, bits), _sub_size(w, bits)),
            0xFF000000 | (r2b << 16) | (g2b << 8) | g2r,
            dtype=np.uint32,
        )
        _write_entropy_coded(bw, cte, level0=False)
        img = _forward_color_transform(img, color_transform)
    if predictor_mode is not None:
        if not 0 <= predictor_mode <= 13:
            raise ValueError("predictor mode must be 0..13")
        bw.write(1, 1)
        bw.write(0, 2)
        bits = transform_bits
        bw.write(bits - 2, 3)
        modes = np.full(
            (_sub_size(h, bits), _sub_size(w, bits)),
            0xFF000000 | (predictor_mode << 8),
            dtype=np.uint32,
        )
        _write_entropy_coded(bw, modes, level0=False)
        img = _predictor_pass(
            img, bits, np.full(modes.shape, predictor_mode, dtype=np.int64), inverse=False
        )
    if palette:
        colors = np.unique(img.ravel())
        if colors.size > 256:
            raise ValueError("palette encoding needs <= 256 distinct colors")
        bw.write(1, 1)
        bw.write(3, 2)
        num_colors = colors.size
        bw.write(num_colors - 1, 8)
        ch = np.stack(
            [(colors >> s) & 0xFF for s in (24, 16, 8, 0)], axis=1
        ).astype(np.int64)
        deltas = np.diff(np.vstack([np.zeros((1, 4), np.int64), ch]), axis=0) & 0xFF
        stored = (
            (deltas[:, 0].astype(np.uint32) << 24)
            | (deltas[:, 1].astype(np.uint32) << 16)
            | (deltas[:, 2].astype(np.uint32) << 8)
            | deltas[:, 3].astype(np.uint32)
        )
        _write_entropy_coded(bw, stored.reshape(1, -1), level0=False)
        lookup = {int(c): i for i, c in enumerate(colors)}
        idx = np.vectorize(lookup.__getitem__, otypes=[np.int64])(
            img.astype(np.int64)
        )
        wbits = 0 if num_colors > 16 else (1 if num_colors > 4 else (2 if num_colors > 2 else 3))
        if wbits == 0:
            packed = idx
        else:
            per = 1 << wbits
            bpp = 8 >> wbits
            rw = _sub_size(w, wbits)
            pad = rw * per - w
            padded = np.pad(idx, ((0, 0), (0, pad))).reshape(h, rw, per)
            shifts = (np.arange(per) * bpp).reshape(1, 1, per)
            packed = (padded << shifts).sum(axis=2)
        img = (packed.astype(np.uint32) << 8).astype(np.uint32)
    bw.write(0, 1)  # end of transforms
    _write_entropy_coded(
        bw,
        img,
        level0=True,
        cache_bits=cache_bits,
        use_lz77=use_lz77,
        meta_bits=meta_bits,
    )
    stream = b"\x2f" + bw.finish()
    chunk = b"VP8L" + struct.pack("<I", len(stream)) + stream
    if len(stream) & 1:
        chunk += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
