"""Pure-numpy/stdlib codecs for the multimodal formats.

BMP (BI_RGB), WAV (PCM) and raw concatenated video frames are fixed headers
plus raw sample bytes, parseable with struct/numpy alone. PNG rides on
stdlib zlib (DEFLATE) with numpy unfiltering, JPEG (baseline SOF0/SOF1 and
progressive SOF2) is an 8x8 matrix DCT plus table-driven Huffman coding,
GIF (still + animated) is variable-width LZW, lossless WebP (VP8L, in
functions/webp.py, re-exported here) is canonical prefix codes + LZ77
+ color cache + the four VP8L transforms, and FLAC (functions/flac.py,
re-exported here) is Rice coding + fixed/LPC predictors — no codec
library needed for any of them. These give the multimodal pipelines a
REAL decode path
inside this container; the remaining compressed formats (MP3, H.264,
lossy-VP8 WebP) stay documented NotImplementedError seams in
stages/multimodal.py because their decoders genuinely are absent here.

Layouts implemented (public file-format specs):
- BMP: 14-byte BITMAPFILEHEADER + 40-byte BITMAPINFOHEADER, BI_RGB only;
  8-bit (palette present but values ARE the gray levels, the common
  grayscale convention) and 24-bit BGR; rows padded to 4 bytes; bottom-up
  (positive height) or top-down (negative height).
- WAV: RIFF/WAVE chunk walk ("fmt " then "data", tolerating extra chunks),
  integer PCM (format 1, 8/16-bit), IEEE float32 (3), G.711 A-law/mu-law
  (6/7) and IMA/DVI ADPCM (0x11); multi-channel PCM downmixes to mono.
"""

from __future__ import annotations

import struct

import numpy as np

_BI_RGB = 0


def encode_bmp_gray8(pixels: np.ndarray) -> bytes:
    """(h, w) uint8 -> 8-bit grayscale BMP bytes (bottom-up, BI_RGB)."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim != 2:
        raise ValueError("encode_bmp_gray8 expects a (h, w) array")
    h, w = px.shape
    stride = (w + 3) & ~3
    palette = np.zeros((256, 4), dtype=np.uint8)
    palette[:, 0] = palette[:, 1] = palette[:, 2] = np.arange(256, dtype=np.uint8)
    data_offset = 14 + 40 + 256 * 4
    img_size = stride * h
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w] = px[::-1]  # bottom-up storage
    header = struct.pack("<2sIHHI", b"BM", data_offset + img_size, 0, 0, data_offset)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, _BI_RGB, img_size, 2835, 2835, 256, 0)
    return header + info + palette.tobytes() + rows.tobytes()


def decode_bmp(payload: bytes | np.ndarray) -> np.ndarray:
    """BMP bytes -> (h, w) uint8 (8-bit) or (h, w, 3) uint8 RGB (24-bit)."""
    buf = np.frombuffer(payload, dtype=np.uint8) if not isinstance(payload, np.ndarray) else payload
    # only the 54 header bytes are struct-parsed; pixel data slices from buf
    raw = buf[:54].tobytes()
    if len(buf) < 54 or raw[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_offset = struct.unpack_from("<I", raw, 10)[0]
    hdr_size, w, h_signed = struct.unpack_from("<Iii", raw, 14)
    planes, bpp, compression = struct.unpack_from("<HHI", raw, 26)
    if hdr_size < 40 or planes != 1 or compression != _BI_RGB:
        raise ValueError(f"unsupported BMP variant (hdr={hdr_size}, comp={compression})")
    top_down = h_signed < 0
    h = abs(h_signed)
    if bpp == 8:
        stride = (w + 3) & ~3
        rows = buf[data_offset : data_offset + stride * h].reshape(h, stride)[:, :w]
        return rows.copy() if top_down else rows[::-1].copy()
    if bpp == 24:
        stride = (w * 3 + 3) & ~3
        rows = buf[data_offset : data_offset + stride * h].reshape(h, stride)[:, : w * 3]
        img = rows.reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
        return img.copy() if top_down else img[::-1].copy()
    raise ValueError(f"unsupported BMP bit depth {bpp}")


def _wav_container(fmt_code: int, channels: int, sample_rate: int, bits: int, data: bytes) -> bytes:
    block = channels * (bits // 8)
    fmt = struct.pack("<HHIIHH", fmt_code, channels, sample_rate, sample_rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def encode_wav_pcm16(samples: np.ndarray, *, sample_rate: int = 16000) -> bytes:
    """int16 samples -> RIFF/WAVE PCM bytes. 1-D input writes mono; 2-D
    ``(n, channels)`` input writes interleaved multi-channel frames."""
    s = np.asarray(samples, dtype="<i2")
    channels = 1 if s.ndim == 1 else s.shape[1]
    return _wav_container(1, channels, sample_rate, 16, np.ascontiguousarray(s).tobytes())


# --- G.711 companding (ITU-T, 1972) ------------------------------------------
# Telephony / call-center speech corpora ship as 8 kHz companded WAV (format
# code 6 = A-law, 7 = mu-law). Both laws are pure formulas — the 256-entry
# decode tables below are COMPUTED from the piecewise-linear segment
# definitions, no copied constants. The encoder quantizes to the decoder's
# exact reproduction levels (nearest level wins), which makes
# encode(decode(cw)) == cw an identity the tests assert for all 256 codes.


def _g711_decode_table(law: str) -> np.ndarray:
    cw = np.arange(256, dtype=np.int64)
    if law == "mu":
        u = (~cw) & 0xFF  # mu-law codewords are transmitted complemented
        sign = (u >> 7) & 1
        exponent = (u >> 4) & 7
        mantissa = u & 0x0F
        magnitude = (((mantissa << 3) + 0x84) << exponent) - 0x84
    elif law == "a":
        a = cw ^ 0x55  # even bits inverted on the wire
        sign = 1 - ((a >> 7) & 1)  # A-law sign bit is 1 for POSITIVE
        exponent = (a >> 4) & 7
        mantissa = a & 0x0F
        seg0 = (mantissa << 4) + 8
        segN = ((mantissa << 4) + 0x108) << np.maximum(exponent - 1, 0)
        magnitude = np.where(exponent == 0, seg0, segN)
    else:
        raise ValueError(f"unknown companding law {law!r}")
    return np.where(sign == 1, -magnitude, magnitude).astype(np.int16)


def _g711_encode(samples_i16: np.ndarray, law: str) -> np.ndarray:
    levels = _g711_decode_table(law)
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order].astype(np.int32)
    x = samples_i16.astype(np.int32)
    idx = np.searchsorted(sorted_levels, x)
    lo = np.clip(idx - 1, 0, 255)
    hi = np.clip(idx, 0, 255)
    pick = np.where(np.abs(sorted_levels[hi] - x) < np.abs(x - sorted_levels[lo]), hi, lo)
    return order[pick].astype(np.uint8)


def encode_wav_g711(samples: np.ndarray, *, law: str = "mu", sample_rate: int = 8000) -> bytes:
    """mono int16 samples -> RIFF/WAVE G.711 bytes (format 7 mu-law / 6 A-law)."""
    s = np.asarray(samples, dtype=np.int16)
    return _wav_container(7 if law == "mu" else 6, 1, sample_rate, 8, _g711_encode(s, law).tobytes())


# --- IMA / DVI ADPCM (WAV format 0x11) ----------------------------------------
# The other big telephony/speech-corpus encoding: 4 bits per sample, blocks of
# (block_align) bytes each carrying its own (predictor, step-index) header, so
# blocks decode independently — which is exactly what lets both directions be
# vectorized ACROSS blocks here: the data-dependent recurrence runs as a loop
# over sample positions with numpy ops over the whole block axis, never a
# Python loop per sample. Step/index tables are the published IMA ADPCM
# reference constants (Intel/DVI, reproduced in RFC 3551 §4.5.1 and the
# Microsoft WAVE format docs).

_IMA_STEP_TABLE = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
        41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
        190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
        724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
        2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
        6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
        16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
    ],
    dtype=np.int32,
)
_IMA_INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8] * 2, dtype=np.int32)


def _ima_reconstruct(pred: np.ndarray, index: np.ndarray, code: np.ndarray):
    """One IMA update step, vectorized over blocks: (pred, index, 4-bit code)
    -> (new pred, new index). Shared by encoder and decoder so they can never
    drift apart."""
    step = _IMA_STEP_TABLE[index]
    diff = (step >> 3) + np.where(code & 1, step >> 2, 0)
    diff += np.where(code & 2, step >> 1, 0) + np.where(code & 4, step, 0)
    pred = np.clip(pred + np.where(code & 8, -diff, diff), -32768, 32767)
    index = np.clip(index + _IMA_INDEX_TABLE[code], 0, 88)
    return pred, index


def _ima_decode_blocks(blocks: np.ndarray, samples_per_block: int) -> np.ndarray:
    """(n_blocks, block_align) uint8 -> (n_blocks, samples_per_block) int16."""
    n = blocks.shape[0]
    pred = blocks[:, :2].copy().view("<i2")[:, 0].astype(np.int32)
    index = np.clip(blocks[:, 2].astype(np.int32), 0, 88)
    body = blocks[:, 4:]
    nib = np.empty((n, body.shape[1] * 2), dtype=np.uint8)
    nib[:, 0::2] = body & 0x0F  # low nibble carries the earlier sample
    nib[:, 1::2] = body >> 4
    out = np.empty((n, samples_per_block), dtype=np.int16)
    out[:, 0] = pred
    for i in range(samples_per_block - 1):
        pred, index = _ima_reconstruct(pred, index, nib[:, i].astype(np.int32))
        out[:, i + 1] = pred
    return out


def _ima_encode_blocks(x: np.ndarray) -> np.ndarray:
    """(n_blocks, samples_per_block) int16 -> (n_blocks, block_align) uint8.
    Each block is self-contained (header predictor = its first sample, step
    index restarts at 0), which is valid per spec and lets all blocks encode
    in one vectorized pass."""
    n, spb = x.shape
    pred = x[:, 0].astype(np.int32)
    index = np.zeros(n, dtype=np.int32)
    header = np.zeros((n, 4), dtype=np.uint8)
    header[:, :2] = pred.astype("<i2")[:, None].view(np.uint8).reshape(n, 2)
    codes = np.empty((n, spb - 1), dtype=np.uint8)
    for i in range(1, spb):
        step = _IMA_STEP_TABLE[index]
        diff = x[:, i].astype(np.int32) - pred
        sign = diff < 0
        mag = np.abs(diff)
        code = np.where(sign, 8, 0).astype(np.int32)
        for bit, shift in ((4, 0), (2, 1), (1, 2)):
            th = step >> shift
            hit = mag >= th
            code |= np.where(hit, bit, 0)
            mag -= np.where(hit, th, 0)
        pred, index = _ima_reconstruct(pred, index, code)
        codes[:, i - 1] = code
    if codes.shape[1] % 2:
        codes = np.concatenate([codes, np.zeros((n, 1), np.uint8)], axis=1)
    packed = codes[:, 0::2] | (codes[:, 1::2] << 4)
    return np.concatenate([header, packed], axis=1)


def encode_wav_ima_adpcm(
    samples: np.ndarray, *, sample_rate: int = 8000, block_align: int = 256
) -> bytes:
    """mono int16 samples -> RIFF/WAVE IMA ADPCM bytes (format 0x11). The
    fmt extension carries samples-per-block and a fact chunk carries the true
    sample count so the padded tail of the final block trims on decode."""
    s = np.asarray(samples, dtype=np.int16).ravel()
    if len(s) == 0:
        raise ValueError("cannot encode an empty signal")
    spb = (block_align - 4) * 2 + 1
    n_blocks = (len(s) + spb - 1) // spb
    padded = np.full(n_blocks * spb, s[-1], dtype=np.int16)
    padded[: len(s)] = s
    data = _ima_encode_blocks(padded.reshape(n_blocks, spb)).tobytes()
    fmt = struct.pack(
        "<HHIIHHHH",
        0x11, 1, sample_rate,
        (sample_rate * block_align + spb - 1) // spb,  # avg bytes/sec
        block_align, 4,
        2, spb,  # cbSize=2 extension: samples per block
    )
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, len(s))
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def decode_wav(payload: bytes | np.ndarray) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes -> (mono float32 samples in [-1, 1), sample_rate).
    Walks the chunk list, so extra chunks (LIST/fact/...) are tolerated.
    Formats: 1 = integer PCM (8/16-bit), 3 = IEEE float32, 6 = G.711 A-law,
    7 = G.711 mu-law, 0x11 = IMA/DVI ADPCM (mono). Multi-channel frames are
    downmixed to mono by averaging (the analysis stages are single-channel)."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, fmt, fmt_body, data, fact = 12, None, b"", None, None
    while pos + 8 <= len(raw):
        cid, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            fmt_body = body
        elif cid == b"data":
            data = body
        elif cid == b"fact" and size >= 4:
            fact = struct.unpack_from("<I", body, 0)[0]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV payload missing fmt/data chunk")
    audio_format, channels, sample_rate, _, block_align, bits = fmt
    if channels < 1:
        raise ValueError("WAV fmt declares zero channels")
    if audio_format == 1 and bits == 16:
        s = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    elif audio_format == 1 and bits == 8:
        s = (np.frombuffer(data, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
    elif audio_format == 3 and bits == 32:
        s = np.frombuffer(data, dtype="<f4").astype(np.float32)
    elif audio_format in (6, 7) and bits == 8:
        table = _g711_decode_table("a" if audio_format == 6 else "mu")
        s = table[np.frombuffer(data, dtype=np.uint8)].astype(np.float32) / 32768.0
    elif audio_format == 0x11 and bits == 4:
        if channels != 1:
            raise ValueError("IMA ADPCM decode supports mono only")
        if block_align < 5:
            raise ValueError(f"IMA ADPCM block_align {block_align} too small")
        if len(fmt_body) >= 20 and struct.unpack_from("<H", fmt_body, 16)[0] >= 2:
            spb = struct.unpack_from("<H", fmt_body, 18)[0]
        else:
            spb = (block_align - 4) * 2 + 1
        n_blocks = len(data) // block_align
        blocks = np.frombuffer(data[: n_blocks * block_align], dtype=np.uint8)
        pcm = _ima_decode_blocks(blocks.reshape(n_blocks, block_align), spb)
        s = pcm.reshape(-1).astype(np.float32) / 32768.0
        if fact is not None:
            s = s[:fact]
    else:
        raise ValueError(f"unsupported WAV encoding (format={audio_format}, bits={bits})")
    if channels > 1:
        n = (len(s) // channels) * channels
        s = s[:n].reshape(-1, channels).mean(axis=1)
    return s, int(sample_rate)


# --- PNG (ISO/IEC 15948) -----------------------------------------------------
# Zero new dependencies: DEFLATE is stdlib zlib, unfiltering is numpy. Scope:
# 8-bit depth, color types 0 (grayscale), 2 (RGB), 3 (palette via PLTE) and
# 6 (RGBA), sequential AND Adam7-interlaced row order. All five row filters
# (None/Sub/Up/Average/Paeth) decode; the encoder can apply any one of them
# (and write Adam7 / palette / RGBA) so round-trip tests exercise every
# decode path. 16-bit depth and gray+alpha stay out of scope (raise, never
# mis-read).

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import zlib

    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, vectorized (a=left, b=up, c=up-left), uint8 out."""
    ai, bi, ci = a.astype(np.int32), b.astype(np.int32), c.astype(np.int32)
    p = ai + bi - ci
    pa, pb, pc = np.abs(p - ai), np.abs(p - bi), np.abs(p - ci)
    out = np.where((pa <= pb) & (pa <= pc), ai, np.where(pb <= pc, bi, ci))
    return out.astype(np.uint8)


# Adam7 pass origins/strides: (x0, y0, dx, dy) per PNG spec §8.2
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _png_filter_rows(raw: np.ndarray, bpp: int, filter_type: int) -> bytes:
    """Apply one fixed row filter to a (h, stride) byte image -> filter-byte-
    prefixed scanlines (the encoder half of the five unfilter paths)."""
    out_rows = []
    prev = np.zeros(raw.shape[1], dtype=np.uint8)
    for y in range(raw.shape[0]):
        row = raw[y]
        left = np.concatenate([np.zeros(bpp, np.uint8), row[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, np.uint8), prev[:-bpp]])
        if filter_type == 0:
            filt = row
        elif filter_type == 1:
            filt = row - left
        elif filter_type == 2:
            filt = row - prev
        elif filter_type == 3:
            filt = row - ((left.astype(np.uint16) + prev.astype(np.uint16)) // 2).astype(np.uint8)
        else:
            filt = row - _paeth(left, prev, upleft)
        out_rows.append(bytes([filter_type]) + filt.tobytes())
        prev = row
    return b"".join(out_rows)


def encode_png(
    pixels: np.ndarray,
    *,
    filter_type: int = 0,
    level: int = 6,
    interlace: bool = False,
    palette: np.ndarray | None = None,
) -> bytes:
    """uint8 (h, w) gray, (h, w, 3) RGB or (h, w, 4) RGBA -> PNG bytes. With
    ``palette`` (p, 3), the input must be (h, w) INDICES and a color-type-3
    paletted PNG is written. The given row filter (0..4) is applied to EVERY
    row (real encoders pick per row; one fixed type keeps the encoder simple
    while letting round-trip tests drive each unfilter path).
    ``interlace=True`` writes Adam7 pass-split scanlines."""
    import zlib

    px = np.asarray(pixels, dtype=np.uint8)
    if palette is not None:
        pal = np.asarray(palette, dtype=np.uint8)
        if px.ndim != 2 or pal.ndim != 2 or pal.shape[1] != 3 or len(pal) > 256:
            raise ValueError("paletted PNG needs (h, w) indices and a (<=256, 3) palette")
        if px.size and int(px.max()) >= len(pal):
            raise ValueError("palette index out of range")
        color_type, channels = 3, 1
        h, w = px.shape
        plane = px[..., None]
    elif px.ndim == 2:
        color_type, channels = 0, 1
        h, w = px.shape
        plane = px[..., None]
    elif px.ndim == 3 and px.shape[2] == 3:
        color_type, channels = 2, 3
        h, w, _ = px.shape
        plane = px
    elif px.ndim == 3 and px.shape[2] == 4:
        color_type, channels = 6, 4
        h, w, _ = px.shape
        plane = px
    else:
        raise ValueError("encode_png expects (h, w)[, 3|4] uint8 (or indices + palette)")
    if not 0 <= filter_type <= 4:
        raise ValueError("filter_type must be 0..4")
    if interlace:
        parts = []
        for x0, y0, dx, dy in _ADAM7:
            sub = plane[y0::dy, x0::dx]
            if sub.shape[0] == 0 or sub.shape[1] == 0:
                continue  # empty passes contribute no scanlines at all
            parts.append(
                _png_filter_rows(
                    sub.reshape(sub.shape[0], sub.shape[1] * channels), channels, filter_type
                )
            )
        scanlines = b"".join(parts)
    else:
        scanlines = _png_filter_rows(plane.reshape(h, w * channels), channels, filter_type)
    idat = zlib.compress(scanlines, level)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 1 if interlace else 0)
    out = _PNG_SIG + _png_chunk(b"IHDR", ihdr)
    if color_type == 3:
        out += _png_chunk(b"PLTE", pal.tobytes())
    return out + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")


def _png_unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """(h, stride+1) filter-byte-prefixed scanlines -> (h, stride) recon.
    Sub/Average/Paeth reconstruct pixel by pixel along the row (the spec's
    data dependency — each byte needs the reconstructed left neighbour);
    None/Up are fully vectorized and Sub uses a cumulative-sum closed form."""
    ftypes, rows = data[:, 0], data[:, 1:]
    recon = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ft, row = int(ftypes[y]), rows[y]
        if ft == 0:
            r = row.copy()
        elif ft == 1:
            # recon[x] = row[x] + recon[x-bpp]: per-channel cumsum mod 256
            r = np.cumsum(row.reshape(-1, bpp), axis=0, dtype=np.int64) % 256
            r = r.astype(np.uint8).reshape(stride)
        elif ft == 2:
            r = row + prev
        elif ft == 3:
            r = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                left = int(r[x - bpp]) if x >= bpp else 0
                r[x] = (int(row[x]) + (left + int(prev[x])) // 2) & 0xFF
        elif ft == 4:
            r = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                a = int(r[x - bpp]) if x >= bpp else 0
                c = int(prev[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                r[x] = (int(row[x]) + pred) & 0xFF
        else:
            raise ValueError(f"invalid PNG filter type {ft}")
        recon[y] = r
        prev = r
    return recon


def decode_png(payload: bytes | np.ndarray) -> np.ndarray:
    """PNG bytes -> uint8 (h, w) grayscale, (h, w, 3) RGB (palette images
    resolve through their PLTE) or (h, w, 4) RGBA.

    Full chunk walk with CRC verification; multiple IDAT chunks concatenate;
    all five row filters unfilter; sequential AND Adam7-interlaced row
    order; color types 0/2/3/6 at depth 8. 16-bit depth and gray+alpha
    raise — never mis-read."""
    import zlib

    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    if len(raw) < len(_PNG_SIG) + 12 or raw[: len(_PNG_SIG)] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, ihdr, idat, plte = len(_PNG_SIG), None, [], None
    while pos + 8 <= len(raw):
        length = struct.unpack_from(">I", raw, pos)[0]
        ctype = raw[pos + 4 : pos + 8]
        body = raw[pos + 8 : pos + 8 + length]
        crc = struct.unpack_from(">I", raw, pos + 8 + length)[0]
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {ctype!r} CRC mismatch")
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"PLTE":
            plte = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or not idat:
        raise ValueError("PNG payload missing IHDR/IDAT")
    w, h, depth, color_type, comp, filt_method, interlace = ihdr
    if depth != 8 or color_type not in (0, 2, 3, 6) or comp != 0 or filt_method != 0:
        raise ValueError(
            f"unsupported PNG variant (depth={depth}, color={color_type}): scope "
            "is 8-bit gray/RGB/palette/RGBA"
        )
    if color_type == 3 and plte is None:
        raise ValueError("paletted PNG missing PLTE chunk")
    channels = {0: 1, 2: 3, 3: 1, 6: 4}[color_type]
    data = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if interlace == 0:
        stride = w * channels
        if len(data) != h * (stride + 1):
            raise ValueError("PNG pixel data length mismatch")
        recon = _png_unfilter(data.reshape(h, stride + 1), h, stride, channels)
        img = recon.reshape(h, w) if channels == 1 else recon.reshape(h, w, channels)
    elif interlace == 1:
        img = np.zeros((h, w) if channels == 1 else (h, w, channels), dtype=np.uint8)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            hp = (h - y0 + dy - 1) // dy
            wp = (w - x0 + dx - 1) // dx
            if hp == 0 or wp == 0:
                continue
            stride = wp * channels
            end = off + hp * (stride + 1)
            if end > len(data):
                raise ValueError("PNG pixel data length mismatch")
            recon = _png_unfilter(data[off:end].reshape(hp, stride + 1), hp, stride, channels)
            off = end
            sub = recon.reshape(hp, wp) if channels == 1 else recon.reshape(hp, wp, channels)
            img[y0::dy, x0::dx] = sub
        if off != len(data):
            raise ValueError("PNG pixel data length mismatch")
    else:
        raise ValueError(f"invalid PNG interlace method {interlace}")
    if color_type == 3:
        return plte[img]
    return img


# --- JPEG (ITU-T T.81 baseline sequential DCT) -------------------------------
# Zero new dependencies: the DCT is an 8x8 matrix product, Huffman coding is
# table-driven bit twiddling. Scope: baseline (SOF0) and extended-sequential
# (SOF1) Huffman scans, 8-bit precision, grayscale or YCbCr (JFIF), any
# sampling factors the file declares (4:4:4 / 4:2:2 / 4:2:0 via the generic
# h/v block layout), DQT (8- and 16-bit), multi-table DHT, DRI/RSTn restart
# markers. Progressive (SOF2) and arithmetic coding raise — never mis-read.
#
# The ENCODER exists so round-trip tests and fixtures need no external files:
# it emits valid interchange-format JPEG with canonical fixed-length Huffman
# tables (every conforming decoder accepts any table the DHT declares; fixed
# lengths just cost compression, which fixtures don't care about) and a
# documented quant-table family parameterized by `quality` (quality=100 ->
# all-ones tables -> IDCT rounding is the only loss). The DECODER is fully
# table-driven (T.81 F.2.2 canonical code reconstruction), so it decodes
# Annex-K-coded files from the wild, not just our own output.

_ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)  # zigzag index -> row-major position


def _dct_matrix() -> np.ndarray:
    u, x = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    a = np.cos((2 * x + 1) * u * np.pi / 16) / 2.0
    a[0, :] /= np.sqrt(2.0)
    return a  # forward: A @ block @ A.T ; inverse: A.T @ coef @ A


_DCT_A = _dct_matrix()


def _quant_table(quality: int) -> np.ndarray:
    """Documented base table: 16 + 2*(u+v), scaled by the libjpeg-style
    quality curve. quality=100 -> all ones (near-lossless)."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in [1, 100]")
    u, v = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    base = (16 + 2 * (u + v)).astype(np.float64)
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return np.clip(np.floor((base * scale + 50.0) / 100.0), 1, 255).astype(np.int64)


# Encoder Huffman tables: canonical fixed-length codes. DC: 12 categories,
# 5 bits each (codes 0..11; the all-ones 5-bit code stays unassigned, as
# T.81 C.2 requires). AC: all 162 legal symbols (EOB, ZRL, (run<<4)|size for
# run 0..15 / size 1..10), 8 bits each (codes 0..161 < 0xFF).
_ENC_DC_VALS = list(range(12))
_ENC_AC_VALS = sorted([0x00, 0xF0] + [(r << 4) | s for r in range(16) for s in range(1, 11)])
_ENC_AC_CODE = {v: i for i, v in enumerate(_ENC_AC_VALS)}


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, value: int, nbits: int) -> None:
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.nbits += nbits
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # byte stuffing
        self.acc &= (1 << self.nbits) - 1

    def align(self) -> None:
        if self.nbits:
            self.put((1 << (8 - self.nbits)) - 1, 8 - self.nbits)  # 1-fill


def _mag_bits(v: int) -> tuple[int, int]:
    """JPEG magnitude category + extra bits for a signed coefficient."""
    size = int(v).bit_length() if v > 0 else int(-v).bit_length()
    bits = v if v >= 0 else v + (1 << size) - 1
    return size, bits


def _encode_block(bw: _BitWriter, zz: np.ndarray, pred: int) -> int:
    dc = int(zz[0])
    size, bits = _mag_bits(dc - pred)
    bw.put(size, 5)
    if size:
        bw.put(bits, size)
    run = 0
    nz = np.flatnonzero(zz[1:])
    last = int(nz[-1]) + 1 if len(nz) else 0
    for k in range(1, last + 1):
        c = int(zz[k])
        if c == 0:
            run += 1
            continue
        while run > 15:
            bw.put(_ENC_AC_CODE[0xF0], 8)
            run -= 16
        size, bits = _mag_bits(c)
        bw.put(_ENC_AC_CODE[(run << 4) | size], 8)
        bw.put(bits, size)
        run = 0
    if last < 63:
        bw.put(_ENC_AC_CODE[0x00], 8)  # EOB
    return dc


def _dht_segment(tc: int, th: int, values: list[int], length: int) -> bytes:
    bits = [0] * 16
    bits[length - 1] = len(values)
    body = bytes([(tc << 4) | th]) + bytes(bits) + bytes(values)
    return b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body


def _pad_to(img: np.ndarray, h: int, w: int) -> np.ndarray:
    return np.pad(img, ((0, h - img.shape[0]), (0, w - img.shape[1])), mode="edge")


def _jpeg_prep(pixels: np.ndarray, quality: int, subsample: str):
    """Shared encoder front half: color transform, subsampling, DCT and
    quantization. -> (h, w, comps [(plane, ch, cv, tq)], qts,
    comp_blocks [(by, bx, 64) zigzag int64], mcus_x, mcus_y)."""
    px = np.asarray(pixels, dtype=np.uint8)
    gray = px.ndim == 2
    if not gray and (px.ndim != 3 or px.shape[2] != 3):
        raise ValueError("pixels must be (h, w) gray or (h, w, 3) RGB")
    if subsample not in ("444", "420"):
        raise ValueError("subsample must be '444' or '420'")
    h, w = px.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")

    qt_l = _quant_table(quality)
    if gray:
        comps = [(px.astype(np.float64), 1, 1, 0)]
        qts = [qt_l]
    else:
        rgb = px.astype(np.float64)
        y = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        cb = 128.0 - 0.168736 * rgb[..., 0] - 0.331264 * rgb[..., 1] + 0.5 * rgb[..., 2]
        cr = 128.0 + 0.5 * rgb[..., 0] - 0.418688 * rgb[..., 1] - 0.081312 * rgb[..., 2]
        qt_c = _quant_table(min(100, quality + 5))
        if subsample == "444":
            comps = [(y, 1, 1, 0), (cb, 1, 1, 1), (cr, 1, 1, 1)]
        else:
            # 2x2 box-mean chroma; pad odd dims first so the mean is exact
            cbp = _pad_to(cb, h + h % 2, w + w % 2)
            crp = _pad_to(cr, h + h % 2, w + w % 2)
            cb2 = cbp.reshape(cbp.shape[0] // 2, 2, cbp.shape[1] // 2, 2).mean(axis=(1, 3))
            cr2 = crp.reshape(crp.shape[0] // 2, 2, crp.shape[1] // 2, 2).mean(axis=(1, 3))
            comps = [(y, 2, 2, 0), (cb2, 1, 1, 1), (cr2, 1, 1, 1)]
        qts = [qt_l, qt_c]

    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))

    # per-component quantized coefficient blocks, MCU-aligned
    comp_blocks = []
    for plane, ch, cv, tq in comps:
        bx, by = mcus_x * ch, mcus_y * cv
        p = _pad_to(plane, by * 8, bx * 8) - 128.0
        blocks = p.reshape(by, 8, bx, 8).transpose(0, 2, 1, 3)
        coef = np.einsum("ui,yxij,jv->yxuv", _DCT_A, blocks, _DCT_A.T)
        q = np.round(coef / qts[tq]).astype(np.int64)
        comp_blocks.append(q.reshape(by, bx, 64)[:, :, _ZIGZAG])
    return h, w, comps, qts, comp_blocks, mcus_x, mcus_y


def _jpeg_headers(h, w, comps, qts, sof_marker: bytes) -> bytearray:
    """SOI + JFIF + DQT + SOF + DHT segments shared by both encoders."""
    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tq, qt in enumerate(qts):
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + bytes(
            qt.ravel()[_ZIGZAG].astype(np.uint8)
        )
    nf = len(comps)
    sof = struct.pack(">BHHB", 8, h, w, nf)
    for ci, (_, ch, cv, tq) in enumerate(comps):
        sof += bytes([ci + 1, (ch << 4) | cv, tq])
    out += sof_marker + struct.pack(">H", 2 + len(sof)) + sof
    out += _dht_segment(0, 0, _ENC_DC_VALS, 5)
    out += _dht_segment(1, 0, _ENC_AC_VALS, 8)
    if nf > 1:
        out += _dht_segment(0, 1, _ENC_DC_VALS, 5)
        out += _dht_segment(1, 1, _ENC_AC_VALS, 8)
    return out


def encode_jpeg_baseline(
    pixels: np.ndarray,
    *,
    quality: int = 90,
    subsample: str = "444",
    restart_interval: int = 0,
) -> bytes:
    """(h, w) uint8 gray or (h, w, 3) uint8 RGB -> baseline JFIF bytes.

    ``subsample`` is '444' or '420' (color only). ``restart_interval`` > 0
    emits DRI + RSTn every that many MCUs (exercises the decoder's restart
    path)."""
    h, w, comps, qts, comp_blocks, mcus_x, mcus_y = _jpeg_prep(pixels, quality, subsample)
    nf = len(comps)
    out = _jpeg_headers(h, w, comps, qts, b"\xff\xc0")
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    sos = bytes([nf])
    for ci in range(nf):
        t = 0 if ci == 0 else 1
        sos += bytes([ci + 1, (t << 4) | t])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos

    bw = _BitWriter()
    preds = [0] * nf
    mcu_count = 0
    rst = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                bw.align()
                out += bw.out
                bw = _BitWriter()
                out += bytes([0xFF, 0xD0 + rst])
                rst = (rst + 1) % 8
                preds = [0] * nf
            for ci, (_, ch, cv, _tq) in enumerate(comps):
                for by in range(cv):
                    for bx in range(ch):
                        zz = comp_blocks[ci][my * cv + by, mx * ch + bx]
                        preds[ci] = _encode_block(bw, zz, preds[ci])
            mcu_count += 1
    bw.align()
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _sos_header(comp_specs: list[tuple[int, int, int]], ss: int, se: int, ah: int, al: int) -> bytes:
    """comp_specs = [(component id, Td, Ta), ...] -> SOS segment bytes."""
    sos = bytes([len(comp_specs)])
    for cid, td, ta in comp_specs:
        sos += bytes([cid, (td << 4) | ta])
    sos += bytes([ss, se, (ah << 4) | al])
    return b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos


def _enc_dc_first_scan(comp_blocks, comps, mcus_x, mcus_y, al: int) -> bytes:
    """Interleaved DC scan at successive-approximation level Al (T.81 G.1.2.1:
    point transform = arithmetic shift)."""
    bw = _BitWriter()
    preds = [0] * len(comps)
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, (_, ch, cv, _tq) in enumerate(comps):
                for by in range(cv):
                    for bx in range(ch):
                        v = int(comp_blocks[ci][my * cv + by, mx * ch + bx, 0]) >> al
                        size, bits = _mag_bits(v - preds[ci])
                        preds[ci] = v
                        bw.put(size, 5)
                        if size:
                            bw.put(bits, size)
    bw.align()
    return bytes(bw.out)


def _enc_dc_refine_scan(comp_blocks, comps, mcus_x, mcus_y, al: int) -> bytes:
    bw = _BitWriter()
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, (_, ch, cv, _tq) in enumerate(comps):
                for by in range(cv):
                    for bx in range(ch):
                        bw.put((int(comp_blocks[ci][my * cv + by, mx * ch + bx, 0]) >> al) & 1, 1)
    bw.align()
    return bytes(bw.out)


def _enc_ac_first_scan(blocks, ss: int, se: int, al: int) -> bytes:
    """Non-interleaved AC band scan, first pass: magnitudes shifted by Al
    (truncation toward zero per T.81 G.1.2.2). Per-block EOB0 (no cross-block
    EOB runs — decoders must accept any run split)."""
    bw = _BitWriter()
    by, bx = blocks.shape[:2]
    for m in range(by * bx):
        blk = blocks[m // bx, m % bx]
        r = 0
        for k in range(ss, se + 1):
            c = int(blk[k])
            mag = (-c if c < 0 else c) >> al
            if mag == 0:
                r += 1
                continue
            while r > 15:
                bw.put(_ENC_AC_CODE[0xF0], 8)
                r -= 16
            v = -mag if c < 0 else mag
            size, bits = _mag_bits(v)
            bw.put(_ENC_AC_CODE[(r << 4) | size], 8)
            bw.put(bits, size)
            r = 0
        if r:
            bw.put(_ENC_AC_CODE[0x00], 8)  # EOB0
    bw.align()
    return bytes(bw.out)


def _enc_ac_refine_scan(blocks, ss: int, se: int, al: int) -> bytes:
    """Non-interleaved AC band scan, refinement pass (T.81 G.1.2.3 /
    libjpeg jcphuff structure): newly-nonzero coefficients emit (run|1) +
    sign, already-nonzero ones buffer a correction bit that is flushed right
    after the next emitted symbol. ZRLs flush at every nonzero magnitude so
    buffered corrections always precede the decoder's 16-skip window."""
    bw = _BitWriter()
    by, bx = blocks.shape[:2]
    for m in range(by * bx):
        blk = blocks[m // bx, m % bx]
        mags = [(-int(c) if c < 0 else int(c)) >> al for c in blk[ss : se + 1]]
        eob = ss - 1  # position of the last newly-nonzero coefficient
        for j, t in enumerate(mags):
            if t == 1:
                eob = ss + j
        r = 0
        pending: list[int] = []
        for j, t in enumerate(mags):
            k = ss + j
            if t == 0:
                r += 1
                continue
            while r > 15 and k <= eob:
                bw.put(_ENC_AC_CODE[0xF0], 8)
                r -= 16
                for b in pending:
                    bw.put(b, 1)
                pending = []
            if t > 1:  # history coefficient: correction bit only
                pending.append(t & 1)
                continue
            bw.put(_ENC_AC_CODE[(r << 4) | 1], 8)
            bw.put(1 if int(blk[k]) >= 0 else 0, 1)
            for b in pending:
                bw.put(b, 1)
            pending = []
            r = 0
        if r or pending:
            bw.put(_ENC_AC_CODE[0x00], 8)  # EOB0 folds trailing zeros
            for b in pending:
                bw.put(b, 1)
    bw.align()
    return bytes(bw.out)


def encode_jpeg_progressive(
    pixels: np.ndarray, *, quality: int = 90, subsample: str = "444"
) -> bytes:
    """(h, w) uint8 gray or (h, w, 3) uint8 RGB -> progressive (SOF2) JFIF
    bytes. Scan script exercises every progressive decode path: interleaved
    DC first (Al=1) + DC refine, then per component AC bands 1-5 and 6-63 at
    Al=1 followed by their Al=0 refinements. Quantized coefficients are
    identical to :func:`encode_jpeg_baseline` at the same quality, so both
    decode to bit-identical pixels."""
    h, w, comps, qts, comp_blocks, mcus_x, mcus_y = _jpeg_prep(pixels, quality, subsample)
    nf = len(comps)
    out = _jpeg_headers(h, w, comps, qts, b"\xff\xc2")
    dc_specs = [(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(nf)]
    out += _sos_header(dc_specs, 0, 0, 0, 1)
    out += _enc_dc_first_scan(comp_blocks, comps, mcus_x, mcus_y, 1)
    bands = [(1, 5), (6, 63)]
    for ci in range(nf):
        ta = 0 if ci == 0 else 1
        for ss, se in bands:
            out += _sos_header([(ci + 1, 0, ta)], ss, se, 0, 1)
            out += _enc_ac_first_scan(_comp_grid(comp_blocks, comps, ci, h, w), ss, se, 1)
    out += _sos_header(dc_specs, 0, 0, 1, 0)
    out += _enc_dc_refine_scan(comp_blocks, comps, mcus_x, mcus_y, 0)
    for ci in range(nf):
        ta = 0 if ci == 0 else 1
        for ss, se in bands:
            out += _sos_header([(ci + 1, 0, ta)], ss, se, 1, 0)
            out += _enc_ac_refine_scan(_comp_grid(comp_blocks, comps, ci, h, w), ss, se, 0)
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _comp_grid(comp_blocks, comps, ci: int, h: int, w: int) -> np.ndarray:
    """Blocks of one component in NON-interleaved scan order: the component's
    own block grid (ceil dims from its scaled size), which may be smaller
    than the MCU-aligned storage grid (T.81 A.2.2)."""
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    _plane, ch, cv, _tq = comps[ci]
    cw = -(-w * ch // hmax)
    chh = -(-h * cv // vmax)
    bx_n = -(-cw // 8)
    by_n = -(-chh // 8)
    return comp_blocks[ci][:by_n, :bx_n]


class _BitReader:
    """MSB-first reader over one unstuffed entropy segment."""

    __slots__ = ("data", "pos", "nbits")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0  # bit position
        self.nbits = len(data) * 8

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        if self.pos + n > self.nbits:
            raise ValueError("truncated JPEG entropy data")
        v = 0
        pos = self.pos
        data = self.data
        for _ in range(n):
            v = (v << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        self.pos = pos
        return v

    def huff(self, table: tuple) -> int:
        mincode, maxcode, valptr, huffval = table
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read(1)
            if maxcode[length] >= 0 and code <= maxcode[length]:
                return huffval[valptr[length] + code - mincode[length]]
        raise ValueError("invalid JPEG Huffman code")


def _build_decode_table(bits: list[int], huffval: list[int]) -> tuple:
    """T.81 F.2.2.3 canonical reconstruction: mincode/maxcode/valptr."""
    mincode = [0] * 17
    maxcode = [-1] * 17
    valptr = [0] * 17
    code = 0
    k = 0
    for length in range(1, 17):
        if bits[length - 1]:
            valptr[length] = k
            mincode[length] = code
            code += bits[length - 1]
            k += bits[length - 1]
            maxcode[length] = code - 1
        code <<= 1
    return (mincode, maxcode, valptr, huffval)


def _extend(v: int, size: int) -> int:
    return v - (1 << size) + 1 if v < (1 << (size - 1)) else v


def _decode_block(br: _BitReader, dctab: tuple, actab: tuple) -> np.ndarray:
    zz = np.zeros(64, dtype=np.int64)
    size = br.huff(dctab)
    zz[0] = _extend(br.read(size), size) if size else 0
    k = 1
    while k < 64:
        rs = br.huff(actab)
        r, size = rs >> 4, rs & 15
        if size == 0:
            if r == 15:
                k += 16
                continue
            break  # EOB
        k += r
        if k > 63:
            raise ValueError("JPEG AC run past end of block")
        zz[k] = _extend(br.read(size), size)
        k += 1
    return zz


def decode_jpeg(payload: bytes | np.ndarray) -> np.ndarray:
    """Huffman JPEG -> uint8 (h, w) or (h, w, 3).

    Table-driven per ITU-T T.81: DQT (8/16-bit), multi-table DHT, SOF0/SOF1
    (baseline/extended sequential) AND SOF2 (progressive: spectral selection,
    successive approximation, EOB runs — T.81 annex G), DRI/RSTn, any
    declared sampling factors, interleaved or single-component scans. All
    scans accumulate quantized coefficients; dequantize + IDCT happen once
    at EOI. Arithmetic coding and hierarchical modes raise
    NotImplementedError.
    """
    data = bytes(bytearray(np.asarray(bytearray(payload), dtype=np.uint8))) if not isinstance(payload, bytes) else payload
    if len(data) < 4 or data[0:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple[int, int], tuple] = {}
    frame = None  # (h, w, comps) ; comps: list of (cid, ch, cv, tq)
    restart = 0
    progressive = False
    coefs: dict[int, np.ndarray] = {}  # cid -> (by, bx, 64) quantized zigzag
    i = 2
    while i < len(data):
        if data[i] != 0xFF:
            raise ValueError("JPEG marker expected")
        while i < len(data) and data[i] == 0xFF:
            i += 1
        if i >= len(data):
            break
        marker = data[i]
        i += 1
        if marker == 0xD9:  # EOI
            break
        if 0xD0 <= marker <= 0xD7:  # stray RST
            continue
        if marker == 0x01:  # TEM
            continue
        (seglen,) = struct.unpack_from(">H", data, i)
        if seglen < 2:
            raise ValueError("malformed JPEG segment length")
        seg = data[i + 2 : i + seglen]
        i += seglen
        if marker == 0xDB:  # DQT
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 15
                j += 1
                if pq:
                    vals = np.frombuffer(seg[j : j + 128], dtype=">u2").astype(np.int64)
                    j += 128
                else:
                    vals = np.frombuffer(seg[j : j + 64], dtype=np.uint8).astype(np.int64)
                    j += 64
                qtabs[tq] = vals  # stored in zigzag order
        elif marker == 0xC4:  # DHT
            j = 0
            while j < len(seg):
                tc, th = seg[j] >> 4, seg[j] & 15
                bits = list(seg[j + 1 : j + 17])
                n = sum(bits)
                huffval = list(seg[j + 17 : j + 17 + n])
                htabs[(tc, th)] = _build_decode_table(bits, huffval)
                j += 17 + n
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0 / SOF1 / SOF2
            prec, fh, fw, nf = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise NotImplementedError("only 8-bit JPEG precision supported")
            progressive = marker == 0xC2
            comps = []
            for c in range(nf):
                cid, hv, tq = seg[6 + 3 * c : 9 + 3 * c]
                comps.append((cid, hv >> 4, hv & 15, tq))
            frame = (fh, fw, comps)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(f"JPEG SOF marker 0x{marker:02x} not supported")
        elif marker == 0xDD:  # DRI
            (restart,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("JPEG SOS before SOF")
            fh, fw, comps = frame
            if not coefs:
                hmax = max(c[1] for c in comps)
                vmax = max(c[2] for c in comps)
                mx = -(-fw // (8 * hmax))
                my = -(-fh // (8 * vmax))
                for cid, ch, cv, _tq in comps:
                    coefs[cid] = np.zeros((my * cv, mx * ch, 64), dtype=np.int64)
            ns = seg[0]
            ss, se, ahal = seg[1 + 2 * ns], seg[2 + 2 * ns], seg[3 + 2 * ns]
            ah, al = ahal >> 4, ahal & 15
            scan = []
            for c in range(ns):
                cs, tt = seg[1 + 2 * c], seg[2 + 2 * c]
                comp = next(cc for cc in comps if cc[0] == cs)
                # progressive AC/refinement scans may leave the unused table
                # undefined — resolve lazily with .get
                scan.append((comp, htabs.get((0, tt >> 4)), htabs.get((1, tt & 15))))
            # entropy data: up to the next non-RST marker
            j = i
            segments = []  # restart-delimited, unstuffed
            cur = bytearray()
            while j < len(data):
                b = data[j]
                if b == 0xFF:
                    nxt = data[j + 1] if j + 1 < len(data) else 0xD9
                    if nxt == 0x00:
                        cur.append(0xFF)
                        j += 2
                        continue
                    if 0xD0 <= nxt <= 0xD7:
                        segments.append(bytes(cur))
                        cur = bytearray()
                        j += 2
                        continue
                    if nxt == 0xFF:
                        j += 1
                        continue
                    break
                cur.append(b)
                j += 1
            segments.append(bytes(cur))
            i = j
            if progressive:
                _decode_scan_progressive(
                    scan, comps, fh, fw, restart, segments, coefs, ns, ss, se, ah, al
                )
            else:
                if (ss, se, ah, al) != (0, 63, 0, 0):
                    raise ValueError("sequential JPEG scan must cover the full spectrum")
                _decode_scan_baseline(scan, comps, fh, fw, restart, segments, coefs, ns)
        # APPn / COM / anything else with a length: skipped
    if frame is None or not coefs:
        raise ValueError("JPEG contains no decodable frame")
    fh, fw, comps = frame
    planes = _idct_planes(coefs, comps, qtabs)
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    out_planes = []
    for cid, ch, cv, _tq in comps:
        p = planes[cid]
        cw = -(-fw * ch // hmax)
        chh = -(-fh * cv // vmax)
        p = p[:chh, :cw]
        if ch != hmax or cv != vmax:
            p = np.repeat(np.repeat(p, vmax // cv, axis=0), hmax // ch, axis=1)
        out_planes.append(p[:fh, :fw].astype(np.float64))
    if len(out_planes) == 1:
        return np.clip(np.round(out_planes[0]), 0, 255).astype(np.uint8)
    if len(out_planes) != 3:
        raise NotImplementedError("only grayscale and 3-component YCbCr supported")
    y, cb, cr = out_planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


def _scan_geometry(scan, comps, fh, fw, ns):
    """-> (mcu_specs [(comp, dctab, actab, ch, cv)], mcus_x, mcus_y). For a
    non-interleaved scan the 'MCU' is one block of that component's own
    (non-MCU-aligned) block grid, per T.81 A.2.2."""
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    if ns == 1:
        comp, dctab, actab = scan[0]
        _cid, ch, cv, _tq = comp
        cw = -(-fw * ch // hmax)
        chh = -(-fh * cv // vmax)
        return [(comp, dctab, actab, 1, 1)], -(-cw // 8), -(-chh // 8)
    mcus_x = -(-fw // (8 * hmax))
    mcus_y = -(-fh // (8 * vmax))
    return [(comp, dc, ac, comp[1], comp[2]) for comp, dc, ac in scan], mcus_x, mcus_y


def _decode_scan_baseline(scan, comps, fh, fw, restart, segments, coefs, ns) -> None:
    mcu_specs, mcus_x, mcus_y = _scan_geometry(scan, comps, fh, fw, ns)
    seg_idx = 0
    br = _BitReader(segments[0])
    preds = {comp[0]: 0 for comp, *_ in mcu_specs}
    interleaved = ns > 1
    for m in range(mcus_x * mcus_y):
        if restart and m and m % restart == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG truncated at restart marker")
            br = _BitReader(segments[seg_idx])
            preds = {k: 0 for k in preds}
        my, mx = divmod(m, mcus_x)
        for comp, dctab, actab, ch, cv in mcu_specs:
            cid = comp[0]
            cv_full = comp[2] if interleaved else 1
            ch_full = comp[1] if interleaved else 1
            for by in range(cv):
                for bx in range(ch):
                    zz = _decode_block(br, dctab, actab)
                    preds[cid] += int(zz[0])
                    zz[0] = preds[cid]
                    coefs[cid][my * cv_full + by, mx * ch_full + bx] = zz


def _decode_scan_progressive(
    scan, comps, fh, fw, restart, segments, coefs, ns, ss, se, ah, al
) -> None:
    """One progressive scan (T.81 annex G): DC first/refine (interleaved or
    not), AC first/refine (single-component only, with EOB-run state)."""
    if ss == 0:
        if se != 0:
            raise ValueError("progressive DC scan must have Se=0")
        _progressive_dc_scan(scan, comps, fh, fw, restart, segments, ns, ah, al, coefs)
        return
    if ns != 1:
        raise ValueError("progressive AC scan must be single-component")
    if not 1 <= ss <= se <= 63:
        raise ValueError("invalid progressive spectral band")
    _progressive_ac_scan(scan, comps, fh, fw, restart, segments, ss, se, ah, al, coefs)


def _progressive_dc_scan(scan, comps, fh, fw, restart, segments, ns, ah, al, coefs) -> None:
    mcu_specs, mcus_x, mcus_y = _scan_geometry(scan, comps, fh, fw, ns)
    seg_idx = 0
    br = _BitReader(segments[0])
    preds = {comp[0]: 0 for comp, *_ in mcu_specs}
    interleaved = ns > 1
    for m in range(mcus_x * mcus_y):
        if restart and m and m % restart == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG truncated at restart marker")
            br = _BitReader(segments[seg_idx])
            preds = {k: 0 for k in preds}
        my, mx = divmod(m, mcus_x)
        for comp, dctab, _actab, ch, cv in mcu_specs:
            cid = comp[0]
            cv_full = comp[2] if interleaved else 1
            ch_full = comp[1] if interleaved else 1
            for by in range(cv):
                for bx in range(ch):
                    blk = coefs[cid][my * cv_full + by, mx * ch_full + bx]
                    if ah == 0:  # first scan: Huffman diff, scaled by 2^Al
                        size = br.huff(dctab)
                        preds[cid] += _extend(br.read(size), size) if size else 0
                        blk[0] = preds[cid] << al
                    else:  # refinement: one raw bit appends bit Al
                        if br.read(1):
                            blk[0] |= 1 << al


def _progressive_ac_scan(scan, comps, fh, fw, restart, segments, ss, se, ah, al, coefs) -> None:
    _mcu_specs, bx_n, by_n = _scan_geometry(scan, comps, fh, fw, 1)
    comp, _dctab, actab = scan[0]
    cid = comp[0]
    store = coefs[cid]
    seg_idx = 0
    br = _BitReader(segments[0])
    eobrun = 0
    for m in range(bx_n * by_n):
        if restart and m and m % restart == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG truncated at restart marker")
            br = _BitReader(segments[seg_idx])
            eobrun = 0
        my, mx = divmod(m, bx_n)
        blk = store[my, mx]
        if ah == 0:
            eobrun = _ac_first_block(br, actab, blk, ss, se, al, eobrun)
        else:
            eobrun = _ac_refine_block(br, actab, blk, ss, se, al, eobrun)


def _ac_first_block(br, actab, blk, ss, se, al, eobrun) -> int:
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = br.huff(actab)
        r, s = rs >> 4, rs & 15
        if s == 0:
            if r < 15:  # EOBn: run of 2^r + extra blocks ending here
                eobrun = (1 << r) - 1
                if r:
                    eobrun += br.read(r)
                break
            k += 16  # ZRL
            continue
        k += r
        if k > se:
            raise ValueError("JPEG AC run past end of band")
        blk[k] = _extend(br.read(s), s) << al
        k += 1
    return eobrun


def _ac_refine_block(br, actab, blk, ss, se, al, eobrun) -> int:
    """T.81 G.1.2.3 / G.2: corrections interleave with newly-nonzero coefs."""
    p1 = 1 << al

    def correct(k: int) -> None:
        # append bit Al to an already-nonzero coefficient's magnitude
        if br.read(1) and (abs(int(blk[k])) & p1) == 0:
            blk[k] += p1 if blk[k] >= 0 else -p1

    k = ss
    if eobrun == 0:
        while k <= se:
            rs = br.huff(actab)
            r, s = rs >> 4, rs & 15
            val = 0
            if s == 0:
                if r < 15:  # EOBn
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read(r)
                    break
                # ZRL: skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("AC refinement symbol must have size 1")
                val = p1 if br.read(1) else -p1
            # advance over r zero-history coefficients; nonzero-history ones
            # pass through with a correction bit and don't count toward r
            while k <= se:
                if blk[k] != 0:
                    correct(k)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val:
                if k > se:
                    raise ValueError("JPEG AC refinement ran past the band")
                blk[k] = val
            k += 1
    if eobrun > 0:
        while k <= se:  # EOB run: corrections only for the rest of the band
            if blk[k] != 0:
                correct(k)
            k += 1
        eobrun -= 1
    return eobrun


def _idct_planes(coefs, comps, qtabs) -> dict[int, np.ndarray]:
    """Dequantize the accumulated zigzag coefficients and IDCT every
    component at once (vectorized einsum) -> pixel planes."""
    planes = {}
    for cid, _ch, _cv, tq in comps:
        store = coefs.get(cid)
        if store is None:
            continue
        by, bx = store.shape[:2]
        nat = np.zeros((by, bx, 64), dtype=np.float64)
        nat[:, :, _ZIGZAG] = store * qtabs[tq]
        blocks = nat.reshape(by, bx, 8, 8)
        pix = np.einsum("ui,yxuv,vj->yxij", _DCT_A, blocks, _DCT_A) + 128.0
        planes[cid] = pix.transpose(0, 2, 1, 3).reshape(by * 8, bx * 8)
    return planes


# --- GIF (GIF89a, CompuServe spec) -------------------------------------------
# Pure stdlib/numpy: the only compression is LZW with variable-width codes
# (3..12 bits, LSB-first packing), implementable exactly from the public
# spec. Scope: 8-bit indexed color via the global color table, still images
# (gray or <=256-color RGB), interlaced or sequential row order, and animated
# multi-frame streams (Graphic Control disposal 1 "leave" and 2 "restore to
# background"; frames may be partial patches at (left, top)). Local color
# tables and transparency indices decode; "restore to previous" (disposal 3)
# raises rather than mis-composites.

_GIF_MAX_CODE = 1 << 12  # LZW dictionary hard cap (12-bit codes)


def _gif_lzw_encode(indices: np.ndarray, mcs: int) -> bytes:
    """Pixel index stream -> GIF LZW code bytes (LSB-first, unblocked).

    Deferred-clear variant: once the dictionary reaches 4096 entries it is
    frozen and existing codes keep being emitted (decoders must support
    this per the spec's "deferred clear code" note).
    """
    clear = 1 << mcs
    end = clear + 1
    code_size = mcs + 1
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = end + 1

    acc = 0
    nbits = 0
    out = bytearray()

    def put(code: int, width: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    put(clear, code_size)
    data = indices.astype(np.uint8).tobytes()
    w = data[:1]
    for j in range(1, len(data)):
        c = data[j : j + 1]
        wc = w + c
        if wc in table:
            w = wc
            continue
        put(table[w], code_size)
        if next_code < _GIF_MAX_CODE:
            table[wc] = next_code
            next_code += 1
            # the just-assigned code value next_code-1 needs code_size+1 bits;
            # the decoder grows its width after adding the same entry
            if next_code == (1 << code_size) + 1 and code_size < 12:
                code_size += 1
        w = c
    put(table[w], code_size)
    put(end, code_size)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _gif_lzw_decode(data: bytes, mcs: int, npix: int) -> np.ndarray:
    """GIF LZW code bytes (already de-sub-blocked) -> uint8 index array."""
    if not 2 <= mcs <= 8:
        raise ValueError(f"invalid GIF LZW minimum code size {mcs}")
    clear = 1 << mcs
    end = clear + 1
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    code_size = mcs + 1
    out = bytearray()
    prev = -1
    pos = 0
    nbits = len(data) * 8
    while len(out) < npix:
        if pos + code_size > nbits:
            raise ValueError("truncated GIF LZW stream")
        byte0 = pos >> 3
        chunk = int.from_bytes(data[byte0 : byte0 + 3], "little")
        code = (chunk >> (pos & 7)) & ((1 << code_size) - 1)
        pos += code_size
        if code == clear:
            table = list(base)
            code_size = mcs + 1
            prev = -1
            continue
        if code == end:
            break
        if prev < 0:
            if code >= clear:
                raise ValueError("GIF LZW stream starts with a non-literal code")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            if len(table) < _GIF_MAX_CODE:
                table.append(table[prev] + entry[:1])
        elif code == len(table):  # KwKwK
            entry = table[prev] + table[prev][:1]
            if len(table) < _GIF_MAX_CODE:
                table.append(entry)
        else:
            raise ValueError("GIF LZW code out of range")
        if len(table) == (1 << code_size) and code_size < 12:
            code_size += 1
        out += entry
        prev = code
    if len(out) < npix:
        raise ValueError("GIF LZW stream ended before the frame was full")
    return np.frombuffer(bytes(out[:npix]), dtype=np.uint8)


def _gif_subblocks(data: bytes) -> bytes:
    """Wrap raw bytes into <=255-byte length-prefixed sub-blocks + terminator."""
    out = bytearray()
    for i in range(0, len(data), 255):
        chunk = data[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


_GIF_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _gif_interlace_order(h: int) -> np.ndarray:
    """Storage-order row indices for an interlaced image of height h."""
    return np.concatenate([np.arange(start, h, step) for start, step in _GIF_INTERLACE_PASSES])


def _gif_palette_and_indices(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(n,h,w) gray or (n,h,w,3) RGB uint8 -> (palette (p,3), indices (n,h,w),
    color-table size field). Gray input always uses the full 256-gray ramp so
    the decoder round-trips it back to a 2-D array."""
    if frames.ndim == 3:  # gray
        palette = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)
        return palette, frames, 7
    flat = frames.reshape(-1, 3).astype(np.uint32)
    packed = (flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2]
    uniq, inv = np.unique(packed, return_inverse=True)
    if len(uniq) > 256:
        raise ValueError(f"GIF needs <=256 distinct colors, got {len(uniq)}")
    size_field = 0  # color table holds 2 << size_field entries
    while (2 << size_field) < len(uniq):
        size_field += 1
    palette = np.zeros((2 << size_field, 3), dtype=np.uint8)
    palette[: len(uniq), 0] = (uniq >> 16) & 0xFF
    palette[: len(uniq), 1] = (uniq >> 8) & 0xFF
    palette[: len(uniq), 2] = uniq & 0xFF
    return palette, inv.reshape(frames.shape[:3]).astype(np.uint8), size_field


def encode_gif(
    pixels: np.ndarray, *, interlace: bool = False, delay_cs: int = 4
) -> bytes:
    """uint8 (h, w) gray, (h, w, 3) RGB, (n, h, w) gray frames or (n, h, w, 3)
    RGB frames -> GIF89a bytes. Multi-frame input writes an animated stream
    (one full-size frame per image, disposal 1, ``delay_cs`` per frame)."""
    px = np.asarray(pixels, dtype=np.uint8)
    animated = px.ndim == 4 or (px.ndim == 3 and px.shape[2] != 3)
    frames = px if animated else px[None, ...]
    if frames.ndim not in (3, 4) or (frames.ndim == 4 and frames.shape[3] != 3):
        raise ValueError("pixels must be (h,w)[,3] or (n,h,w)[,3] uint8")
    n, h, w = frames.shape[:3]
    if h == 0 or w == 0 or n == 0:
        raise ValueError("empty image")
    palette, indices, size_field = _gif_palette_and_indices(frames)
    mcs = max(2, size_field + 1)

    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h)
    out.append(0x80 | (7 << 4) | size_field)  # GCT present, 8-bit resolution
    out.append(0)  # background color index
    out.append(0)  # pixel aspect ratio
    out += palette.tobytes()
    if animated:
        # Netscape looping extension, standard for animations
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    for f in range(n):
        if animated:
            out += b"\x21\xf9\x04" + bytes([1 << 2]) + struct.pack("<H", delay_cs) + b"\x00\x00"
        rows = indices[f]
        if interlace:
            rows = rows[_gif_interlace_order(h)]
        out += b"\x2c" + struct.pack("<HHHH", 0, 0, w, h)
        out.append(0x40 if interlace else 0)
        out.append(mcs)
        out += _gif_subblocks(_gif_lzw_encode(rows.ravel(), mcs))
    out.append(0x3B)
    return bytes(out)


def _gif_parse(data: bytes):
    """Shared walker -> (screen w, h, bg index, list of frames). Each frame is
    (left, top, fw, fh, indices (fh, fw), palette (p, 3), transparent_index,
    disposal)."""
    if len(data) < 13 or data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    sw, sh = struct.unpack_from("<HH", data, 6)
    packed, bg = data[10], data[11]
    pos = 13
    gct = None
    if packed & 0x80:
        size = 2 << (packed & 7)
        gct = np.frombuffer(data[pos : pos + size * 3], dtype=np.uint8).reshape(size, 3)
        pos += size * 3
    try:
        frames, _transparent, _disposal = _gif_walk(data, pos, gct)
    except (IndexError, struct.error) as exc:
        raise ValueError("truncated GIF stream") from exc
    if not frames:
        raise ValueError("GIF contains no image data")
    return sw, sh, bg, frames


def _gif_walk(data: bytes, pos: int, gct):
    frames = []
    transparent = -1
    disposal = 0
    while pos < len(data):
        block = data[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension
            label = data[pos]
            pos += 1
            if label == 0xF9:  # graphic control
                blen = data[pos]
                gce = data[pos + 1 : pos + 1 + blen]
                disposal = (gce[0] >> 2) & 7
                transparent = gce[3] if gce[0] & 1 else -1
                pos += 1 + blen
            # skip (remaining) sub-blocks
            while True:
                blen = data[pos]
                pos += 1 + blen
                if blen == 0:
                    break
        elif block == 0x2C:  # image descriptor
            left, top, fw, fh = struct.unpack_from("<HHHH", data, pos)
            ipacked = data[pos + 8]
            pos += 9
            pal = gct
            if ipacked & 0x80:
                size = 2 << (ipacked & 7)
                pal = np.frombuffer(data[pos : pos + size * 3], dtype=np.uint8).reshape(size, 3)
                pos += size * 3
            if pal is None:
                raise ValueError("GIF image has neither global nor local color table")
            mcs = data[pos]
            pos += 1
            lzw = bytearray()
            while True:
                blen = data[pos]
                pos += 1
                if blen == 0:
                    break
                lzw += data[pos : pos + blen]
                pos += blen
            idx = _gif_lzw_decode(bytes(lzw), mcs, fw * fh).reshape(fh, fw)
            if ipacked & 0x40:  # interlaced: invert the pass permutation
                order = _gif_interlace_order(fh)
                rows = np.empty_like(idx)
                rows[order] = idx
                idx = rows
            frames.append((left, top, fw, fh, idx, pal, transparent, disposal))
            transparent, disposal = -1, 0
        else:
            raise ValueError(f"unknown GIF block 0x{block:02x}")
    return frames, transparent, disposal


def _gif_is_gray(pal: np.ndarray) -> bool:
    return bool(np.all(pal[:, 0] == pal[:, 1]) and np.all(pal[:, 1] == pal[:, 2]))


def decode_gif(payload: bytes | np.ndarray) -> np.ndarray:
    """GIF bytes -> first frame as uint8 (h, w) gray (when the palette is
    gray) or (h, w, 3) RGB. Transparent pixels take the palette color (a
    single frame has nothing underneath to show through)."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    _sw, _sh, _bg, frames = _gif_parse(raw)
    _left, _top, _fw, _fh, idx, pal, _tr, _disp = frames[0]
    if _gif_is_gray(pal):
        return pal[:, 0][idx]
    return pal[idx]


def decode_gif_frames(payload: bytes | np.ndarray) -> np.ndarray:
    """Animated GIF bytes -> composited uint8 (n, sh, sw) gray or
    (n, sh, sw, 3) RGB frame stack on the logical screen, applying patch
    offsets, transparency and disposal methods 0/1 (leave) and 2 (restore to
    background). Disposal 3 (restore to previous) raises."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    sw, sh, bg, frames = _gif_parse(raw)
    gray = all(_gif_is_gray(pal) for *_a, pal, _t, _d in frames)
    shape = (sh, sw) if gray else (sh, sw, 3)
    first_pal = frames[0][5]
    canvas = np.zeros(shape, dtype=np.uint8)
    canvas[...] = first_pal[bg, 0] if gray else first_pal[min(bg, len(first_pal) - 1)]
    out = np.empty((len(frames),) + shape, dtype=np.uint8)
    for i, (left, top, fw, fh, idx, pal, transparent, disposal) in enumerate(frames):
        if disposal == 3:
            raise NotImplementedError("GIF disposal 3 (restore to previous) not supported")
        patch = pal[:, 0][idx] if gray else pal[idx]
        region = canvas[top : top + fh, left : left + fw]
        if transparent >= 0:
            mask = idx == transparent
            patch = np.where(mask[..., None] if not gray else mask, region, patch)
        region[...] = patch
        out[i] = canvas
        if disposal == 2:
            canvas[top : top + fh, left : left + fw] = (
                pal[bg, 0] if gray else pal[min(bg, len(pal) - 1)]
            )
    return out


# Lossless WebP (VP8L) lives in functions/webp.py, FLAC in
# functions/flac.py and the Ogg container (+ Ogg-FLAC mapping) in
# functions/ogg.py; re-exported here so the multimodal stages import
# every codec from one module.
from epichypersketch_jl_ray.functions.flac import (  # noqa: E402
    decode_flac,
    decode_flac_int,
    encode_flac,
)
from epichypersketch_jl_ray.functions.ogg import (  # noqa: E402
    decode_ogg_flac,
    decode_ogg_flac_int,
    encode_ogg_flac,
)
from epichypersketch_jl_ray.functions.webp import (  # noqa: E402
    decode_webp,
    encode_webp_lossless,
)
