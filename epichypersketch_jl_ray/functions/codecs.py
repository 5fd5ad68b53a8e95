"""Pure-numpy/stdlib codecs for the multimodal formats.

BMP (BI_RGB), WAV (PCM) and Y4M are fixed headers plus raw sample bytes,
parseable with struct/numpy alone; PNG rides on stdlib zlib (DEFLATE) with
numpy unfiltering. Raw concatenated gray8 video frames need no codec at all
(stages/multimodal.py slices them). Every other format (JPEG, WebP, FLAC,
MP3, AVI, H.264, ...) is a NotImplementedError seam in stages/multimodal.py:
no codec library is installed to decode it.

Layouts implemented (public file-format specs):
- BMP: 14-byte BITMAPFILEHEADER + 40-byte BITMAPINFOHEADER, BI_RGB only;
  8-bit (palette present but values ARE the gray levels, the common
  grayscale convention) and 24-bit BGR; rows padded to 4 bytes; bottom-up
  (positive height) or top-down (negative height).
- WAV: RIFF/WAVE chunk walk ("fmt " then "data", tolerating extra chunks),
  integer PCM (format 1, 8/16-bit) and IEEE float32 (3); multi-channel
  frames downmix to mono.
- PNG: 8-bit gray/RGB/palette/RGBA, all five row filters, Adam7 interlace.
- Y4M (YUV4MPEG2): Cmono, C444 and C420 planar frames.
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


def decode_wav(payload: bytes | np.ndarray) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes -> (mono float32 samples in [-1, 1), sample_rate).
    Walks the chunk list, so extra chunks (LIST/fact/...) are tolerated.
    Formats: 1 = integer PCM (8/16-bit), 3 = IEEE float32. Multi-channel
    frames are downmixed to mono by averaging (the analysis stages are
    single-channel)."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV payload missing fmt/data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise ValueError("WAV fmt declares zero channels")
    if audio_format == 1 and bits == 16:
        s = np.frombuffer(data, dtype="<i2").astype(np.float32) / 32768.0
    elif audio_format == 1 and bits == 8:
        s = (np.frombuffer(data, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
    elif audio_format == 3 and bits == 32:
        s = np.frombuffer(data, dtype="<f4").astype(np.float32)
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


# --- Y4M (YUV4MPEG2) ---------------------------------------------------------
# The plain-text-header raw-YUV interchange format (``YUV4MPEG2 W.. H.. F..
# C..\n`` then ``FRAME\n`` + planar payload). Cmono round-trips gray
# bit-exact; C444/C420jpeg convert through full-range BT.601 (±1 LSB
# rounding; C420 additionally 2x2 chroma subsampling).


def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    r, g, b = (rgb[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.clip(np.round(np.stack([y, cb, cr], -1)), 0, 255).astype(np.uint8)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = (ycc[..., i].astype(np.float64) for i in range(3))
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], -1)), 0, 255).astype(np.uint8)


def encode_y4m(
    frames: np.ndarray, *, fps: tuple[int, int] = (25, 1), chroma: str | None = None
) -> bytes:
    """uint8 (n, h, w) gray -> Cmono Y4M; (n, h, w, 3) RGB -> C444 (default)
    or C420jpeg (2x2-mean chroma subsampling) Y4M."""
    f = np.asarray(frames, dtype=np.uint8)
    if f.ndim == 3:
        cspace = "mono"
    elif f.ndim == 4 and f.shape[3] == 3:
        cspace = chroma or "444"
        if cspace not in ("444", "420jpeg"):
            raise ValueError("chroma must be '444' or '420jpeg'")
    else:
        raise ValueError("expected (n, h, w) or (n, h, w, 3) uint8 frames")
    n, h, w = f.shape[:3]
    out = bytearray(f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 C{cspace}\n".encode())
    for fr in f:
        out += b"FRAME\n"
        if cspace == "mono":
            out += fr.tobytes()
        else:
            ycc = _rgb_to_ycbcr(fr)
            out += ycc[..., 0].tobytes()
            if cspace == "444":
                out += ycc[..., 1].tobytes()
                out += ycc[..., 2].tobytes()
            else:
                for c in (1, 2):
                    plane = ycc[..., c].astype(np.uint16)
                    sub = (
                        plane[0::2, 0::2] + plane[1::2, 0::2]
                        + plane[0::2, 1::2] + plane[1::2, 1::2] + 2
                    ) >> 2
                    out += sub.astype(np.uint8).tobytes()
    return bytes(out)


def decode_y4m(payload: bytes | np.ndarray) -> np.ndarray:
    """Y4M bytes -> uint8 (n, h, w) gray (Cmono) or (n, h, w, 3) RGB
    (C444 / C420jpeg / C420 / C420mpeg2; chroma upsampled nearest)."""
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
    eol = raw.find(b"\n")
    if eol < 0 or not raw.startswith(b"YUV4MPEG2"):
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = 0
    cspace = "420jpeg"  # the format's default when no C tag is present
    for token in raw[10:eol].decode("latin-1").split():
        if token[0] == "W":
            w = int(token[1:])
        elif token[0] == "H":
            h = int(token[1:])
        elif token[0] == "C":
            cspace = token[1:]
    if w <= 0 or h <= 0:
        raise ValueError("Y4M header missing W/H")
    if cspace == "mono":
        plane_sizes = [(h, w)]
    elif cspace == "444":
        plane_sizes = [(h, w)] * 3
    elif cspace.startswith("420"):
        if h % 2 or w % 2:
            raise ValueError("C420 needs even dimensions")
        plane_sizes = [(h, w), (h // 2, w // 2), (h // 2, w // 2)]
    else:
        raise NotImplementedError(f"Y4M colorspace C{cspace} not supported")
    frame_bytes = sum(ph * pw for ph, pw in plane_sizes)
    pos = eol + 1
    frames: list[np.ndarray] = []
    while pos < len(raw):
        feol = raw.find(b"\n", pos)
        if feol < 0 or not raw.startswith(b"FRAME", pos):
            raise ValueError("bad Y4M FRAME header")
        pos = feol + 1
        if pos + frame_bytes > len(raw):
            raise ValueError("truncated Y4M frame")
        planes = []
        for ph, pw in plane_sizes:
            planes.append(
                np.frombuffer(raw, np.uint8, ph * pw, pos).reshape(ph, pw)
            )
            pos += ph * pw
        if cspace == "mono":
            frames.append(planes[0])
        else:
            y, cb, cr = planes
            if cspace.startswith("420"):
                cb = cb.repeat(2, 0).repeat(2, 1)
                cr = cr.repeat(2, 0).repeat(2, 1)
            frames.append(_ycbcr_to_rgb(np.stack([y, cb, cr], -1)))
    return np.stack(frames)
