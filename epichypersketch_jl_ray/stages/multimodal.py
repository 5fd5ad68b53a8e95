"""Multimodal (image/audio/video) stages: opaque ``binary`` payload columns
with typed metadata, processed by actor-pool map_batches stages.

Decode dispatches on the row's ``mime``:
- REAL decodes with the pure-numpy/stdlib codecs in functions/codecs.py —
  image/bmp (BI_RGB 8/24-bit), image/png (stdlib-zlib DEFLATE + numpy
  unfiltering, 8-bit gray/RGB/palette/RGBA, all five row filters, Adam7
  interlace), image/jpeg (T.81
  table-driven Huffman + matrix IDCT, gray/YCbCr, any declared sampling,
  DRI/RSTn, baseline SOF0/SOF1 AND progressive SOF2 with spectral
  selection / successive approximation / EOB runs), image/gif
  (variable-width LZW, interlace, local palettes), image/webp (lossless
  VP8L: prefix codes, LZ77, color cache, meta-prefix image and all four
  transforms; lossy VP8 raises — that needs libvpx), audio/wav (PCM mono),
  audio/flac (full-spec: fixed+LPC predictors, Rice partitions incl.
  escapes, all stereo decorrelations, CRC+MD5 verified), audio/ogg
  (Ogg-FLAC: RFC 3533 page framing with CRC + packet reassembly across
  pages; Ogg-Vorbis/Opus raise — their codebooks need external libs),
  video/raw-gray8 (concatenated raw frames, ffmpeg's rawvideo layout),
  video/gif (animated GIF89a with patch-frame compositing, transparency
  and disposal 0/1/2), video/avi (MJPEG: RIFF walk + the JPEG codec per
  frame; DHT-less MJPEG raises), video/y4m (YUV4MPEG2 mono/444/420).
- Remaining COMPRESSED formats (MP3/H.264/lossy-WebP) are honest
  NotImplementedError seams — their codec libraries are absent from this
  container; a real deployment loads the codec once per actor in
  ``__init__`` (the reason these stages are callable classes).
- mime */fake is the deterministic byte->float stand-in, enabled by
  ``fake=True``, kept for exercising the compressed-codec seam plumbing.

Schema convention:
    id:int64, payload:binary, mime:string, width:int32, height:int32
decode →  adds pixels:list<float>  (row-major, normalized)
featurize → adds embedding:list<float> (dim-D pooled features)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

def _binary_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, values uint8) of a binary array, honouring the
    array's slice offset — Ray Data slices blocks into batches zero-copy, so
    a batch's array can view the middle of a larger buffer; reading
    buffers()[1] from position 0 would silently return the WRONG rows'
    payload bytes (with uniform payload sizes the length check still
    passes). Same discipline as hashing._string_buffers."""
    t = arr.type
    if pa.types.is_large_binary(t) or pa.types.is_large_string(t):
        off_dtype = np.int64  # large_* variants carry int64 offset buffers
    elif pa.types.is_binary(t) or pa.types.is_string(t):
        off_dtype = np.int32
    else:
        raise TypeError(f"_binary_buffers expects a (large_)binary/string array, got {t}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset)[
        arr.offset :
    ].astype(np.int64)
    values = (
        np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    )
    return offsets, values


IMAGE_SCHEMA = pa.schema(
    [
        ("id", pa.int64()),
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)


def make_fake_image_table(n: int, *, seed: int = 7, side: int = 8) -> pa.Table:
    """Deterministic fixture: payload bytes stand in for an encoded image."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=side * side, dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["image/fake"] * n, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
        }
    )


def make_mixed_image_table(n: int, *, seed: int = 7, side: int = 8) -> pa.Table:
    """Deterministic REAL-format fixture mixing formats the way a scraped
    corpus would: ids cycle grayscale BMP / PNG (through all five row filters
    so every unfilter path runs in production queries, not just unit tests) /
    JPEG alternating baseline and progressive SOF2 (quality=100, so the only
    loss is IDCT rounding) / GIF (alternating sequential and interlaced row
    order) / lossless WebP (VP8L, alternating plain literals and the
    subtract-green + color-cache + LZ77 feature set)."""
    from epichypersketch_jl_ray.functions.codecs import (
        encode_bmp_gray8,
        encode_gif,
        encode_jpeg_baseline,
        encode_jpeg_progressive,
        encode_png,
        encode_webp_lossless,
    )

    rng = np.random.default_rng(seed)
    payloads, mimes = [], []
    for i in range(n):
        px = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
        if i % 5 == 0:
            payloads.append(encode_bmp_gray8(px))
            mimes.append("image/bmp")
        elif i % 5 == 1:
            payloads.append(encode_png(px, filter_type=(i // 5) % 5))
            mimes.append("image/png")
        elif i % 5 == 2:
            enc = encode_jpeg_progressive if i % 10 == 7 else encode_jpeg_baseline
            payloads.append(enc(px, quality=100))
            mimes.append("image/jpeg")
        elif i % 5 == 3:
            payloads.append(encode_gif(px, interlace=bool(i % 10 == 3)))
            mimes.append("image/gif")
        else:
            if i % 10 == 4:
                payloads.append(encode_webp_lossless(px))
            else:
                payloads.append(
                    encode_webp_lossless(
                        px, subtract_green=True, cache_bits=4, use_lz77=True
                    )
                )
            mimes.append("image/webp")
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
        }
    )


class DecodeImage:
    """Actor stage: decode payload bytes -> pixel arrays, dispatching on
    mime (module docstring): image/bmp decodes FOR REAL (pure-numpy BI_RGB
    parser), image/fake is the byte->float stand-in behind ``fake=True``,
    compressed mimes raise the documented codec seam. The per-ITEM loop is
    inherent to decoding variable-size binary blobs (a real codec is
    per-item too); each item's work is vectorized numpy.
    """

    def __init__(self, *, fake: bool = False) -> None:
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from epichypersketch_jl_ray.functions.codecs import (
            decode_bmp,
            decode_gif,
            decode_jpeg,
            decode_png,
            decode_webp,
        )

        payloads = batch["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        mimes = batch["mime"].to_pylist()
        widths = batch["width"].to_numpy(zero_copy_only=False)
        heights = batch["height"].to_numpy(zero_copy_only=False)
        offsets, values = _binary_buffers(payloads)
        parts: list[np.ndarray] = []
        for i, mime in enumerate(mimes):
            blob = values[offsets[i] : offsets[i + 1]]
            if mime in ("image/bmp", "image/png", "image/jpeg", "image/gif", "image/webp"):
                dec = {
                    "image/bmp": decode_bmp,
                    "image/png": decode_png,
                    "image/jpeg": decode_jpeg,
                    "image/gif": decode_gif,
                    "image/webp": decode_webp,
                }
                img = dec[mime](blob)
                if img.shape[0] != heights[i] or img.shape[1] != widths[i]:
                    raise ValueError(
                        f"{mime} header {img.shape[1]}x{img.shape[0]} contradicts "
                        f"metadata {widths[i]}x{heights[i]} for id row {i}"
                    )
                parts.append(img.astype(np.float32).ravel() / 255.0)
            elif mime == "image/fake":
                if not self.fake:
                    raise NotImplementedError(
                        "fake payloads need fake=True (deterministic test decode)"
                    )
                if len(blob) != widths[i] * heights[i]:
                    raise ValueError("payload length does not match width*height")
                parts.append(blob.astype(np.float32) / 255.0)
            else:
                raise NotImplementedError(
                    f"decoding {mime} requires a codec library not present in this "
                    "container (bmp/png/jpeg/gif/lossless-webp decode natively; "
                    "other formats need a codec loaded once per actor here)"
                )
        lengths = np.array([len(p) for p in parts], dtype=np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lengths))).astype(np.int32), pa.int32()),
            pa.array(
                np.concatenate(parts) if parts else np.empty(0, np.float32), pa.float32()
            ),
        )
        return batch.append_column("pixels", lists)


def make_gif_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Deterministic REAL-format fixture: payloads are animated GIF89a
    streams (LZW-compressed grayscale frames) — a compressed video-ish
    format the web actually serves, decoded natively by functions/codecs."""
    from epichypersketch_jl_ray.functions.codecs import encode_gif

    rng = np.random.default_rng(seed)
    payloads = [
        encode_gif(rng.integers(0, 256, size=(frames, side, side), dtype=np.uint8))
        for _ in range(n)
    ]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["video/gif"] * n, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
            "n_frames": pa.array([frames] * n, pa.int32()),
        }
    )


def make_mixed_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Raw-gray8 / animated-GIF / MJPEG-AVI / Y4M payloads interleaved the
    way a scraped corpus mixes containers (ids cycle the four formats).
    MJPEG frames are quality-100 JPEGs (loss limited to IDCT rounding);
    the rest are lossless."""
    from epichypersketch_jl_ray.functions.video import encode_avi_mjpeg, encode_y4m

    raw = make_raw_video_table(n, seed=seed, side=side, frames=frames)
    gif = make_gif_video_table(n, seed=seed + 1, side=side, frames=frames)
    rng = np.random.default_rng(seed + 2)
    stacks = [
        rng.integers(0, 256, size=(frames, side, side), dtype=np.uint8) for _ in range(n)
    ]
    kinds = np.arange(n) % 4
    payloads, mimes = [], []
    for i in range(n):
        if kinds[i] == 2:
            payloads.append(encode_avi_mjpeg(stacks[i], quality=100))
            mimes.append("video/avi")
        elif kinds[i] == 3:
            payloads.append(encode_y4m(stacks[i]))
            mimes.append("video/y4m")
        else:
            payloads.append(b"")
            mimes.append("")
    extra = pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
            "n_frames": pa.array([frames] * n, pa.int32()),
        }
    )
    return pa.concat_tables(
        [
            raw.filter(pa.array(kinds == 0)),
            gif.filter(pa.array(kinds == 1)),
            extra.filter(pa.array(kinds >= 2)),
        ]
    ).sort_by("id")


def make_fake_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Deterministic fixture: payload = ``frames`` concatenated fake frames."""
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 256, size=frames * side * side, dtype=np.uint8).tobytes()
        for _ in range(n)
    ]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["video/fake"] * n, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
            "n_frames": pa.array([frames] * n, pa.int32()),
        }
    )


def make_raw_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Deterministic REAL-format fixture: payload = ``frames`` concatenated
    raw gray8 frames — ffmpeg's rawvideo layout (`-f rawvideo -pix_fmt
    gray`), which IS the decoded representation; no codec involved."""
    t = make_fake_video_table(n, seed=seed, side=side, frames=frames)
    return t.set_column(
        t.schema.get_field_index("mime"),
        "mime",
        pa.array(["video/raw-gray8"] * n, pa.string()),
    )


class FrameSampleVideo:
    """Actor stage: video payload -> every ``stride``-th decoded frame.

    video/raw-gray8 (concatenated raw frames, ffmpeg rawvideo layout)
    decodes FOR REAL — frame extraction is pure offset slicing, exactly
    what the vectorized gather below does. video/gif (animated GIF89a) also
    decodes FOR REAL via the pure-Python LZW decoder in functions/codecs
    (per-item, inherent to an entropy-coded container). Other compressed
    video (H.264/VP9) raises the documented codec seam: a pyav/ffmpeg
    decoder loaded once per actor would seek+decode only the sampled
    frames. video/fake (raw layout, kept for seam tests) needs
    ``fake=True``. Output: one ROW PER SAMPLED FRAME (id, frame_idx,
    pixels) — the flat layout downstream featurize stages consume, and the
    shape that keeps block sizes bounded for long videos.
    """

    def __init__(self, *, stride: int = 8, fake: bool = False) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.fake = fake

    @staticmethod
    def _stack_decoders() -> dict:
        """mime -> (payload bytes -> (n, h, w[, 3]) frame-stack decoder)."""
        from epichypersketch_jl_ray.functions.codecs import decode_gif_frames
        from epichypersketch_jl_ray.functions.video import decode_avi_mjpeg, decode_y4m

        return {
            "video/gif": decode_gif_frames,
            "video/avi": decode_avi_mjpeg,
            "video/y4m": decode_y4m,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        mimes = batch["mime"].to_pylist()
        decoders = self._stack_decoders()
        for mime in set(mimes):
            if mime == "video/raw-gray8" or mime in decoders:
                continue
            if mime == "video/fake":
                if not self.fake:
                    raise NotImplementedError(
                        "fake payloads need fake=True (deterministic test decode)"
                    )
            else:
                raise NotImplementedError(
                    f"decoding {mime} requires a codec library not present in this "
                    "container (raw-gray8, animated GIF, MJPEG-AVI and Y4M decode "
                    "natively; h264/vp9 need pyav/ffmpeg loaded once per actor here)"
                )
        stacked_mimes = sorted({m for m in mimes if m in decoders})
        if stacked_mimes:
            parts = []
            raw_mask = np.array([m not in decoders for m in mimes], dtype=bool)
            if raw_mask.any():
                parts.append(self._raw_frames(batch.filter(pa.array(raw_mask))))
            for mime in stacked_mimes:
                mask = np.array([m == mime for m in mimes], dtype=bool)
                parts.append(
                    self._stacked_frames(batch.filter(pa.array(mask)), decoders[mime])
                )
            return pa.concat_tables(parts)
        return self._raw_frames(batch)

    def _stacked_frames(self, batch: pa.Table, decode_frames) -> pa.Table:
        payloads = batch["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        offsets, values = _binary_buffers(payloads)
        ids = batch["id"].to_numpy(zero_copy_only=False)
        n_frames = batch["n_frames"].to_numpy(zero_copy_only=False)
        out_ids: list[int] = []
        out_fidx: list[int] = []
        parts: list[np.ndarray] = []
        for i in range(len(ids)):
            frames = decode_frames(values[offsets[i] : offsets[i + 1]])
            if len(frames) != n_frames[i]:
                raise ValueError(
                    f"video stream has {len(frames)} frames, metadata says {n_frames[i]}"
                )
            for fidx in range(0, len(frames), self.stride):
                out_ids.append(int(ids[i]))
                out_fidx.append(fidx)
                parts.append(frames[fidx].astype(np.float32).ravel() / 255.0)
        lengths = np.array([len(p) for p in parts], dtype=np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(lengths))).astype(np.int32), pa.int32()),
            pa.array(
                np.concatenate(parts) if parts else np.empty(0, np.float32), pa.float32()
            ),
        )
        return pa.table(
            {
                "id": pa.array(out_ids, pa.int64()),
                "frame_idx": pa.array(out_fidx, pa.int32()),
                "pixels": lists,
            }
        )

    def _raw_frames(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        widths = batch["width"].to_numpy(zero_copy_only=False).astype(np.int64)
        heights = batch["height"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_frames = batch["n_frames"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch["id"].to_numpy(zero_copy_only=False)
        offsets, values = _binary_buffers(payloads)
        frame_bytes = widths * heights
        # vectorized frame sampling: one output row per sampled frame, all
        # gathers as a single fancy-index (a real codec replaces exactly
        # this block with per-frame seek+decode)
        n_sampled = (n_frames + self.stride - 1) // self.stride
        total_rows = int(n_sampled.sum())
        if total_rows == 0:
            return pa.table(
                {
                    "id": pa.array([], pa.int64()),
                    "frame_idx": pa.array([], pa.int32()),
                    "pixels": pa.ListArray.from_arrays(
                        pa.array([0], pa.int32()), pa.array([], pa.float32())
                    ).slice(0, 0),
                }
            )
        row_ids = np.repeat(np.arange(len(ids), dtype=np.int64), n_sampled)
        within = np.arange(total_rows) - np.repeat(
            np.concatenate(([0], np.cumsum(n_sampled)[:-1])), n_sampled
        )
        fidx = within * self.stride
        frame_len = frame_bytes[row_ids]
        starts = offsets[row_ids] + fidx * frame_len
        out_off = np.concatenate(([0], np.cumsum(frame_len)))
        byte_idx = np.repeat(starts, frame_len) + (
            np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], frame_len)
        )
        flat = values[byte_idx].astype(np.float32) / 255.0
        lists = pa.ListArray.from_arrays(
            pa.array(out_off.astype(np.int32)), pa.array(flat, pa.float32())
        )
        return pa.table(
            {
                "id": pa.array(ids[row_ids], pa.int64()),
                "frame_idx": pa.array(fidx.astype(np.int32), pa.int32()),
                "pixels": lists,
            }
        )


def make_fake_audio_table(n: int, *, seed: int = 17, samples: int = 4096) -> pa.Table:
    """Deterministic fixture: payload = fake PCM bytes (1 byte/sample)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=samples, dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["audio/fake"] * n, pa.string()),
            "sample_rate": pa.array([16000] * n, pa.int32()),
            "n_samples": pa.array([samples] * n, pa.int32()),
        }
    )


def make_mixed_audio_table(n: int, *, seed: int = 17, samples: int = 4096, rate: int = 16000) -> pa.Table:
    """Deterministic REAL-format fixture mixing audio the way a scraped
    corpus would: ids cycle WAV-PCM16 / FLAC (alternating best-of-fixed,
    forced-LPC, multi-partition Rice, escape-partition and Ogg-contained
    streams, so every FLAC decode path runs in production queries, not just
    unit tests); WAV rows cycle PCM16 / IMA ADPCM (format 0x11) / G.711
    mu-law (format 7), the telephony-corpus shapes."""
    from epichypersketch_jl_ray.functions.codecs import (
        encode_flac,
        encode_wav_g711,
        encode_wav_ima_adpcm,
        encode_wav_pcm16,
    )
    from epichypersketch_jl_ray.functions.ogg import encode_ogg_flac

    rng = np.random.default_rng(seed)
    t = np.arange(samples)
    payloads, mimes = [], []
    for i in range(n):
        # smooth-ish signal so FLAC's predictors actually engage
        sig = (
            6000 * np.sin(t / (20 + (i % 7) * 9)) + rng.normal(0, 80, samples)
        ).astype(np.int16)
        if i % 2 == 0:
            variant = (i // 2) % 3
            if variant == 2:
                payloads.append(encode_wav_g711(sig, law="mu", sample_rate=rate))
            elif variant == 1:
                payloads.append(encode_wav_ima_adpcm(sig, sample_rate=rate))
            else:
                payloads.append(encode_wav_pcm16(sig, sample_rate=rate))
            mimes.append("audio/wav")
        else:
            variant = (i // 2) % 5
            kw = [
                {},
                {"force_subframe": "lpc"},
                {"partition_order": 2},
                {"rice_escape": True},
                {},
            ][variant]
            if variant == 4:
                # Ogg-contained FLAC, paged small enough that packets span
                # pages (the continuation path runs in production, not just
                # unit tests)
                payloads.append(
                    encode_ogg_flac(sig, sample_rate=rate, block_size=2048, max_page_segments=4)
                )
                mimes.append("audio/ogg")
            else:
                payloads.append(encode_flac(sig, sample_rate=rate, block_size=2048, **kw))
                mimes.append("audio/flac")
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
            "sample_rate": pa.array([rate] * n, pa.int32()),
            "n_samples": pa.array([samples] * n, pa.int32()),
        }
    )


class WindowAudio:
    """Actor stage: audio payload -> fixed-size analysis windows, one row
    per ``window``-sample hop (the flat layout featurize consumes, same
    contract as video frame sampling).

    audio/wav, audio/flac and audio/ogg (Ogg-FLAC) decode FOR REAL
    (pure-numpy RIFF parser — PCM, IEEE float, G.711 and IMA ADPCM
    encodings; full-spec FLAC in functions/flac.py; RFC 3533 Ogg framing in
    functions/ogg.py); audio/fake treats the payload as raw 8-bit samples
    behind ``fake=True``; remaining compressed mimes (mp3, Ogg-Vorbis/Opus)
    raise the documented codec seam.
    """

    def __init__(self, *, window: int = 1024, fake: bool = False) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.fake = fake

    def _decode_samples(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(flat float32 samples, int64 offsets) for the whole batch."""
        from epichypersketch_jl_ray.functions.codecs import decode_flac, decode_wav

        payloads = batch["payload"]
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        offsets, values = _binary_buffers(payloads)
        mimes = batch["mime"].to_pylist()
        parts: list[np.ndarray] = []
        for i, mime in enumerate(mimes):
            blob = values[offsets[i] : offsets[i + 1]]
            if mime == "audio/wav":
                samples, _rate = decode_wav(blob)
                parts.append(samples)
            elif mime in ("audio/flac", "audio/ogg"):
                if mime == "audio/ogg":
                    from epichypersketch_jl_ray.functions.ogg import decode_ogg_flac

                    samples, _rate = decode_ogg_flac(blob)
                else:
                    samples, _rate = decode_flac(blob)
                if samples.ndim != 1:
                    samples = samples.mean(axis=1)  # downmix stereo
                parts.append(samples.astype(np.float32))
            elif mime == "audio/fake":
                if not self.fake:
                    raise NotImplementedError(
                        "fake payloads need fake=True (deterministic test decode)"
                    )
                parts.append(blob.astype(np.float32) / 255.0)
            else:
                raise NotImplementedError(
                    f"decoding {mime} requires an audio library not present in "
                    "this container (wav/flac/ogg-flac decode natively; mp3 and "
                    "Ogg-Vorbis/Opus need soundfile/torchaudio loaded once per "
                    "actor here)"
                )
        lengths = np.array([len(p) for p in parts], dtype=np.int64)
        flat = np.concatenate(parts) if parts else np.empty(0, np.float32)
        return flat, np.concatenate(([0], np.cumsum(lengths)))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        values, offsets = self._decode_samples(batch)
        # vectorized windowing: fixed window size means the whole gather is
        # one (n_out, window) fancy-index over the decoded sample stream
        span_len = np.diff(offsets)
        n_windows = span_len // self.window
        total = int(n_windows.sum())
        if total == 0:
            return pa.table(
                {
                    "id": pa.array([], pa.int64()),
                    "window_idx": pa.array([], pa.int32()),
                    "pixels": pa.ListArray.from_arrays(
                        pa.array([0], pa.int32()), pa.array([], pa.float32())
                    ).slice(0, 0),
                }
            )
        row_ids = np.repeat(np.arange(len(ids), dtype=np.int64), n_windows)
        widx = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(n_windows)[:-1])), n_windows
        )
        starts = offsets[row_ids] + widx * self.window
        flat = values[starts[:, None] + np.arange(self.window)[None, :]].ravel()
        lists = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (total + 1) * self.window, self.window, dtype=np.int32)),
            pa.array(flat, pa.float32()),
        )
        return pa.table(
            {
                "id": pa.array(ids[row_ids], pa.int64()),
                "window_idx": pa.array(widx.astype(np.int32), pa.int32()),
                "pixels": lists,  # generic "samples" column; featurize consumes it
            }
        )


class FeaturizeImage:
    """Actor stage: pixels -> pooled feature vector (deterministic stand-in
    for batched model inference; the model would load in __init__)."""

    def __init__(self, *, dim: int = 16, seed: int = 11) -> None:
        rng = np.random.default_rng(seed)
        self.dim = dim
        self._proj: dict[int, np.ndarray] = {}
        self._seed = seed

    def _projection(self, in_dim: int) -> np.ndarray:
        if in_dim not in self._proj:
            rng = np.random.default_rng((self._seed, in_dim))
            self._proj[in_dim] = rng.standard_normal((in_dim, self.dim)).astype(np.float32)
        return self._proj[in_dim]

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = batch["pixels"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        lengths = np.asarray(arr.value_lengths())
        if len(np.unique(lengths)) != 1:
            raise ValueError("featurize expects uniform pixel counts per batch")
        mat = flat.reshape(len(lengths), int(lengths[0]))
        emb = mat @ self._projection(mat.shape[1])
        lists = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(lengths) + 1) * self.dim, self.dim, dtype=np.int32)),
            pa.array(emb.ravel(), pa.float32()),
        )
        # pass through every identifying column (id, frame_idx, ...)
        out = batch.drop_columns([c for c in ("pixels", "payload", "mime", "width", "height") if c in batch.column_names])
        return out.append_column("embedding", lists)
