"""Multimodal (image/audio/video) stages: opaque ``binary`` payload columns
with typed metadata, processed by plain per-batch functions (Ray Data task
maps; per-call parameters arrive as keyword arguments, ``fn_kwargs``).

Decode dispatches on the row's ``mime``:
- REAL decodes with the pure-numpy/stdlib codecs in functions/codecs.py —
  image/bmp (BI_RGB 8/24-bit), image/png (stdlib-zlib DEFLATE + numpy
  unfiltering, 8-bit gray/RGB/palette/RGBA, all five row filters, Adam7
  interlace), audio/wav (8/16-bit PCM and float32, multi-channel
  downmixed to mono), video/raw-gray8 (concatenated raw frames, ffmpeg's
  rawvideo layout) and video/y4m (YUV4MPEG2 mono/444/420).
- Every other mime (JPEG, WebP, FLAC, MP3, AVI, H.264, ...) raises
  NotImplementedError: no codec library is installed for it. A real
  deployment would load the codec once per worker process, in a
  module-level memo like ``featurize_image``'s projection cache.

Schema convention:
    id:int64, payload:binary, mime:string, width:int32, height:int32
decode →  adds pixels:list<float>  (row-major, normalized)
featurize → adds embedding:list<float> (dim-D pooled features)
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from epichypersketch_jl_ray.functions.codecs import (
    decode_bmp,
    decode_png,
    decode_wav,
    decode_y4m,
    encode_bmp_gray8,
    encode_png,
    encode_wav_pcm16,
    encode_y4m,
)


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


def make_mixed_image_table(n: int, *, seed: int = 7, side: int = 8) -> pa.Table:
    """Deterministic REAL-format fixture mixing lossless formats the way a
    scraped corpus would: even ids are grayscale BMP, odd ids PNG through
    all five row filters (so every unfilter path runs in production
    queries, not just unit tests)."""
    rng = np.random.default_rng(seed)
    payloads, mimes = [], []
    for i in range(n):
        px = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
        if i % 2 == 0:
            payloads.append(encode_bmp_gray8(px))
            mimes.append("image/bmp")
        else:
            payloads.append(encode_png(px, filter_type=(i // 2) % 5))
            mimes.append("image/png")
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
        }
    )


_IMAGE_DECODERS = {"image/bmp": decode_bmp, "image/png": decode_png}


def decode_image(batch: pa.Table) -> pa.Table:
    """Decode payload bytes -> pixel arrays, dispatching on mime (module
    docstring): image/bmp and image/png decode FOR REAL, every other mime
    raises the documented codec seam. The per-ITEM loop is inherent to
    decoding variable-size binary blobs (a real codec is per-item too);
    each item's work is vectorized numpy.
    """
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
        if mime not in _IMAGE_DECODERS:
            raise NotImplementedError(
                f"decoding {mime} requires a codec library that is not installed "
                "(bmp/png decode natively; other formats "
                "need a codec loaded once per worker here)"
            )
        img = _IMAGE_DECODERS[mime](blob)
        if img.shape[0] != heights[i] or img.shape[1] != widths[i]:
            raise ValueError(
                f"{mime} header {img.shape[1]}x{img.shape[0]} contradicts "
                f"metadata {widths[i]}x{heights[i]} for id row {i}"
            )
        parts.append(img.astype(np.float32).ravel() / 255.0)
    lengths = np.array([len(p) for p in parts], dtype=np.int64)
    lists = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(lengths))).astype(np.int32), pa.int32()),
        pa.array(
            np.concatenate(parts) if parts else np.empty(0, np.float32), pa.float32()
        ),
    )
    return batch.append_column("pixels", lists)


def make_raw_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Deterministic REAL-format fixture: payload = ``frames`` concatenated
    raw gray8 frames — ffmpeg's rawvideo layout (`-f rawvideo -pix_fmt
    gray`), which IS the decoded representation; no codec involved."""
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 256, size=frames * side * side, dtype=np.uint8).tobytes()
        for _ in range(n)
    ]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["video/raw-gray8"] * n, pa.string()),
            "width": pa.array([side] * n, pa.int32()),
            "height": pa.array([side] * n, pa.int32()),
            "n_frames": pa.array([frames] * n, pa.int32()),
        }
    )


def make_mixed_video_table(n: int, *, seed: int = 13, side: int = 4, frames: int = 24) -> pa.Table:
    """Raw-gray8 / Y4M payloads interleaved the way a scraped corpus mixes
    containers, both lossless: even ids are raw, odd ids Cmono Y4M. Ids
    cycle three frame streams by id mod 4 (0: ``seed``, 1: ``seed + 1``, 2
    and 3: ``seed + 2``), each the raw fixture of its seed."""
    streams = [make_raw_video_table(n, seed=seed + k, side=side, frames=frames) for k in range(3)]
    payloads, mimes = [], []
    for i in range(n):
        raw = streams[min(i % 4, 2)]["payload"][i].as_py()
        stack = np.frombuffer(raw, np.uint8).reshape(frames, side, side)
        if i % 2 == 0:
            payloads.append(raw)
            mimes.append("video/raw-gray8")
        else:
            payloads.append(encode_y4m(stack))
            mimes.append("video/y4m")
    t = streams[0]
    t = t.set_column(t.schema.get_field_index("payload"), "payload", pa.array(payloads, pa.binary()))
    return t.set_column(t.schema.get_field_index("mime"), "mime", pa.array(mimes, pa.string()))


# mime -> (payload bytes -> (n, h, w[, 3]) frame stack); video/raw-gray8 is
# sliced in place by _raw_frames
_VIDEO_DECODERS = {"video/y4m": decode_y4m}


def frame_sample_video(batch: pa.Table, *, stride: int = 8) -> pa.Table:
    """Video payload -> every ``stride``-th decoded frame.

    video/raw-gray8 (concatenated raw frames, ffmpeg rawvideo layout)
    decodes FOR REAL — frame extraction is pure offset slicing, exactly
    what the vectorized gather below does. video/y4m (YUV4MPEG2, the
    decoder in functions/codecs) also decodes FOR REAL, one stream at a
    time. Other video (AVI, H.264/VP9)
    raises the documented codec seam: a pyav/ffmpeg decoder loaded once
    per worker would seek+decode only the sampled frames. Output: one ROW
    PER SAMPLED FRAME (id, frame_idx, pixels) — the flat layout downstream
    featurize stages consume, and the shape that keeps block sizes bounded
    for long videos.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    mimes = batch["mime"].to_pylist()
    for mime in set(mimes):
        if mime != "video/raw-gray8" and mime not in _VIDEO_DECODERS:
            raise NotImplementedError(
                f"decoding {mime} requires a codec library that is not installed "
                "(raw-gray8 and Y4M decode natively; avi/h264/vp9 need "
                "pyav/ffmpeg loaded once per worker here)"
            )
    stacked_mimes = sorted({m for m in mimes if m in _VIDEO_DECODERS})
    if stacked_mimes:
        parts = []
        raw_mask = np.array([m not in _VIDEO_DECODERS for m in mimes], dtype=bool)
        if raw_mask.any():
            parts.append(_raw_frames(batch.filter(pa.array(raw_mask)), stride))
        for mime in stacked_mimes:
            mask = np.array([m == mime for m in mimes], dtype=bool)
            parts.append(
                _stacked_frames(batch.filter(pa.array(mask)), _VIDEO_DECODERS[mime], stride)
            )
        return pa.concat_tables(parts)
    return _raw_frames(batch, stride)


def _stacked_frames(batch: pa.Table, decode_frames, stride: int) -> pa.Table:
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
        for fidx in range(0, len(frames), stride):
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


def _raw_frames(batch: pa.Table, stride: int) -> pa.Table:
    payloads = batch["payload"]
    if isinstance(payloads, pa.ChunkedArray):
        payloads = payloads.combine_chunks()
    widths = batch["width"].to_numpy(zero_copy_only=False).astype(np.int64)
    heights = batch["height"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_frames = batch["n_frames"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = batch["id"].to_numpy(zero_copy_only=False)
    offsets, values = _binary_buffers(payloads)
    frame_bytes = widths * heights
    bad = np.flatnonzero(np.diff(offsets) != frame_bytes * n_frames)
    if len(bad):
        raise ValueError(
            f"raw-gray8 payload of id {ids[bad[0]]} is {np.diff(offsets)[bad[0]]} bytes, "
            f"metadata says {n_frames[bad[0]]} frames of {widths[bad[0]]}x{heights[bad[0]]}"
        )
    # vectorized frame sampling: one output row per sampled frame, all
    # gathers as a single fancy-index (a real codec replaces exactly
    # this block with per-frame seek+decode)
    n_sampled = (n_frames + stride - 1) // stride
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
    fidx = within * stride
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


def make_mixed_audio_table(n: int, *, seed: int = 17, samples: int = 4096, rate: int = 16000) -> pa.Table:
    """Deterministic REAL-format fixture: PCM16 WAV clips of a smooth-ish
    signal (a sine whose period cycles with the id, plus Gaussian noise)."""
    rng = np.random.default_rng(seed)
    t = np.arange(samples)
    payloads = []
    for i in range(n):
        sig = (
            6000 * np.sin(t / (20 + (i % 7) * 9)) + rng.normal(0, 80, samples)
        ).astype(np.int16)
        payloads.append(encode_wav_pcm16(sig, sample_rate=rate))
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(["audio/wav"] * n, pa.string()),
            "sample_rate": pa.array([rate] * n, pa.int32()),
            "n_samples": pa.array([samples] * n, pa.int32()),
        }
    )


def window_audio(batch: pa.Table, *, window: int = 1024) -> pa.Table:
    """Audio payload -> fixed-size analysis windows, one row per
    ``window``-sample hop (the flat layout featurize consumes, same
    contract as video frame sampling).

    audio/wav decodes FOR REAL (pure-numpy RIFF parser: 8/16-bit PCM and
    IEEE float32, multi-channel downmixed to mono); every other mime (flac,
    mp3, Ogg-Vorbis/Opus) raises the documented codec seam.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ids = batch["id"].to_numpy(zero_copy_only=False)
    values, offsets = _decode_samples(batch)
    # vectorized windowing: fixed window size means the whole gather is
    # one (n_out, window) fancy-index over the decoded sample stream
    span_len = np.diff(offsets)
    n_windows = span_len // window
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
    starts = offsets[row_ids] + widx * window
    flat = values[starts[:, None] + np.arange(window)[None, :]].ravel()
    lists = pa.ListArray.from_arrays(
        pa.array(np.arange(0, (total + 1) * window, window, dtype=np.int32)),
        pa.array(flat, pa.float32()),
    )
    return pa.table(
        {
            "id": pa.array(ids[row_ids], pa.int64()),
            "window_idx": pa.array(widx.astype(np.int32), pa.int32()),
            "pixels": lists,  # generic "samples" column; featurize consumes it
        }
    )


def _decode_samples(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(flat float32 samples, int64 offsets) for the whole batch."""
    payloads = batch["payload"]
    if isinstance(payloads, pa.ChunkedArray):
        payloads = payloads.combine_chunks()
    offsets, values = _binary_buffers(payloads)
    mimes = batch["mime"].to_pylist()
    parts: list[np.ndarray] = []
    for i, mime in enumerate(mimes):
        if mime != "audio/wav":
            raise NotImplementedError(
                f"decoding {mime} requires an audio library that is not installed "
                "(wav decodes natively; flac, mp3 and Ogg-Vorbis/Opus need "
                "soundfile/torchaudio loaded once per worker here)"
            )
        samples, _rate = decode_wav(values[offsets[i] : offsets[i + 1]])
        parts.append(samples)
    lengths = np.array([len(p) for p in parts], dtype=np.int64)
    flat = np.concatenate(parts) if parts else np.empty(0, np.float32)
    return flat, np.concatenate(([0], np.cumsum(lengths)))


@functools.lru_cache(maxsize=None)
def _projection(seed: int, in_dim: int, dim: int) -> np.ndarray:
    """The seeded (in_dim, dim) float32 projection, built once per worker
    process for each key."""
    rng = np.random.default_rng((seed, in_dim))
    return rng.standard_normal((in_dim, dim)).astype(np.float32)


def featurize_image(batch: pa.Table, *, dim: int = 16, seed: int = 11) -> pa.Table:
    """Pixels -> pooled feature vector (deterministic stand-in for batched
    model inference; a model would load once per worker, as the
    projection is cached)."""
    arr = batch["pixels"]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    lengths = np.asarray(arr.value_lengths())
    if len(np.unique(lengths)) != 1:
        raise ValueError("featurize expects uniform pixel counts per batch")
    mat = flat.reshape(len(lengths), int(lengths[0]))
    emb = mat @ _projection(seed, mat.shape[1], dim)
    lists = pa.ListArray.from_arrays(
        pa.array(np.arange(0, (len(lengths) + 1) * dim, dim, dtype=np.int32)),
        pa.array(emb.ravel(), pa.float32()),
    )
    # pass through every identifying column (id, frame_idx, ...)
    out = batch.drop_columns([c for c in ("pixels", "payload", "mime", "width", "height") if c in batch.column_names])
    return out.append_column("embedding", lists)
