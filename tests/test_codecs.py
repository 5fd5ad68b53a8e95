"""Pure-numpy codec correctness: BMP, WAV and PNG round-trips (bit-exact,
all lossless), edge cases (row padding, top-down BMP, 24-bit, extra WAV
chunks, PNG filters/Adam7/palette), and the real multimodal decode path
end-to-end."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from epichypersketch_jl_ray.functions.codecs import (
    decode_bmp,
    decode_wav,
    encode_bmp_gray8,
    encode_wav_pcm16,
)


@pytest.mark.parametrize("w,h", [(8, 8), (5, 3), (1, 1), (7, 2)])
def test_bmp_gray8_round_trip(w, h):
    rng = np.random.default_rng(w * 100 + h)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    blob = encode_bmp_gray8(px)
    out = decode_bmp(blob)
    np.testing.assert_array_equal(out, px)  # bit-exact incl. non-4-divisible widths


def test_bmp_top_down_and_24bit():
    # hand-build a 2x2 top-down 24-bit BMP: negative height, BGR rows
    w, h = 2, 2
    rgb = np.array(
        [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [10, 20, 30]]], dtype=np.uint8
    )
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = rgb[:, :, ::-1].reshape(h, w * 3)  # top-down: no flip
    data_offset = 14 + 40
    header = struct.pack("<2sIHHI", b"BM", data_offset + stride * h, 0, 0, data_offset)
    info = struct.pack("<IiiHHIIiiII", 40, w, -h, 1, 24, 0, stride * h, 0, 0, 0, 0)
    out = decode_bmp(header + info + rows.tobytes())
    np.testing.assert_array_equal(out, rgb)


def test_bmp_rejects_compressed_and_garbage():
    with pytest.raises(ValueError):
        decode_bmp(b"nonsense")
    px = np.zeros((2, 2), dtype=np.uint8)
    blob = bytearray(encode_bmp_gray8(px))
    struct.pack_into("<I", blob, 30, 1)  # compression = BI_RLE8
    with pytest.raises(ValueError):
        decode_bmp(bytes(blob))


def test_wav_pcm16_round_trip_with_extra_chunk():
    rng = np.random.default_rng(3)
    samples = rng.integers(-32768, 32768, size=777).astype(np.int16)
    blob = encode_wav_pcm16(samples, sample_rate=22050)
    # splice an extra LIST chunk between fmt and data to exercise the walk
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
    spliced = blob[:fmt_end] + extra + blob[fmt_end:]
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    out, rate = decode_wav(spliced)
    assert rate == 22050
    np.testing.assert_allclose(out, samples.astype(np.float32) / 32768.0)


def test_wav_rejects_unknown_encoding():
    samples = np.zeros(16, dtype=np.int16)
    blob = bytearray(encode_wav_pcm16(samples))
    struct.pack_into("<H", blob, 20, 2)  # format 2 = MS-ADPCM (unsupported)
    with pytest.raises(ValueError):
        decode_wav(bytes(blob))


def test_wav_stereo_downmixes_to_mono():
    rng = np.random.default_rng(5)
    frames = rng.integers(-30000, 30000, size=(200, 2)).astype(np.int16)
    out, rate = decode_wav(encode_wav_pcm16(frames, sample_rate=44100))
    assert rate == 44100
    want = (frames.astype(np.float32) / 32768.0).mean(axis=1)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-7)


def test_wav_ieee_float32_round_trip():
    from epichypersketch_jl_ray.functions.codecs import _wav_container

    rng = np.random.default_rng(6)
    samples = rng.uniform(-1, 1, 333).astype(np.float32)
    # format 3 = IEEE float, mono, 32-bit
    out, rate = decode_wav(_wav_container(3, 1, 48000, 32, samples.astype("<f4").tobytes()))
    assert rate == 48000
    np.testing.assert_array_equal(out, samples)


def _bmp_image_table(images: list[np.ndarray], mime: str = "image/bmp") -> pa.Table:
    n = len(images)
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "payload": pa.array([encode_bmp_gray8(px) for px in images], pa.binary()),
            "mime": pa.array([mime] * n, pa.string()),
            "width": pa.array([px.shape[1] for px in images], pa.int32()),
            "height": pa.array([px.shape[0] for px in images], pa.int32()),
        }
    )


def test_decode_image_stage_real_bmp_known_pixels():
    from epichypersketch_jl_ray.stages.multimodal import decode_image

    rng = np.random.default_rng(7)
    images = [rng.integers(0, 256, size=(8, 8), dtype=np.uint8) for _ in range(5)]
    out = decode_image(_bmp_image_table(images))
    arr = out["pixels"]
    for i, want in enumerate(images):
        got = np.asarray(arr[i].as_py(), dtype=np.float32)
        np.testing.assert_allclose(got, want.astype(np.float32).ravel() / 255.0)


def test_decode_image_stage_rejects_compressed_mime():
    from epichypersketch_jl_ray.stages.multimodal import decode_image

    tbl = _bmp_image_table([np.zeros((8, 8), np.uint8)], mime="image/avif")
    with pytest.raises(NotImplementedError):
        decode_image(tbl)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_png_gray_round_trip_all_filters(filter_type):
    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    rng = np.random.default_rng(100 + filter_type)
    px = rng.integers(0, 256, size=(11, 7), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(px, filter_type=filter_type)), px)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_png_rgb_round_trip_all_filters(filter_type):
    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    rng = np.random.default_rng(200 + filter_type)
    px = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(px, filter_type=filter_type)), px)


def test_png_rejects_bad_crc_and_structure():
    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    px = np.arange(16, dtype=np.uint8).reshape(4, 4)
    blob = bytearray(encode_png(px))
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"nonsense")
    # corrupt one IDAT payload byte -> CRC check must catch it
    idat_at = bytes(blob).index(b"IDAT")
    blob[idat_at + 4] ^= 0xFF
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(blob))
    # unsupported variant: patch depth to 16 and re-CRC the IHDR so only the
    # depth gate (not the CRC walk) rejects it
    import zlib

    blob = bytearray(encode_png(px))
    ihdr_at = bytes(blob).index(b"IHDR")
    blob[ihdr_at + 4 + 8] = 16
    crc = zlib.crc32(bytes(blob[ihdr_at : ihdr_at + 4 + 13])) & 0xFFFFFFFF
    struct.pack_into(">I", blob, ihdr_at + 4 + 13, crc)
    with pytest.raises(ValueError, match="unsupported PNG"):
        decode_png(bytes(blob))


def test_png_round_trip_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.integers(1, 21),
        h=st.integers(1, 13),
        ft=st.integers(0, 4),
        rgb=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def png_case(w, h, ft, rgb, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if rgb else (h, w)
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(px, filter_type=ft)), px)

    png_case()


def test_decode_image_stage_mixed_bmp_png():
    from epichypersketch_jl_ray.stages.multimodal import decode_image, make_mixed_image_table

    tbl = make_mixed_image_table(40, seed=7, side=8)
    assert tbl["mime"].to_pylist() == ["image/bmp", "image/png"] * 20
    # the PNG rows cycle all five row filters (filter type = byte 0 of the
    # first scanline, after the 8-byte signature + 25-byte IHDR + 8-byte
    # IDAT header, zlib-wrapped)
    import zlib

    filters = [
        zlib.decompress(tbl["payload"][i].as_py()[41:-16])[0] for i in range(1, 40, 2)
    ]
    assert filters == [0, 1, 2, 3, 4] * 4
    out = decode_image(tbl)
    rng = np.random.default_rng(7)  # regenerate the fixture's pixel truth
    for i in range(40):
        want = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        got = np.asarray(out["pixels"][i].as_py(), dtype=np.float32)
        np.testing.assert_array_equal(got, want.astype(np.float32).ravel() / 255.0)


def test_window_audio_stage_mixed_wav():
    from epichypersketch_jl_ray.stages.multimodal import make_mixed_audio_table, window_audio

    tbl = make_mixed_audio_table(8, seed=17, samples=2048)
    assert tbl["mime"].to_pylist() == ["audio/wav"] * 8
    out = window_audio(tbl, window=512)
    assert out.num_rows == 8 * (2048 // 512)
    # regenerate the fixture's ground truth and compare every decoded window
    rng = np.random.default_rng(17)
    t = np.arange(2048)
    for i in range(8):
        sig = (6000 * np.sin(t / (20 + (i % 7) * 9)) + rng.normal(0, 80, 2048)).astype(np.int16)
        rows = [r for r in range(out.num_rows) if out["id"][r].as_py() == i]
        assert [out["window_idx"][r].as_py() for r in rows] == [0, 1, 2, 3]
        got = np.concatenate([np.asarray(out["pixels"][r].as_py(), np.float32) for r in rows])
        np.testing.assert_array_equal(got, sig.astype(np.float32) / 32768.0)


def test_window_audio_stage_real_wav_known_samples():
    from epichypersketch_jl_ray.stages.multimodal import window_audio

    rng = np.random.default_rng(17)
    clips = [rng.integers(-32768, 32768, size=2048).astype(np.int16) for _ in range(2)]
    tbl = pa.table(
        {
            "id": pa.array(range(2), pa.int64()),
            "payload": pa.array([encode_wav_pcm16(c, sample_rate=16000) for c in clips], pa.binary()),
            "mime": pa.array(["audio/wav"] * 2, pa.string()),
            "sample_rate": pa.array([16000] * 2, pa.int32()),
            "n_samples": pa.array([2048] * 2, pa.int32()),
        }
    )
    out = window_audio(tbl, window=512)
    assert len(out) == 2 * (2048 // 512)
    got = np.asarray(out["pixels"][0].as_py(), dtype=np.float32)
    np.testing.assert_allclose(got, clips[0][:512].astype(np.float32) / 32768.0)


def test_frame_sample_video_real_raw(ray_session):
    from epichypersketch_jl_ray.stages.multimodal import (
        frame_sample_video,
        make_raw_video_table,
    )

    tbl = make_raw_video_table(3, seed=13, side=4, frames=24)
    out = frame_sample_video(tbl, stride=8)
    assert len(out) == 3 * 3  # frames 0, 8, 16 per video
    assert out["frame_idx"].to_pylist() == [0, 8, 16] * 3
    # a short payload must not borrow the next row's bytes
    payloads = tbl["payload"].to_pylist()
    payloads[0] = payloads[0][:192]
    with pytest.raises(ValueError, match="id 0"):
        short = tbl.set_column(1, "payload", pa.array(payloads, pa.binary()))
        frame_sample_video(short, stride=8)


def test_frame_sample_video_mixed_containers(ray_session):
    """The mixed raw+Y4M video fixture decodes both container paths to the
    same row layout, and every sampled frame equals the fixture's
    frame truth exactly: id mod 4 picks the raw stream (0: seed, 1: seed + 1,
    2 and 3: seed + 2)."""
    from epichypersketch_jl_ray.stages.multimodal import (
        frame_sample_video,
        make_mixed_video_table,
    )

    tbl = make_mixed_video_table(8, seed=13, side=4, frames=24)
    assert tbl["mime"].to_pylist() == ["video/raw-gray8", "video/y4m"] * 4
    out = frame_sample_video(tbl, stride=8)
    assert len(out) == 8 * 3
    streams = [np.random.default_rng(13 + k) for k in range(3)]
    truth = {k: [g.integers(0, 256, size=(24, 4, 4), dtype=np.uint8) for _ in range(8)]
             for k, g in enumerate(streams)}
    got = {
        (out["id"][r].as_py(), out["frame_idx"][r].as_py()): np.asarray(out["pixels"][r].as_py(), np.float32)
        for r in range(len(out))
    }
    assert set(got) == {(i, f) for i in range(8) for f in (0, 8, 16)}
    for (i, f), px in got.items():
        want = truth[min(i % 4, 2)][i][f]
        np.testing.assert_array_equal(px, want.astype(np.float32).ravel() / 255.0)


def test_bmp_wav_round_trip_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.integers(1, 33),
        h=st.integers(1, 17),
        seed=st.integers(0, 2**16),
    )
    def bmp_case(w, h, seed):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        np.testing.assert_array_equal(decode_bmp(encode_bmp_gray8(px)), px)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 2048), rate=st.sampled_from([8000, 16000, 44100]), seed=st.integers(0, 2**16))
    def wav_case(n, rate, seed):
        rng = np.random.default_rng(seed)
        s = rng.integers(-32768, 32768, size=n).astype(np.int16)
        out, r = decode_wav(encode_wav_pcm16(s, sample_rate=rate))
        assert r == rate
        np.testing.assert_allclose(out, s.astype(np.float32) / 32768.0)

    bmp_case()
    wav_case()


# --- PNG Adam7 / palette / RGBA ------------------------------------------------


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_png_adam7_round_trip_all_filters(filter_type):
    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    rng = np.random.default_rng(300 + filter_type)
    for shape in [(11, 7), (1, 1), (8, 8), (13, 9, 3), (5, 3, 4)]:
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        got = decode_png(encode_png(px, filter_type=filter_type, interlace=True))
        np.testing.assert_array_equal(got, px)


def test_png_palette_and_rgba_round_trip():
    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    rng = np.random.default_rng(42)
    pal = rng.integers(0, 256, size=(200, 3), dtype=np.uint8)
    idx = rng.integers(0, 200, size=(12, 9), dtype=np.uint8)
    for interlace in (False, True):
        got = decode_png(encode_png(idx, palette=pal, interlace=interlace, filter_type=4))
        np.testing.assert_array_equal(got, pal[idx])  # palette resolves to RGB
    rgba = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(rgba, filter_type=2)), rgba)
    with pytest.raises(ValueError, match="out of range"):
        encode_png(np.array([[250]], np.uint8), palette=pal[:100])


def test_png_adam7_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import decode_png, encode_png

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.integers(1, 21),
        h=st.integers(1, 19),
        ft=st.integers(0, 4),
        ch=st.sampled_from([1, 3, 4]),
        seed=st.integers(0, 2**16),
    )
    def run(w, h, ft, ch, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w) if ch == 1 else (h, w, ch)
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        np.testing.assert_array_equal(
            decode_png(encode_png(px, filter_type=ft, interlace=True)), px
        )

    run()
