"""Pure-numpy codec correctness: BMP and WAV round-trips (bit-exact), edge
cases (row padding, top-down BMP, 24-bit, extra WAV chunks), and the real
multimodal decode path end-to-end."""

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


def test_g711_decode_tables_match_standard_anchors():
    from epichypersketch_jl_ray.functions.codecs import _g711_decode_table

    mu = _g711_decode_table("mu")
    # published mu-law anchor points (transmitted-complement convention):
    # 0xFF -> +0, 0x7F -> -0, 0x00 -> -32124, 0x80 -> +32124
    assert mu[0xFF] == 0
    assert mu[0x7F] == 0
    assert mu[0x00] == -32124 and mu[0x80] == 32124
    assert mu.min() == -32124 and mu.max() == 32124
    a = _g711_decode_table("a")
    # A-law has no zero level; extremes are +/-32256 (13-bit 4032 scaled x8)
    assert 0 not in a
    assert a.min() == -32256 and a.max() == 32256
    assert abs(int(a[0x55 ^ 0x00])) == 8  # wire 0x55 = raw 0x00 = smallest negative
    # both tables are odd-symmetric over magnitudes
    assert sorted(-v for v in mu[mu < 0]) == sorted(v for v in mu[mu > 0])
    assert sorted(-v for v in a[a < 0]) == sorted(v for v in a[a > 0])


def test_g711_encode_decode_involution_and_round_trip():
    from epichypersketch_jl_ray.functions.codecs import (
        _g711_decode_table,
        _g711_encode,
        encode_wav_g711,
    )

    for law in ("mu", "a"):
        table = _g711_decode_table(law)
        cw = np.arange(256, dtype=np.uint8)
        back = _g711_encode(table[cw], law)
        if law == "a":
            np.testing.assert_array_equal(back, cw)
        else:
            # mu-law 0x7F/0xFF are -0/+0: both decode to 0; encode picks one
            keep = table[cw] != 0
            np.testing.assert_array_equal(back[keep], cw[keep])
            assert np.all(table[back[~keep]] == 0)
        # WAV round trip: decoded output must be the exact quantized levels
        rng = np.random.default_rng(9)
        sig = rng.integers(-32768, 32768, 1000).astype(np.int16)
        out, rate = decode_wav(encode_wav_g711(sig, law=law, sample_rate=8000))
        assert rate == 8000
        want = table[_g711_encode(sig, law)].astype(np.float32) / 32768.0
        np.testing.assert_array_equal(out, want)
        # quantization error bounded by the widest segment step (mu: 256*4;
        # a: 1024 at the top segment) -- nearest-level quantization is closer
        # than half a step everywhere
        err = np.abs(out * 32768.0 - sig.astype(np.float32))
        assert err.max() <= (1024 if law == "mu" else 512) + 4


def _ima_reference_decode(blob: bytes, block_align: int, spb: int) -> np.ndarray:
    """Independent scalar IMA ADPCM decoder (straight from the spec text),
    used to pin the vectorized implementation."""
    step_table = [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
        41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
        190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
        724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
        2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
        6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
        16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
    ]
    index_table = [-1, -1, -1, -1, 2, 4, 6, 8]
    out = []
    for b0 in range(0, len(blob), block_align):
        block = blob[b0 : b0 + block_align]
        pred = struct.unpack_from("<h", block, 0)[0]
        index = min(max(block[2], 0), 88)
        out.append(pred)
        nibbles = []
        for byte in block[4:]:
            nibbles.append(byte & 0x0F)
            nibbles.append(byte >> 4)
        for code in nibbles[: spb - 1]:
            step = step_table[index]
            diff = step >> 3
            if code & 1:
                diff += step >> 2
            if code & 2:
                diff += step >> 1
            if code & 4:
                diff += step
            pred = min(max(pred + (-diff if code & 8 else diff), -32768), 32767)
            index = min(max(index + index_table[code & 7], 0), 88)
            out.append(pred)
    return np.array(out, dtype=np.int16)


def test_ima_adpcm_matches_scalar_reference_and_round_trips():
    from epichypersketch_jl_ray.functions.codecs import encode_wav_ima_adpcm

    rng = np.random.default_rng(11)
    t = np.arange(3000)
    sig = (9000 * np.sin(t / 17) + rng.normal(0, 500, len(t))).astype(np.int16)
    blob = encode_wav_ima_adpcm(sig, sample_rate=8000, block_align=256)
    out, rate = decode_wav(blob)
    assert rate == 8000 and len(out) == len(sig)
    # pin the vectorized decoder against the scalar spec transcription
    pos, data = 12, None
    while pos + 8 <= len(blob):
        cid, size = blob[pos : pos + 4], struct.unpack_from("<I", blob, pos + 4)[0]
        if cid == b"data":
            data = blob[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    want = _ima_reference_decode(data, 256, (256 - 4) * 2 + 1)[: len(sig)]
    np.testing.assert_array_equal((out * 32768.0).astype(np.int16), want)
    # ADPCM is lossy but must track the signal: SNR well above 20 dB here
    err = out * 32768.0 - sig.astype(np.float64)
    snr = 10 * np.log10(np.mean(sig.astype(np.float64) ** 2) / np.mean(err**2))
    assert snr > 20.0


def test_ima_adpcm_fact_trim_and_block_independence():
    from epichypersketch_jl_ray.functions.codecs import encode_wav_ima_adpcm

    spb = (64 - 4) * 2 + 1  # 121 samples per 64-byte block
    rng = np.random.default_rng(12)
    # a length that is NOT a multiple of spb: fact chunk must trim the pad
    sig = rng.integers(-20000, 20000, spb + 37).astype(np.int16)
    out, _ = decode_wav(encode_wav_ima_adpcm(sig, block_align=64))
    assert len(out) == len(sig)
    # blocks are self-contained: decoding the second block alone must equal
    # the tail of the full decode
    full = encode_wav_ima_adpcm(sig, block_align=64)
    head = encode_wav_ima_adpcm(sig[:spb], block_align=64)
    out_head, _ = decode_wav(head)
    np.testing.assert_array_equal(out[:spb], out_head)


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
    from epichypersketch_jl_ray.stages.multimodal import DecodeImage

    rng = np.random.default_rng(7)
    images = [rng.integers(0, 256, size=(8, 8), dtype=np.uint8) for _ in range(5)]
    out = DecodeImage()(_bmp_image_table(images))
    arr = out["pixels"]
    for i, want in enumerate(images):
        got = np.asarray(arr[i].as_py(), dtype=np.float32)
        np.testing.assert_allclose(got, want.astype(np.float32).ravel() / 255.0)


def test_decode_image_stage_rejects_compressed_mime():
    from epichypersketch_jl_ray.stages.multimodal import DecodeImage

    tbl = _bmp_image_table([np.zeros((8, 8), np.uint8)], mime="image/avif")
    with pytest.raises(NotImplementedError):
        DecodeImage()(tbl)


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


def test_decode_image_stage_mixed_bmp_png_jpeg_gif_webp():
    from epichypersketch_jl_ray.stages.multimodal import DecodeImage, make_mixed_image_table

    tbl = make_mixed_image_table(20, seed=7, side=8)
    mimes = tbl["mime"].to_pylist()
    assert set(mimes) == {"image/bmp", "image/png", "image/jpeg", "image/gif", "image/webp"}
    out = DecodeImage()(tbl)
    rng = np.random.default_rng(7)  # regenerate the fixture's pixel truth
    for i in range(20):
        want = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        got = np.asarray(out["pixels"][i].as_py(), dtype=np.float32)
        # jpeg is quality=100: loss limited to IDCT rounding (a few LSB)
        atol = 3.0 / 255.0 if mimes[i] == "image/jpeg" else 0.0
        np.testing.assert_allclose(got, want.astype(np.float32).ravel() / 255.0, atol=atol)


def test_window_audio_stage_real_wav_known_samples():
    from epichypersketch_jl_ray.stages.multimodal import WindowAudio

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
    out = WindowAudio(window=512)(tbl)
    assert len(out) == 2 * (2048 // 512)
    got = np.asarray(out["pixels"][0].as_py(), dtype=np.float32)
    np.testing.assert_allclose(got, clips[0][:512].astype(np.float32) / 32768.0)


def test_frame_sample_video_real_raw(ray_session):
    from epichypersketch_jl_ray.stages.multimodal import (
        FrameSampleVideo,
        make_raw_video_table,
    )

    tbl = make_raw_video_table(3, seed=13, side=4, frames=24)
    out = FrameSampleVideo(stride=8)(tbl)  # no fake flag needed: real format
    assert len(out) == 3 * 3  # frames 0, 8, 16 per video
    assert out["frame_idx"].to_pylist() == [0, 8, 16] * 3


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


# --- JPEG (baseline T.81) ----------------------------------------------------


def _psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)


@pytest.mark.parametrize("w,h", [(8, 8), (40, 24), (23, 17), (1, 1), (9, 8)])
def test_jpeg_gray_q100_near_lossless(w, h):
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    rng = np.random.default_rng(w * 100 + h)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg_baseline(px, quality=100))
    assert out.shape == (h, w)
    # quality=100 -> all-ones quant tables; only IDCT float rounding remains
    assert int(np.abs(out.astype(int) - px.astype(int)).max()) <= 3


def test_jpeg_gray_quality_ladder():
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    g = (np.add.outer(np.arange(24), np.arange(40)) * 3 % 256).astype(np.uint8)
    last = 0.0
    for q in (50, 75, 90, 100):
        p = _psnr(g, decode_jpeg(encode_jpeg_baseline(g, quality=q)))
        assert p >= last  # monotone quality
        last = p
    assert last >= 90  # q=100 nearly exact


@pytest.mark.parametrize("subsample", ["444", "420"])
def test_jpeg_rgb_round_trip(subsample):
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    yy, xx = np.meshgrid(np.arange(33), np.arange(47), indexing="ij")
    px = np.stack(
        [np.clip(yy * 3, 0, 255), np.clip(xx * 4, 0, 255), np.clip(120 + yy + xx, 0, 255)],
        axis=-1,
    ).astype(np.uint8)
    out = decode_jpeg(encode_jpeg_baseline(px, quality=95, subsample=subsample))
    assert out.shape == px.shape
    assert _psnr(px, out) >= (50 if subsample == "444" else 40)


def test_jpeg_restart_markers_do_not_change_pixels():
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, size=(24, 40), dtype=np.uint8)
    plain = decode_jpeg(encode_jpeg_baseline(px, quality=90))
    with_rst = decode_jpeg(encode_jpeg_baseline(px, quality=90, restart_interval=2))
    # identical quantized coefficients -> identical decode, RSTs are transparent
    np.testing.assert_array_equal(plain, with_rst)


def test_jpeg_420_restart_markers():
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    yy, xx = np.meshgrid(np.arange(20), np.arange(36), indexing="ij")
    px = np.stack([yy * 6, xx * 5, yy * 3 + xx * 3], axis=-1).astype(np.uint8)
    plain = decode_jpeg(encode_jpeg_baseline(px, quality=90, subsample="420"))
    with_rst = decode_jpeg(
        encode_jpeg_baseline(px, quality=90, subsample="420", restart_interval=1)
    )
    np.testing.assert_array_equal(plain, with_rst)


def test_jpeg_error_paths():
    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
    with pytest.raises(NotImplementedError):  # arithmetic-coded sequential
        decode_jpeg(b"\xff\xd8\xff\xc9" + struct.pack(">H", 8) + bytes(20))
    with pytest.raises(ValueError):  # malformed zero-length segment
        decode_jpeg(b"\xff\xd8\xff\xc2" + bytes(20))
    blob = encode_jpeg_baseline(np.zeros((16, 16), np.uint8), quality=90)
    with pytest.raises(ValueError):  # truncated entropy data
        decode_jpeg(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        encode_jpeg_baseline(np.zeros((0, 4), np.uint8))
    with pytest.raises(ValueError):
        encode_jpeg_baseline(np.zeros((4, 4), np.uint8), quality=0)


def test_jpeg_canonical_huffman_decode_variable_lengths():
    """The decoder's T.81 F.2.2.3 canonical reconstruction on a VARIABLE
    length table (our encoder only emits fixed-length ones): symbols a/b/c/d
    with lengths 1/2/3/3 get codes 0 / 10 / 110 / 111."""
    from epichypersketch_jl_ray.functions.codecs import _BitReader, _build_decode_table

    bits = [1, 1, 2] + [0] * 13
    table = _build_decode_table(bits, [10, 20, 30, 40])
    # stream: 0, 10, 110, 111, 0  -> 0b0101101110 padded to 2 bytes
    br = _BitReader(bytes([0b01011011, 0b10000000]))
    assert [br.huff(table) for _ in range(5)] == [10, 20, 30, 40, 10]


def test_jpeg_fuzz_gray_q100():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        rst=st.sampled_from([0, 1, 3]),
    )
    def case(w, h, seed, rst):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        out = decode_jpeg(encode_jpeg_baseline(px, quality=100, restart_interval=rst))
        assert out.shape == (h, w)
        assert int(np.abs(out.astype(int) - px.astype(int)).max()) <= 3

    case()


def test_jpeg_fuzz_rgb_both_subsamplings():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import decode_jpeg, encode_jpeg_baseline

    @settings(max_examples=15, deadline=None)
    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        seed=st.integers(0, 2**16),
        sub=st.sampled_from(["444", "420"]),
    )
    def case(w, h, seed, sub):
        rng = np.random.default_rng(seed)
        # smooth-ish content: lossy codecs have no per-pixel bound on noise
        base = rng.integers(0, 256, size=(3,), dtype=np.uint8)
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        px = np.stack(
            [np.clip(int(base[c]) + yy * 2 + xx, 0, 255) for c in range(3)], axis=-1
        ).astype(np.uint8)
        out = decode_jpeg(encode_jpeg_baseline(px, quality=97, subsample=sub))
        assert out.shape == px.shape
        assert _psnr(px, out) >= 30

    case()


# --- GIF (LZW, GIF89a) -------------------------------------------------------


@pytest.mark.parametrize("w,h", [(1, 1), (8, 8), (13, 7), (64, 64)])
@pytest.mark.parametrize("interlace", [False, True])
def test_gif_gray_round_trip(w, h, interlace):
    from epichypersketch_jl_ray.functions.codecs import decode_gif, encode_gif

    rng = np.random.default_rng(w * 100 + h)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    out = decode_gif(encode_gif(px, interlace=interlace))
    np.testing.assert_array_equal(out, px)  # LZW is lossless: bit-exact


def test_gif_rgb_round_trip_and_palette_cap():
    from epichypersketch_jl_ray.functions.codecs import decode_gif, encode_gif

    rng = np.random.default_rng(5)
    px = rng.integers(0, 4, size=(16, 16, 3), dtype=np.uint8) * 60
    np.testing.assert_array_equal(decode_gif(encode_gif(px)), px)
    # >256 distinct colors must refuse, not quantize silently
    big = np.arange(257 * 3, dtype=np.uint32).reshape(257, 1, 3).astype(np.uint8)
    big[:, 0, 0] = np.arange(257) % 256
    big[:, 0, 1] = np.arange(257) // 256
    with pytest.raises(ValueError, match="256"):
        encode_gif(big)


def test_gif_lzw_edge_cases():
    """KwKwK codes (constant runs), minimum 2-bit code size, and dictionary
    freeze past 4096 entries (deferred clear) all round-trip bit-exact."""
    from epichypersketch_jl_ray.functions.codecs import decode_gif, encode_gif

    for v in (0, 7, 255):  # constant image: immediate KwKwK case
        px = np.full((32, 32), v, dtype=np.uint8)
        np.testing.assert_array_equal(decode_gif(encode_gif(px)), px)
    px = np.zeros((9, 9, 3), np.uint8)  # 2 colors: mcs floor of 2 bits
    px[::2, ::2] = [10, 200, 30]
    np.testing.assert_array_equal(decode_gif(encode_gif(px)), px)
    rng = np.random.default_rng(3)  # large: >4096 dict entries, 12-bit codes
    px = rng.integers(0, 256, size=(300, 300), dtype=np.uint8)
    np.testing.assert_array_equal(decode_gif(encode_gif(px)), px)


def test_gif_animated_frames_round_trip():
    from epichypersketch_jl_ray.functions.codecs import decode_gif_frames, encode_gif

    rng = np.random.default_rng(11)
    gray = rng.integers(0, 256, size=(5, 8, 8), dtype=np.uint8)
    np.testing.assert_array_equal(decode_gif_frames(encode_gif(gray)), gray)
    rgb = rng.integers(0, 3, size=(4, 6, 6, 3), dtype=np.uint8) * 100
    np.testing.assert_array_equal(decode_gif_frames(encode_gif(rgb)), rgb)


def test_gif_transparency_and_disposal():
    """Hand-built 2-frame stream: frame 2 is a 1x1 patch at (1,1) with a
    transparent pixel at (0,0)-of-patch... exercises patch offsets,
    transparency compositing and restore-to-background disposal."""
    from epichypersketch_jl_ray.functions.codecs import (
        _gif_lzw_encode,
        _gif_subblocks,
        decode_gif_frames,
    )

    pal = bytes([0, 0, 0, 85, 85, 85, 170, 170, 170, 255, 255, 255])  # 4 grays
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", 2, 2)
    out += bytes([0x80 | (7 << 4) | 1, 0, 0])  # GCT of 4, bg index 0
    out += pal
    # frame 1: full 2x2 = [[1,2],[3,0]], disposal 2 (restore to background)
    out += b"\x21\xf9\x04" + bytes([2 << 2]) + b"\x00\x00\x00\x00"
    out += b"\x2c" + struct.pack("<HHHH", 0, 0, 2, 2) + b"\x00\x02"
    out += _gif_subblocks(_gif_lzw_encode(np.array([1, 2, 3, 0], np.uint8), 2))
    # frame 2: 1x1 patch at (1,1), value 3, transparent index 3 -> shows bg
    out += b"\x21\xf9\x04" + bytes([(1 << 2) | 1]) + b"\x00\x00\x03\x00"
    out += b"\x2c" + struct.pack("<HHHH", 1, 1, 1, 1) + b"\x00\x02"
    out += _gif_subblocks(_gif_lzw_encode(np.array([3], np.uint8), 2))
    out.append(0x3B)

    frames = decode_gif_frames(bytes(out))
    assert frames.shape == (2, 2, 2)
    np.testing.assert_array_equal(frames[0], [[85, 170], [255, 0]])
    # disposal 2 cleared frame 1 to bg (0); the transparent patch keeps bg
    np.testing.assert_array_equal(frames[1], [[0, 0], [0, 0]])


def test_gif_error_paths():
    from epichypersketch_jl_ray.functions.codecs import decode_gif, encode_gif

    with pytest.raises(ValueError, match="not a GIF"):
        decode_gif(b"NOPE" + b"\x00" * 20)
    blob = bytearray(encode_gif(np.full((4, 4), 9, np.uint8)))
    blob = blob[: len(blob) - 12]  # chop inside the LZW stream
    with pytest.raises(ValueError):
        decode_gif(bytes(blob))
    with pytest.raises(ValueError, match="empty"):
        encode_gif(np.zeros((0, 4), np.uint8))


def test_gif_round_trip_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import decode_gif, encode_gif

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        interlace=st.booleans(),
        seed=st.integers(0, 2**31),
        levels=st.sampled_from([2, 7, 256]),
    )
    def run(w, h, interlace, seed, levels):
        rng = np.random.default_rng(seed)
        px = (rng.integers(0, levels, size=(h, w)) * (255 // (levels - 1))).astype(np.uint8)
        np.testing.assert_array_equal(decode_gif(encode_gif(px, interlace=interlace)), px)

    run()


def test_frame_sample_video_mixed_containers(ray_session):
    """The mixed raw+GIF+AVI+Y4M video fixture decodes all four container
    paths to the same row layout; every row matches a direct decode of its
    payload (MJPEG within quality-100 IDCT rounding)."""
    from epichypersketch_jl_ray.functions.codecs import decode_gif_frames
    from epichypersketch_jl_ray.functions.video import decode_avi_mjpeg, decode_y4m
    from epichypersketch_jl_ray.stages.multimodal import (
        FrameSampleVideo,
        make_mixed_video_table,
    )

    tbl = make_mixed_video_table(8, seed=13, side=4, frames=24)
    assert tbl["mime"].to_pylist() == [
        "video/raw-gray8", "video/gif", "video/avi", "video/y4m",
    ] * 2
    out = FrameSampleVideo(stride=8)(tbl)
    assert len(out) == 8 * 3
    by_id = {}
    for i in range(len(out)):
        by_id.setdefault(out["id"][i].as_py(), []).append(i)
    decoders = {"video/gif": decode_gif_frames, "video/avi": decode_avi_mjpeg,
                "video/y4m": decode_y4m}
    for row, mime in enumerate(tbl["mime"].to_pylist()):
        if mime not in decoders:
            continue
        frames = decoders[mime](tbl["payload"][row].as_py())
        rid = tbl["id"][row].as_py()
        for j, i in enumerate(sorted(by_id[rid], key=lambda k: out["frame_idx"][k].as_py())):
            assert out["frame_idx"][i].as_py() == j * 8
            got = np.asarray(out["pixels"][i].as_py(), np.float32)
            np.testing.assert_allclose(got, frames[j * 8].astype(np.float32).ravel() / 255.0)


# --- progressive JPEG (SOF2) --------------------------------------------------


@pytest.mark.parametrize(
    "shape,subsample",
    [((16, 16), "444"), ((13, 7), "444"), ((24, 24, 3), "444"), ((24, 24, 3), "420"),
     ((13, 9, 3), "420"), ((20, 8, 3), "420"), ((1, 1), "444")],
)
def test_jpeg_progressive_equals_baseline(shape, subsample):
    """Progressive encoding carries the SAME quantized coefficients as
    baseline, so decode must be bit-identical — this pins every progressive
    scan path (DC first/refine interleaved, AC first/refine per band) against
    the independently-tested sequential path."""
    from epichypersketch_jl_ray.functions.codecs import (
        decode_jpeg,
        encode_jpeg_baseline,
        encode_jpeg_progressive,
    )

    rng = np.random.default_rng(sum(shape))
    px = rng.integers(0, 256, size=shape, dtype=np.uint8)
    for q in (100, 90, 50):
        base = decode_jpeg(encode_jpeg_baseline(px, quality=q, subsample=subsample))
        prog = decode_jpeg(encode_jpeg_progressive(px, quality=q, subsample=subsample))
        np.testing.assert_array_equal(prog, base)


def test_jpeg_progressive_sparse_blocks_eob_runs():
    """Flat / near-flat images make most AC bands all-zero: the EOB-run and
    trailing-correction paths dominate. Also covers newly-nonzero refinement
    coefficients sitting AFTER the last history coefficient."""
    from epichypersketch_jl_ray.functions.codecs import (
        decode_jpeg,
        encode_jpeg_baseline,
        encode_jpeg_progressive,
    )

    flat = np.full((32, 32), 128, np.uint8)
    np.testing.assert_array_equal(
        decode_jpeg(encode_jpeg_progressive(flat, quality=90)),
        decode_jpeg(encode_jpeg_baseline(flat, quality=90)),
    )
    ramp = np.tile(np.arange(32, dtype=np.uint8)[None, :] * 8, (32, 1))
    for q in (100, 75):
        np.testing.assert_array_equal(
            decode_jpeg(encode_jpeg_progressive(ramp, quality=q)),
            decode_jpeg(encode_jpeg_baseline(ramp, quality=q)),
        )


def test_jpeg_progressive_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from epichypersketch_jl_ray.functions.codecs import (
        decode_jpeg,
        encode_jpeg_baseline,
        encode_jpeg_progressive,
    )

    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        rgb=st.booleans(),
        sub=st.sampled_from(["444", "420"]),
        q=st.integers(30, 100),
        seed=st.integers(0, 2**31),
    )
    def run(w, h, rgb, sub, q, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if rgb else (h, w)
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        base = decode_jpeg(encode_jpeg_baseline(px, quality=q, subsample=sub))
        prog = decode_jpeg(encode_jpeg_progressive(px, quality=q, subsample=sub))
        np.testing.assert_array_equal(prog, base)

    run()


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
