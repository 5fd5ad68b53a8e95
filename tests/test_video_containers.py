"""Y4M (YUV4MPEG2) video container: round trips (bit-exact for Cmono,
BT.601 rounding for C444/C420) and container error paths."""

from __future__ import annotations

import numpy as np
import pytest

from epichypersketch_jl_ray.functions.codecs import decode_y4m, encode_y4m


def _frames(n=6, h=16, w=16, channels=0, seed=3):
    rng = np.random.default_rng(seed)
    shape = (n, h, w) if channels == 0 else (n, h, w, channels)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def test_y4m_mono_bit_exact():
    f = _frames(5, 9, 7)
    data = encode_y4m(f, fps=(30, 1))
    assert data.startswith(b"YUV4MPEG2 W7 H9 F30:1")
    np.testing.assert_array_equal(decode_y4m(data), f)


def test_y4m_444_and_420():
    f = _frames(3, 8, 10, 3)
    out = decode_y4m(encode_y4m(f))  # C444: only RGB<->YCbCr rounding
    assert out.shape == f.shape
    assert np.abs(out.astype(int) - f.astype(int)).max() <= 2
    # C420jpeg: 2x2 chroma subsampling — luma-only content survives exactly
    gray3 = np.repeat(_frames(3, 8, 10)[..., None], 3, axis=3)
    out420 = decode_y4m(encode_y4m(gray3, chroma="420jpeg"))
    assert np.abs(out420.astype(int) - gray3.astype(int)).max() <= 1


def test_y4m_error_paths():
    with pytest.raises(ValueError):
        decode_y4m(b"MPEG4YUV nonsense")
    f = _frames(2, 4, 4)
    data = encode_y4m(f)
    with pytest.raises(ValueError):
        decode_y4m(data[:-5])  # truncated frame
    with pytest.raises(NotImplementedError):
        decode_y4m(b"YUV4MPEG2 W4 H4 F25:1 C411\nFRAME\n" + b"\x00" * 24)
