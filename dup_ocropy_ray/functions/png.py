"""Minimal PNG codec (no PIL/scipy in this environment).

Replaces the reference's image I/O (reference: ocrolib/common.py:155-214
``read_image_gray`` / ``write_image_gray`` / ``write_image_binary``) with a
self-contained encoder/decoder built on ``zlib`` per the public PNG spec
(RFC 2083). Supports what the engine needs:

- encode: 8-bit grayscale, filter type 0.
- decode: 8-bit grayscale (color type 0) and 8-bit RGB/RGBA (2/6), all
  five PNG scanline filters; RGB is reduced to grayscale by channel mean,
  matching the reference's ``mean(axis=2)`` behavior
  (ocrolib/common.py:155-179).

Images flow through the Ray pipeline as encoded PNG ``binary`` columns and
are decoded to float32 [0,1] arrays only inside map_batches UDFs.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_gray(img: np.ndarray) -> bytes:
    """Encode a 2-D array as an 8-bit grayscale PNG.

    Accepts float arrays in [0,1] (scaled to 0..255) or integer/bool
    arrays (clipped to 0..255; bool -> {0,255}).
    """
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValueError(f"encode_gray wants 2-D, got shape {a.shape}")
    if a.dtype == bool:
        a = a.astype(np.uint8) * 255
    elif np.issubdtype(a.dtype, np.floating):
        a = np.clip(a, 0.0, 1.0)
        a = (a * 255.0 + 0.5).astype(np.uint8)
    else:
        mx = int(a.max()) if a.size else 0
        if mx <= 1:
            a = (a.astype(np.uint8)) * 255
        else:
            a = np.clip(a, 0, 255).astype(np.uint8)
    h, w = a.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    # filter byte 0 per scanline
    raw = np.empty((h, w + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = a
    idat = zlib.compress(raw.tobytes(), 6)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_rgb(img: np.ndarray) -> bytes:
    """uint8 (h, w, 3) -> RGB PNG (color type 2, filter 0)."""
    a = np.asarray(img)
    assert a.ndim == 3 and a.shape[2] == 3, a.shape
    a = a.astype(np.uint8)
    h, w, _ = a.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.concatenate(
        [np.zeros((h, 1), np.uint8), a.reshape(h, w * 3)], axis=1
    ).tobytes()
    return (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )


def encode_segmentation(seg: np.ndarray) -> bytes:
    """int32 label image -> RGB PNG in the reference's disk convention
    (ocrolib/common.py:270-289 write_page_segmentation): label packed as
    24-bit R<<16|G<<8|B, background 0 stored WHITE (0xFFFFFF)."""
    s = np.asarray(seg).astype(np.uint32)
    s = np.where(s == 0, np.uint32(0xFFFFFF), s)
    rgb = np.stack(
        [(s >> 16) & 255, (s >> 8) & 255, s & 255], axis=-1
    ).astype(np.uint8)
    return encode_rgb(rgb)


def decode_segmentation(data: bytes) -> np.ndarray:
    """Inverse of encode_segmentation: RGB PNG -> int32 label image with
    background 0 (white pixels map back to 0, the in-memory convention —
    ocrolib/common.py:236-268 read_page_segmentation)."""
    rgb = decode(data)
    if rgb.ndim == 2:  # grayscale-stored segmentation: treat as B channel
        s = rgb.astype(np.int32)
    else:
        s = (
            (rgb[..., 0].astype(np.int32) << 16)
            | (rgb[..., 1].astype(np.int32) << 8)
            | rgb[..., 2].astype(np.int32)
        )
    s[s == 0xFFFFFF] = 0
    return s


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters. raw: (h, 1+stride) bytes incl. filter byte."""
    if not raw[:, 0].any():
        # every scanline unfiltered (filter 0), as the encoders here write
        return raw[:, 1:].copy()
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ftype = int(raw[y, 0])
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need left-to-right scan
            cur = np.zeros(stride, np.int32)
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                up = prev[x]
                ul = prev[x - bpp] if x >= bpp else 0
                if ftype == 1:
                    pred = left
                elif ftype == 3:
                    pred = (left + up) >> 1
                else:
                    p = left + up - ul
                    pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                    pred = left if (pa <= pb and pa <= pc) else (up if pb <= pc else ul)
                cur[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"unsupported PNG filter {ftype}")
        out[y] = cur.astype(np.uint8)
    return out


def decode(data: bytes) -> np.ndarray:
    """Decode a PNG to a uint8 array: (h,w) gray or (h,w,3|4) color."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    idat = []
    w = h = depth = ctype = None
    interlace = 0
    palette = None
    n = len(data)
    while pos + 8 <= n:
        (ln,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", body)
        elif tag == b"PLTE":
            palette = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    if depth != 8 or interlace != 0:
        raise ValueError(f"unsupported PNG: depth={depth} interlace={interlace}")
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(ctype)
    if channels is None:
        raise ValueError(f"unsupported PNG color type {ctype}")
    stride = w * channels
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    raw = raw.reshape(h, 1 + stride)
    out = _unfilter(raw, h, stride, channels)
    if ctype == 3:
        if palette is None:
            raise ValueError("palette PNG missing PLTE")
        return palette[out.reshape(h, w)]  # indexed -> (h, w, 3)
    if channels == 1:
        return out.reshape(h, w)
    return out.reshape(h, w, channels)


def decode_gray(data: bytes) -> np.ndarray:
    """PNG bytes -> float32 grayscale in [0,1] (channel mean for color),
    matching reference read_image_gray semantics (ocrolib/common.py:155-179)."""
    a = decode(data)
    if a.ndim == 3:
        a = a[..., :3].mean(axis=2)
    return a.astype(np.float32) / np.float32(255.0)


def decode_binary(data: bytes, threshold: float = 0.5) -> np.ndarray:
    """PNG bytes -> {0,1} uint8 array, thresholded at mid-range
    (reference read_image_binary, ocrolib/common.py:194-203)."""
    g = decode_gray(data)
    lo, hi = float(g.min()), float(g.max())
    mid = lo + threshold * (hi - lo) if hi > lo else 0.5
    return (g > mid).astype(np.uint8)
