"""Multimodal (binary-payload) column plumbing.

Media columns are opaque Arrow ``binary`` values with typed metadata
columns beside them. Decode/resize/frame-sample stages are actor-pool
``map_batches`` classes with real Ray plumbing (schema, batch sizing,
actor signatures, output layout).

Six REAL codecs ship with no third-party deps:

* WAV (PCM) via the stdlib ``wave`` module — ``encode_wav`` /
  ``decode_wav`` and the ``DecodeAudio`` actor stage.
* PNG via ``zlib`` + ``struct`` — ``encode_png`` / ``decode_png``
  with all five scanline filters implemented (encoder can apply any
  filter; decoder inverts them vectorized per row), and the
  ``DecodePng`` actor stage.
* JPEG (baseline JFIF) via ``ops/jpeg.py`` — real marker walk,
  DHT-driven Huffman entropy coding, DCT/quantization both
  directions, grayscale + YCbCr 4:4:4.
* BMP (24-bit BI_RGB) via ``struct`` — ``encode_bmp`` /
  ``decode_bmp`` (bottom-up and top-down rows, 4-byte padding).
* GIF (87a/89a) via a real LZW codec both directions —
  ``encode_gif`` / ``decode_gif`` (global/local color tables,
  code-width growth, 4096-entry table resets, sub-block framing).
* Y4M (YUV4MPEG2) video via a real container parse — ``encode_y4m``
  / ``decode_y4m`` (mono and 4:2:0 planar colorspaces), the
  ``DecodeVideo`` actor stage, and REAL frame extraction in
  ``FrameSample`` (Y4M payloads yield actual luma planes).

Remaining stubs: formats that need PIL/opencv/ffmpeg (WEBP/AVIF
images, H.26x/VP9 video). ``DecodeImage`` / ``FrameSample`` dispatch
on magic bytes — PNG / JPEG / BMP / GIF / Y4M payloads decode through
the REAL codecs; other formats raise NotImplementedError unless ``fake=True``
selects the deterministic byte-level fake, which keeps downstream
stages testable.

Batch-size guidance baked into helpers: media rows are wide, so
batches stay small (default 32) and blocks hold few rows — let the
object store spill rather than inflating worker heaps.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),      # image | audio | video
        ("payload", pa.binary()),
        ("meta", pa.string()),      # JSON: {width,height,...}
    ]
)


def synth_media_batch(start: int, stop: int, kind="image", payload_size=4096,
                      seed=42) -> pa.Table:
    """Deterministic fake media rows for plumbing tests."""
    from ..core.mmh3 import hash128_x64

    rows = []
    for i in range(start, stop):
        h = hash128_x64(f"{seed}:media:{i}".encode())[0]
        rng = np.random.RandomState(h % (2**31))
        rows.append(
            {
                "media_id": i,
                "kind": kind,
                "payload": rng.randint(0, 256, payload_size, dtype=np.uint8).tobytes(),
                "meta": '{"n":%d}' % payload_size,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class DecodeImage:
    """Actor-pool stage: binary image payload -> uniform integer
    features ``(media_id, codec, width, height, sum_r, sum_g, sum_b)``.

    Dispatches on MAGIC BYTES per payload: PNG payloads go through the
    REAL zlib/struct codec below (``decode_png``), JPEG payloads
    through the REAL baseline JFIF codec (``ops/jpeg.py`` — marker
    walk, DHT-driven Huffman decode, inverse DCT), BMP through the
    real 24-bit BI_RGB parser, GIF through the real LZW codec and TIFF
    through the real baseline (uncompressed strip) parser, regardless
    of ``fake``. Formats this environment cannot decode (WEBP/AVIF/... —
    no PIL/opencv) raise NotImplementedError at decode time unless
    ``fake=True``, which routes them to the documented deterministic
    byte-level stand-in (codec='fake': width = payload length,
    height = 1, sums = all / even-index / odd-index byte sums — real
    numpy work with the same shape contract, and analytically
    replayable by a SQL oracle)."""

    def __init__(self, fake: bool = False):
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .jpeg import decode_jpeg

        codecs, wds, hts, s_r, s_g, s_b = [], [], [], [], [], []
        for payload in batch["payload"]:
            data = payload.as_py()
            decoded = False
            real = None
            if data[:8] == PNG_SIGNATURE:
                real = ("png", decode_png)
            elif data[:2] == b"\xff\xd8":
                real = ("jpeg", decode_jpeg)
            elif data[:2] == b"BM":
                real = ("bmp", decode_bmp)
            elif data[:6] in (b"GIF87a", b"GIF89a"):
                real = ("gif", decode_gif)
            elif data[:4] in (b"II*\x00", b"MM\x00*"):
                real = ("tiff", decode_tiff)
            if real is not None:
                name, codec_fn = real
                try:
                    img = codec_fn(data)
                except (ValueError, IndexError, struct.error, zlib.error):
                    # corrupt/truncated body behind a valid magic:
                    # with fake=True (keep-everything-decodable mode)
                    # fall through to the byte-level stand-in instead
                    # of killing the whole decode task on one payload
                    if not self.fake:
                        raise
                else:
                    h, w, ch = img.shape
                    sums = img.reshape(-1, ch).astype(np.int64).sum(axis=0)
                    codecs.append(name)
                    wds.append(w)
                    hts.append(h)
                    s_r.append(int(sums[0]))
                    s_g.append(int(sums[1] if ch > 1 else sums[0]))
                    s_b.append(int(sums[2] if ch > 1 else sums[0]))
                    decoded = True
            if decoded:
                continue
            if self.fake:
                arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
                codecs.append("fake")
                wds.append(len(arr))
                hts.append(1)
                s_r.append(int(arr.sum()))
                s_g.append(int(arr[0::2].sum()))
                s_b.append(int(arr[1::2].sum()))
            else:
                raise NotImplementedError(
                    "non-PNG/JPEG/BMP/GIF/TIFF image decode requires "
                    "PIL/opencv, not present in this environment; "
                    "construct with fake=True for the deterministic "
                    "byte-level stand-in"
                )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "codec": pa.array(codecs, type=pa.string()),
                "width": pa.array(wds, type=pa.int64()),
                "height": pa.array(hts, type=pa.int64()),
                "sum_r": pa.array(s_r, type=pa.int64()),
                "sum_g": pa.array(s_g, type=pa.int64()),
                "sum_b": pa.array(s_b, type=pa.int64()),
            }
        )


class FrameSample:
    """Actor-pool stage: N sampled frames per video payload, one
    output row per sampled frame.

    Dispatches on MAGIC BYTES per payload: Y4M (YUV4MPEG2) payloads
    go through the REAL container parse — the ``frame`` column holds
    the actual luma plane of floor-strided frames (frame index
    ``min(fx * max(1, (F-1) // (n_frames-1)), F-1)``: the first frame
    is always sampled; the LAST frame is guaranteed only when
    ``n_frames == 2`` or ``(n_frames - 1)`` divides ``(F - 1)`` —
    otherwise floor striding stops short of it, and when the clamp
    engages the tail indices repeat). Other formats (compressed
    video; no opencv/ffmpeg in this environment) use the documented
    deterministic byte-window stand-in when ``fake=True`` (strided
    fixed-size windows over the raw payload — the same plumbing
    shape; a CORRUPT Y4M-signature payload also falls back rather
    than killing the task), and raise when ``fake=False`` (
    NotImplementedError for foreign formats, ValueError for corrupt
    Y4M)."""

    def __init__(self, n_frames: int = 4, frame_bytes: int = 256, fake: bool = True):
        self.n_frames = n_frames
        self.frame_bytes = frame_bytes
        self.fake = fake

    def _sample_y4m(self, data: bytes):
        _, y, _, _ = decode_y4m(data)
        total = len(y)
        if total == 0:
            return
        stride = max(1, (total - 1) // max(1, self.n_frames - 1))
        for fx in range(self.n_frames):
            ix = min(fx * stride, total - 1)
            yield fx, y[ix].tobytes()

    def _sample_bytes(self, data: bytes):
        if len(data) < self.frame_bytes:
            return
        stride = max(1, (len(data) - self.frame_bytes) // max(1, self.n_frames - 1))
        for fx in range(self.n_frames):
            off = min(fx * stride, len(data) - self.frame_bytes)
            yield fx, data[off : off + self.frame_bytes]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "frame_ix": [], "frame": []}
        for mid, payload in zip(batch["media_id"], batch["payload"]):
            data = payload.as_py()
            if data[:10] == Y4M_SIGNATURE:
                if self.fake:
                    # keep-everything-decodable mode: a corrupt stream
                    # behind a valid magic falls back to the byte
                    # windows instead of killing the whole task
                    try:
                        frames = list(self._sample_y4m(data))
                    except ValueError:
                        frames = self._sample_bytes(data)
                else:
                    frames = self._sample_y4m(data)
            elif self.fake:
                frames = self._sample_bytes(data)
            else:
                raise NotImplementedError(
                    "non-Y4M video decode requires opencv/ffmpeg, not "
                    "present in this environment; construct with fake=True "
                    "for the deterministic byte-window stand-in"
                )
            for fx, blob in frames:
                out["media_id"].append(mid.as_py())
                out["frame_ix"].append(fx)
                out["frame"].append(blob)
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], type=pa.int64()),
                "frame_ix": pa.array(out["frame_ix"], type=pa.int32()),
                "frame": pa.array(out["frame"], type=pa.binary()),
            }
        )


def decode_features(ds, concurrency=2, batch_size=32, fake=True):
    """Generic image decode: PNG payloads through the real codec,
    anything else through the fake stand-in (or NotImplementedError
    with ``fake=False``) — see DecodeImage."""
    return ds.map_batches(
        DecodeImage,
        fn_constructor_kwargs={"fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(ds, n_frames=4, concurrency=2, batch_size=32):
    return ds.map_batches(
        FrameSample,
        fn_constructor_kwargs={"n_frames": n_frames, "fake": True},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# Real WAV codec (stdlib `wave`)


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """16-bit mono PCM WAV bytes from an int16 sample array."""
    import io
    import wave

    samples = np.asarray(samples, dtype=np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes):
    """(sample_rate, int16 sample array) from WAV bytes — a REAL parse
    through the stdlib codec, not a byte-level fake."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        if w.getsampwidth() != 2 or w.getnchannels() != 1:
            raise ValueError(
                "decode_wav handles 16-bit mono PCM; got width=%d channels=%d"
                % (w.getsampwidth(), w.getnchannels())
            )
        rate = w.getframerate()
        frames = w.readframes(w.getnframes())
    return rate, np.frombuffer(frames, dtype=np.int16)


class DecodeAudio:
    """Actor-pool stage: WAV payload -> integer-exact audio features
    (n_samples, sample_rate, peak, trough, sum_abs). Features are
    integers so an external oracle can replay them without float
    drift. Decode is the real stdlib codec."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_s, rate_, peak, trough, sabs = [], [], [], [], []
        for payload in batch["payload"]:
            rate, s = decode_wav(payload.as_py())
            s64 = s.astype(np.int64)
            n_s.append(len(s))
            rate_.append(rate)
            peak.append(int(s64.max()) if len(s) else 0)
            trough.append(int(s64.min()) if len(s) else 0)
            sabs.append(int(np.abs(s64).sum()))
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_samples": pa.array(n_s, type=pa.int64()),
                "sample_rate": pa.array(rate_, type=pa.int64()),
                "peak": pa.array(peak, type=pa.int64()),
                "trough": pa.array(trough, type=pa.int64()),
                "sum_abs": pa.array(sabs, type=pa.int64()),
            }
        )


# ---------------------------------------------------------------------------
# Real PNG codec (zlib + struct; all five scanline filters)


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    )


def _paeth(a, b, c):
    # vectorized Paeth predictor over int16 numpy arrays
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa_, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def encode_png(arr: np.ndarray, filter_type: int = 0) -> bytes:
    """PNG bytes from an (H, W, 3) RGB or (H, W) grayscale uint8 array.

    ``filter_type`` applies the given scanline filter (0=None, 1=Sub,
    2=Up, 3=Average, 4=Paeth) to every row — all five are valid PNG,
    so round-tripping each one exercises the decoder's defiltering."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    if ch not in (1, 3):
        raise ValueError("encode_png supports 1 or 3 channels")
    color_type = 0 if ch == 1 else 2
    bpp = ch
    raw = bytearray()
    prev = np.zeros((w, ch), dtype=np.uint8)
    for y in range(h):
        row = arr[y]
        left = np.vstack([np.zeros((1, ch), np.uint8), row[:-1]])
        upleft = np.vstack([np.zeros((1, ch), np.uint8), prev[:-1]])
        if filter_type == 0:
            f = row
        elif filter_type == 1:
            f = (row.astype(np.int16) - left).astype(np.uint8)
        elif filter_type == 2:
            f = (row.astype(np.int16) - prev).astype(np.uint8)
        elif filter_type == 3:
            f = (
                row.astype(np.int16)
                - ((left.astype(np.int16) + prev.astype(np.int16)) // 2)
            ).astype(np.uint8)
        elif filter_type == 4:
            f = (row.astype(np.int16) - _paeth(left, prev, upleft)).astype(
                np.uint8
            )
        else:
            raise ValueError("filter_type 0-4")
        raw.append(filter_type)
        raw.extend(f.tobytes())
        prev = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _png_chunk(b"IEND", b"")
    )


def decode_png(payload: bytes) -> np.ndarray:
    """(H, W, C) uint8 array from PNG bytes: real chunk walk, zlib
    inflate, and per-row inversion of all five scanline filters
    (vectorized along the row except the inherently sequential Sub/
    Paeth carry, done per-pixel-column in numpy)."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    ihdr = None
    idat = bytearray()
    while pos < len(payload):
        (length,) = struct.unpack_from(">I", payload, pos)
        tag = payload[pos + 4 : pos + 8]
        body = payload[pos + 8 : pos + 8 + length]
        crc = struct.unpack_from(">I", payload, pos + 8 + length)[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc:
            raise ValueError("PNG chunk CRC mismatch in %r" % tag)
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if ihdr is None:
        raise ValueError("missing IHDR")
    w, h, depth, color_type, comp, filt, interlace = ihdr
    if depth != 8 or interlace != 0 or color_type not in (0, 2):
        raise ValueError(
            "decode_png handles 8-bit non-interlaced gray/RGB; got "
            "depth=%d color_type=%d interlace=%d" % (depth, color_type, interlace)
        )
    ch = 1 if color_type == 0 else 3
    raw = zlib.decompress(bytes(idat))
    stride = w * ch
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG data length mismatch")
    out = np.empty((h, w, ch), dtype=np.uint8)
    prev = np.zeros((w, ch), dtype=np.uint8)
    for y in range(h):
        ft = raw[y * (stride + 1)]
        line = np.frombuffer(
            raw, dtype=np.uint8, count=stride, offset=y * (stride + 1) + 1
        ).reshape(w, ch)
        if ft == 0:
            row = line.copy()
        elif ft == 1:
            row = line.copy()
            for x in range(1, w):
                row[x] = row[x] + row[x - 1]
        elif ft == 2:
            row = line + prev
        elif ft == 3:
            row = line.copy()
            row[0] = row[0] + prev[0] // 2
            for x in range(1, w):
                row[x] = row[x] + (
                    (row[x - 1].astype(np.int16) + prev[x].astype(np.int16)) // 2
                ).astype(np.uint8)
        elif ft == 4:
            row = line.copy()
            zero = np.zeros(ch, dtype=np.uint8)
            row[0] = row[0] + _paeth(zero, prev[0], zero)
            for x in range(1, w):
                row[x] = row[x] + _paeth(row[x - 1], prev[x], prev[x - 1])
        else:
            raise ValueError("unknown PNG filter %d" % ft)
        out[y] = row
        prev = row
    return out


class DecodePng:
    """Actor-pool stage: PNG payload -> integer-exact image features
    (width, height, per-channel sums). Decode is the real zlib/struct
    codec above."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        wds, hts, s_r, s_g, s_b = [], [], [], [], []
        for payload in batch["payload"]:
            img = decode_png(payload.as_py())
            h, w, ch = img.shape
            sums = img.reshape(-1, ch).astype(np.int64).sum(axis=0)
            wds.append(w)
            hts.append(h)
            s_r.append(int(sums[0]))
            s_g.append(int(sums[1] if ch > 1 else sums[0]))
            s_b.append(int(sums[2] if ch > 1 else sums[0]))
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(wds, type=pa.int64()),
                "height": pa.array(hts, type=pa.int64()),
                "sum_r": pa.array(s_r, type=pa.int64()),
                "sum_g": pa.array(s_g, type=pa.int64()),
                "sum_b": pa.array(s_b, type=pa.int64()),
            }
        )


# ---------------------------------------------------------------------------
# Real Y4M (YUV4MPEG2) video codec — stdlib text header + raw planes


Y4M_SIGNATURE = b"YUV4MPEG2 "


def encode_y4m(y_frames: np.ndarray, fps=(25, 1), chroma=None) -> bytes:
    """YUV4MPEG2 bytes from luma frames ``(N, H, W)`` uint8.

    With ``chroma=(u, v)`` — each ``(N, H//2, W//2)`` uint8 — emits a
    ``C420jpeg`` stream; without, ``Cmono``. A real container: stream
    header with W/H/F/I/A/C parameters, a ``FRAME`` marker per frame,
    raw planar payload — any Y4M-aware tool (ffmpeg, mpv) plays it."""
    y = np.ascontiguousarray(y_frames, dtype=np.uint8)
    if y.ndim != 3:
        raise ValueError("y_frames must be (n_frames, h, w)")
    n, h, w = y.shape
    if chroma is None:
        cs = "mono"
        planes = [(y[i],) for i in range(n)]
    else:
        u = np.ascontiguousarray(chroma[0], dtype=np.uint8)
        v = np.ascontiguousarray(chroma[1], dtype=np.uint8)
        if h % 2 or w % 2:
            raise ValueError("C420 needs even frame dimensions")
        if u.shape != (n, h // 2, w // 2) or v.shape != u.shape:
            raise ValueError("chroma planes must be (n_frames, h//2, w//2)")
        cs = "420jpeg"
        planes = [(y[i], u[i], v[i]) for i in range(n)]
    head = "YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 C%s\n" % (
        w, h, int(fps[0]), int(fps[1]), cs
    )
    parts = [head.encode("ascii")]
    for pl in planes:
        parts.append(b"FRAME\n")
        parts.extend(p.tobytes() for p in pl)
    return b"".join(parts)


def decode_y4m(payload: bytes):
    """``(meta, y, u, v)`` from YUV4MPEG2 bytes — a REAL stream parse
    (header tokens, FRAME markers, plane sizes from the colorspace),
    not a byte-level fake.

    ``meta`` is ``{width, height, fps_num, fps_den, colorspace,
    n_frames}``; ``y`` is ``(N, H, W)`` uint8; ``u``/``v`` are
    ``(N, H//2, W//2)`` for 4:2:0 streams and ``None`` for mono."""
    if payload[:10] != Y4M_SIGNATURE:
        raise ValueError("not a YUV4MPEG2 stream")
    nl = payload.index(b"\n")
    w = h = None
    fps_num, fps_den = 25, 1
    cs = "420jpeg"  # the Y4M default when the C parameter is absent
    for tok in payload[10:nl].decode("ascii").split():
        key, val = tok[0], tok[1:]
        if key == "W":
            w = int(val)
        elif key == "H":
            h = int(val)
        elif key == "F":
            a, b = val.split(":")
            fps_num, fps_den = int(a), int(b)
        elif key == "C":
            cs = val
        elif key in ("I", "A", "X"):
            pass  # interlacing / aspect / extension — legal, unused here
        else:
            raise ValueError("unknown Y4M header token %r" % tok)
    if w is None or h is None or w <= 0 or h <= 0:
        raise ValueError("Y4M header missing or invalid W/H")
    if cs == "mono":
        chroma_px = 0
    elif cs in ("420", "420jpeg", "420mpeg2", "420paldv"):
        if w % 2 or h % 2:
            raise ValueError("4:2:0 Y4M stream with odd dimensions")
        chroma_px = (w // 2) * (h // 2)
    else:
        raise ValueError("decode_y4m handles mono/4:2:0; got C%s" % cs)
    frame_bytes = w * h + 2 * chroma_px
    pos = nl + 1
    ys, us, vs = [], [], []
    while pos < len(payload):
        fnl = payload.index(b"\n", pos)
        if payload[pos:pos + 5] != b"FRAME":
            raise ValueError("bad FRAME marker at offset %d" % pos)
        pos = fnl + 1  # frame-level params after FRAME are legal; skipped
        if pos + frame_bytes > len(payload):
            raise ValueError("truncated Y4M frame")
        ys.append(np.frombuffer(payload, np.uint8, w * h, pos).reshape(h, w))
        if chroma_px:
            off = pos + w * h
            us.append(
                np.frombuffer(payload, np.uint8, chroma_px, off)
                .reshape(h // 2, w // 2)
            )
            vs.append(
                np.frombuffer(payload, np.uint8, chroma_px, off + chroma_px)
                .reshape(h // 2, w // 2)
            )
        pos += frame_bytes
    meta = {
        "width": w, "height": h, "fps_num": fps_num, "fps_den": fps_den,
        "colorspace": cs, "n_frames": len(ys),
    }
    y_arr = np.stack(ys) if ys else np.empty((0, h, w), np.uint8)
    if not chroma_px:
        return meta, y_arr, None, None
    u_arr = (
        np.stack(us) if us else np.empty((0, h // 2, w // 2), np.uint8)
    )
    v_arr = np.stack(vs) if vs else np.empty_like(u_arr)
    return meta, y_arr, u_arr, v_arr


class DecodeVideo:
    """Actor-pool stage: Y4M payload -> integer-exact video features
    ``(media_id, n_frames, width, height, fps_num, fps_den, sum_luma,
    sum_chroma)``. Decode is the real Y4M container parse above;
    sums are int64-exact so an external oracle can replay them."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        nf, wd, ht, fn, fd, sl, sc = [], [], [], [], [], [], []
        for payload in batch["payload"]:
            meta, y, u, v = decode_y4m(payload.as_py())
            nf.append(meta["n_frames"])
            wd.append(meta["width"])
            ht.append(meta["height"])
            fn.append(meta["fps_num"])
            fd.append(meta["fps_den"])
            sl.append(int(y.astype(np.int64).sum()))
            sc.append(
                0 if u is None
                else int(u.astype(np.int64).sum() + v.astype(np.int64).sum())
            )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_frames": pa.array(nf, type=pa.int64()),
                "width": pa.array(wd, type=pa.int64()),
                "height": pa.array(ht, type=pa.int64()),
                "fps_num": pa.array(fn, type=pa.int64()),
                "fps_den": pa.array(fd, type=pa.int64()),
                "sum_luma": pa.array(sl, type=pa.int64()),
                "sum_chroma": pa.array(sc, type=pa.int64()),
            }
        )


def decode_video_features(ds, concurrency=2, batch_size=32):
    """Y4M payloads -> integer video features via the DecodeVideo pool."""
    return ds.map_batches(
        DecodeVideo,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def decode_audio_features(ds, concurrency=2, batch_size=32):
    """WAV payloads -> integer audio features via the DecodeAudio
    actor pool (real codec; setup-free actors, kept as a pool so the
    stage matches heavier model-decode deployments)."""
    return ds.map_batches(
        DecodeAudio,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def decode_png_features(ds, concurrency=2, batch_size=32):
    """PNG payloads -> integer image features via the DecodePng pool."""
    return ds.map_batches(
        DecodePng,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# REAL BMP codec (24-bit uncompressed BI_RGB) — stdlib struct only


def encode_bmp(arr: np.ndarray) -> bytes:
    """BMP bytes from an (H, W, 3) RGB uint8 array: BITMAPINFOHEADER,
    24-bit BI_RGB, bottom-up rows padded to 4 bytes, BGR order."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("encode_bmp expects (H, W, 3) RGB")
    h, w, _ = arr.shape
    row_len = (w * 3 + 3) & ~3
    pad = row_len - w * 3
    body = bytearray()
    for y in range(h - 1, -1, -1):           # bottom-up
        body.extend(arr[y, :, ::-1].tobytes())   # BGR
        body.extend(b"\x00" * pad)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                      2835, 2835, 0, 0)
    hdr = struct.pack("<2sIHHI", b"BM", 14 + 40 + len(body), 0, 0, 14 + 40)
    return hdr + dib + bytes(body)


def decode_bmp(payload: bytes) -> np.ndarray:
    """(H, W, 3) RGB uint8 from 24-bit BI_RGB BMP bytes (bottom-up or
    top-down). Raises ValueError on other bit depths/compressions."""
    if payload[:2] != b"BM" or len(payload) < 54:
        raise ValueError("not a BMP payload")
    off = struct.unpack_from("<I", payload, 10)[0]
    dib_size = struct.unpack_from("<I", payload, 14)[0]
    if dib_size < 40:
        raise ValueError("unsupported BMP core header")
    w, h = struct.unpack_from("<ii", payload, 18)
    planes, bpp = struct.unpack_from("<HH", payload, 26)
    comp = struct.unpack_from("<I", payload, 30)[0]
    if planes != 1 or bpp != 24 or comp != 0:
        raise ValueError("only 24-bit uncompressed BI_RGB supported")
    top_down = h < 0
    h = abs(h)
    if w <= 0 or h <= 0:
        raise ValueError("bad BMP dimensions")
    row_len = (w * 3 + 3) & ~3
    need = off + row_len * h
    if len(payload) < need:
        raise ValueError("truncated BMP body")
    rows = np.frombuffer(
        payload[off:off + row_len * h], dtype=np.uint8
    ).reshape(h, row_len)[:, : w * 3].reshape(h, w, 3)
    img = rows[:, :, ::-1]                   # BGR -> RGB
    if not top_down:
        img = img[::-1]
    return np.ascontiguousarray(img)


# ---------------------------------------------------------------------------
# REAL GIF codec (GIF87a/89a, global palette, LZW both directions)


def _lzw_compress_gif(data: bytes, min_code_size: int) -> bytes:
    """GIF-variant LZW: emits CLEAR first, grows the code width when
    the next free code fills it, resets the table at 4096."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code, width):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    table = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    code_size = min_code_size + 1
    emit(clear, code_size)
    buf = b""
    for byte in data:
        nb = buf + bytes([byte])
        if nb in table:
            buf = nb
            continue
        emit(table[buf], code_size)
        table[nb] = next_code
        next_code += 1
        # one entry LATER than the decoder's bump: the decoder's table
        # lags the encoder's by exactly one entry (its first code after
        # CLEAR adds nothing), so widths stay in lockstep this way
        if next_code == (1 << code_size) + 1 and code_size < 12:
            code_size += 1
        if next_code == 4096:
            emit(clear, code_size)
            table = {bytes([i]): i for i in range(clear)}
            next_code = eoi + 1
            code_size = min_code_size + 1
        buf = bytes([byte])
    if buf:
        emit(table[buf], code_size)
        # the decoder adds a table entry for this final code too (and
        # may widen) before it reads EOI — mirror that phantom
        # increment or EOI lands at the wrong width exactly when the
        # last code falls on a width boundary
        next_code += 1
        if next_code == (1 << code_size) + 1 and code_size < 12:
            code_size += 1
    emit(eoi, code_size)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decompress_gif(data: bytes, min_code_size: int,
                        expected: int) -> bytes:
    """Inverse of :func:`_lzw_compress_gif`; ``expected`` bounds the
    output so corrupt streams can't balloon."""
    clear = 1 << min_code_size
    eoi = clear + 1
    pos = 0
    acc = 0
    nbits = 0

    def read(width):
        nonlocal pos, acc, nbits
        while nbits < width:
            if pos >= len(data):
                raise ValueError("truncated GIF LZW stream")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        return code

    out = bytearray()
    table = None
    prev = None
    code_size = min_code_size + 1
    next_code = eoi + 1
    while True:
        code = read(code_size)
        if code == clear:
            table = [bytes([i]) for i in range(clear)] + [b"", b""]
            next_code = eoi + 1
            code_size = min_code_size + 1
            prev = None
            continue
        if code == eoi:
            break
        if table is None:
            raise ValueError("GIF LZW data before CLEAR")
        if prev is None:
            if code >= len(table):
                raise ValueError("bad first GIF LZW code")
            out.extend(table[code])
        else:
            if code < next_code and code < len(table):
                entry = table[code]
            elif code == next_code:
                entry = table[prev] + table[prev][:1]
            else:
                raise ValueError("bad GIF LZW code")
            out.extend(entry)
            if next_code < 4096:
                table.append(table[prev] + entry[:1])
                next_code += 1
                if next_code == (1 << code_size) and code_size < 12:
                    code_size += 1
        prev = code
        if len(out) > expected:
            raise ValueError("GIF LZW stream longer than image")
    if len(out) != expected:
        raise ValueError("GIF LZW stream shorter than image")
    return bytes(out)


def encode_gif(indices: np.ndarray, palette: np.ndarray) -> bytes:
    """GIF89a bytes from an (H, W) uint8 palette-index array and an
    (N, 3) uint8 palette (N <= 256): real logical-screen descriptor,
    global color table padded to a power of two, LZW-compressed image
    data in 255-byte sub-blocks."""
    indices = np.asarray(indices, dtype=np.uint8)
    palette = np.asarray(palette, dtype=np.uint8)
    if indices.ndim != 2 or palette.ndim != 2 or palette.shape[1] != 3:
        raise ValueError("encode_gif expects (H, W) indices, (N, 3) palette")
    n = len(palette)
    if not 1 <= n <= 256:
        raise ValueError("palette size 1..256")
    if indices.max(initial=0) >= n:
        raise ValueError("index out of palette range")
    gct_bits = 1
    while (1 << gct_bits) < n:
        gct_bits += 1
    gct = np.zeros((1 << gct_bits, 3), dtype=np.uint8)
    gct[:n] = palette
    h, w = indices.shape
    out = bytearray(b"GIF89a")
    out.extend(struct.pack("<HH", w, h))
    out.append(0x80 | (7 << 4) | (gct_bits - 1))   # GCT flag, size
    out.extend(b"\x00\x00")                        # bg color, aspect
    out.extend(gct.tobytes())
    out.append(0x2C)                               # image descriptor
    out.extend(struct.pack("<HHHH", 0, 0, w, h))
    out.append(0x00)                               # no LCT, sequential
    min_code = max(2, gct_bits)
    out.append(min_code)
    lzw = _lzw_compress_gif(indices.tobytes(), min_code)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i:i + 255]
        out.append(len(chunk))
        out.extend(chunk)
    out.append(0x00)                               # block terminator
    out.append(0x3B)                               # trailer
    return bytes(out)


def decode_gif(payload: bytes) -> np.ndarray:
    """(H, W, 3) RGB uint8 from GIF bytes: header/LSD parse, global
    and local color tables, extension-block skipping, real LZW
    decode of the FIRST image. Raises ValueError on interlaced
    images and malformed streams."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    pos = 6
    if len(payload) < pos + 7:
        raise ValueError("truncated GIF header")
    _sw, _sh = struct.unpack_from("<HH", payload, pos)
    packed = payload[pos + 4]
    pos += 7
    gct = None
    if packed & 0x80:
        size = 2 << (packed & 0x07)
        if len(payload) < pos + size * 3:
            raise ValueError("truncated GIF color table")
        gct = np.frombuffer(
            payload[pos:pos + size * 3], dtype=np.uint8).reshape(size, 3)
        pos += size * 3
    while pos < len(payload):
        block = payload[pos]
        pos += 1
        if block == 0x3B:                          # trailer
            break
        if block == 0x21:                          # extension
            pos += 1                               # label
            while True:
                if pos >= len(payload):
                    raise ValueError("truncated GIF extension")
                ln = payload[pos]
                pos += 1 + ln
                if ln == 0:
                    break
            continue
        if block != 0x2C:
            raise ValueError(f"unknown GIF block 0x{block:02x}")
        if len(payload) < pos + 9:
            raise ValueError("truncated GIF image descriptor")
        _ix, _iy, w, h = struct.unpack_from("<HHHH", payload, pos)
        ipacked = payload[pos + 8]
        pos += 9
        if ipacked & 0x40:
            raise ValueError("interlaced GIF not supported")
        table = gct
        if ipacked & 0x80:
            size = 2 << (ipacked & 0x07)
            if len(payload) < pos + size * 3:
                raise ValueError("truncated GIF local color table")
            table = np.frombuffer(
                payload[pos:pos + size * 3], dtype=np.uint8
            ).reshape(size, 3)
            pos += size * 3
        if table is None:
            raise ValueError("GIF image without a color table")
        if pos >= len(payload):
            raise ValueError("truncated GIF image data")
        min_code = payload[pos]
        pos += 1
        if not 2 <= min_code <= 11:
            raise ValueError("bad GIF LZW minimum code size")
        lzw = bytearray()
        while True:
            if pos >= len(payload):
                raise ValueError("truncated GIF data sub-blocks")
            ln = payload[pos]
            pos += 1
            if ln == 0:
                break
            lzw.extend(payload[pos:pos + ln])
            pos += ln
        idx = np.frombuffer(
            _lzw_decompress_gif(bytes(lzw), min_code, w * h),
            dtype=np.uint8,
        ).reshape(h, w)
        if idx.max(initial=0) >= len(table):
            raise ValueError("GIF index outside color table")
        return np.ascontiguousarray(table[idx])
    raise ValueError("GIF contains no image block")


# ---------------------------------------------------------------------------
# REAL TIFF codec (baseline TIFF 6.0: uncompressed 8-bit grayscale/RGB,
# both byte orders on decode, single-strip little-endian on encode)


def encode_tiff(arr: np.ndarray) -> bytes:
    """TIFF bytes from (H, W, 3) RGB or (H, W) grayscale uint8:
    little-endian ("II"), compression 1 (none), one strip, IFD after
    the pixel data. Reference layout per the public TIFF 6.0 spec."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        h, w = arr.shape
        spp, photometric = 1, 1          # BlackIsZero
    elif arr.ndim == 3 and arr.shape[2] == 3:
        h, w, _ = arr.shape
        spp, photometric = 3, 2          # RGB
    else:
        raise ValueError("encode_tiff expects (H, W) gray or (H, W, 3) RGB")
    data = arr.tobytes()
    pos = 8 + len(data)
    if pos % 2:                          # word-align offsets
        data += b"\x00"
        pos += 1
    bps_off = 0
    extra = b""
    if spp == 3:                         # external BitsPerSample array
        bps_off = pos
        extra = struct.pack("<3H", 8, 8, 8)
        pos += len(extra)
    ifd_off = pos

    def tag(tid, ttype, count, value):
        return struct.pack("<HHI", tid, ttype, count) + struct.pack(
            "<I", value)

    def tag_short(tid, value):           # SHORT payload left-packed
        return struct.pack("<HHIHH", tid, 3, 1, value, 0)

    entries = [
        tag(256, 4, 1, w),
        tag(257, 4, 1, h),
        (tag(258, 3, 3, bps_off) if spp == 3 else tag_short(258, 8)),
        tag_short(259, 1),
        tag_short(262, photometric),
        tag(273, 4, 1, 8),
        tag_short(277, spp),
        tag(278, 4, 1, h),
        tag(279, 4, 1, w * h * spp),
    ]
    ifd = struct.pack("<H", len(entries)) + b"".join(entries) + b"\x00" * 4
    return struct.pack("<2sHI", b"II", 42, ifd_off) + data + extra + ifd


def decode_tiff(payload: bytes) -> np.ndarray:
    """(H, W, 1) grayscale or (H, W, 3) RGB uint8 from baseline TIFF
    bytes: either byte order, uncompressed 8-bit, photometric 1/2,
    multi-strip tolerated. Raises ValueError on compressed, tiled,
    planar or non-8-bit inputs."""
    if len(payload) < 8 or payload[:2] not in (b"II", b"MM"):
        raise ValueError("not a TIFF payload")
    bo = "<" if payload[:2] == b"II" else ">"
    magic, ifd_off = struct.unpack_from(bo + "HI", payload, 2)
    if magic != 42:
        raise ValueError("bad TIFF magic")
    n = struct.unpack_from(bo + "H", payload, ifd_off)[0]
    tags = {}
    for i in range(n):
        off = ifd_off + 2 + 12 * i
        tid, ttype, count = struct.unpack_from(bo + "HHI", payload, off)
        tags[tid] = (ttype, count, off + 8)
    sizes = {1: 1, 3: 2, 4: 4}

    def values(tid, default=None):
        if tid not in tags:
            if default is None:
                raise ValueError(f"TIFF tag {tid} missing")
            return default
        ttype, count, voff = tags[tid]
        if ttype not in sizes:
            raise ValueError(f"unsupported TIFF tag type {ttype}")
        total = sizes[ttype] * count
        if total > 4:
            voff = struct.unpack_from(bo + "I", payload, voff)[0]
        fmt = {1: "B", 3: "H", 4: "I"}[ttype]
        return list(struct.unpack_from(bo + str(count) + fmt, payload, voff))

    w, h = values(256)[0], values(257)[0]
    comp = values(259, [1])[0]
    photometric = values(262)[0]
    spp = values(277, [1])[0]
    bps = values(258, [8] * spp)
    if comp != 1:
        raise ValueError("only uncompressed TIFF supported")
    if any(b != 8 for b in bps) or spp not in (1, 3):
        raise ValueError("only 8-bit gray/RGB TIFF supported")
    if photometric not in (1, 2):
        raise ValueError("unsupported TIFF photometric")
    if 322 in tags or 323 in tags:
        raise ValueError("tiled TIFF unsupported")
    if values(284, [1])[0] != 1:
        raise ValueError("planar TIFF unsupported")
    offs = values(273)
    counts = values(279, [w * h * spp] if len(offs) == 1 else None)
    body = b"".join(payload[o:o + c] for o, c in zip(offs, counts))
    need = w * h * spp
    if len(body) < need:
        raise ValueError("truncated TIFF strips")
    img = np.frombuffer(body[:need], dtype=np.uint8).reshape(h, w, spp)
    return np.ascontiguousarray(img)
