"""WARC (ISO 28500) source: scraped-web archives -> Ray Dataset.

Web-scale text corpora ship as WARC — Common Crawl alone is ~100 TB of
``.warc.gz`` per monthly snapshot — so an engine aimed at that scale needs
to read it natively. The reference (in-memory dict / parquet only) has no
analogue; this is part of the beyond-reference web-pipeline surface.

Layout handled (both real-world variants):
- plain ``.warc``: concatenated records, each ``WARC/1.x`` header block +
  CRLF CRLF + Content-Length content block + CRLF CRLF;
- ``.warc.gz``: one gzip MEMBER per record (the Common Crawl convention,
  chosen so byte-range access can seek to single records) — stdlib
  ``zlib`` inflates member-by-member; a whole-file single-member gzip also
  decodes (the degenerate one-member case of the same loop);
- ``.warc.zst``: zstd frames (per record or per shard) via pyarrow's
  streaming zstd codec; skippable frames (webrecorder's seekable-index
  convention) are skipped.

For ``response`` records the HTTP message in the content block is split:
status code, headers of interest (Content-Type), and the payload with
``chunked`` transfer-encoding de-chunked — what the html→text stage wants.

Scale shape: ``read_warc`` is ``ray.data.read_binary_files`` (one task per
WARC file — Common Crawl files are ~1 GB gzip, the natural work unit; a
directory of them fans out across the cluster) followed by a flat-map
parse; nothing materializes on the driver. Records stream onward as an
Arrow table of (url, date, content_type, http_status, payload).

A writer exists so tests are self-contained (same strategy as the codec
modules): ``encode_warc`` emits valid records in either layout.
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterable

import numpy as np
import pyarrow as pa

_CRLF2 = b"\r\n\r\n"


# ---------------------------------------------------------------------------
# record-level parse
# ---------------------------------------------------------------------------


_ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"  # RFC 8878 frame magic, little-endian


def _unzstd(raw: bytes) -> bytes:
    """Decompress a zstd stream (.warc.zst layout: concatenated frames, one
    per record or per shard; skippable frames — e.g. webrecorder's seekable
    index — are skipped by the codec) via pyarrow's streaming zstd reader."""
    import pyarrow as pa

    with pa.input_stream(pa.BufferReader(raw), compression="zstd") as f:
        return f.read()


def _gunzip_members(raw: bytes) -> bytes:
    """Inflate a concatenation of gzip members (the .warc.gz layout)."""
    out = io.BytesIO()
    pos = 0
    while pos < len(raw):
        d = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        out.write(d.decompress(raw[pos:]))
        tail = d.unused_data
        if not tail:
            break
        pos = len(raw) - len(tail)
    return out.getvalue()


def _parse_headers(block: bytes) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in block.split(b"\r\n")[1:]:  # first line is the version/status
        if b":" in line:
            k, _, v = line.partition(b":")
            headers[k.strip().decode("latin-1").lower()] = v.strip().decode("latin-1")
    return headers


def _dechunk(body: bytes) -> bytes:
    """Decode HTTP/1.1 chunked transfer-encoding (sizes are hex lines)."""
    out = bytearray()
    pos = 0
    while pos < len(body):
        eol = body.find(b"\r\n", pos)
        if eol < 0:
            break
        size_token = body[pos:eol].split(b";")[0].strip()
        try:
            size = int(size_token, 16)
        except ValueError:
            break
        if size == 0:
            break
        out += body[eol + 2 : eol + 2 + size]
        pos = eol + 2 + size + 2  # skip the chunk's trailing CRLF
    return bytes(out)


def parse_warc(raw: bytes | np.ndarray) -> list[dict]:
    """WARC file bytes (plain, .warc.gz or .warc.zst) -> list of record dicts
    with keys record_id, warc_type, url, date, content_type, http_status,
    payload."""
    data = raw.tobytes() if isinstance(raw, np.ndarray) else bytes(raw)
    if data[:2] == b"\x1f\x8b":
        data = _gunzip_members(data)
    elif data[:4] == _ZSTD_MAGIC or (
        # leading skippable frame: magic 0x184D2A50..0x184D2A5F
        len(data) >= 4 and data[1:4] == b"\x2a\x4d\x18" and 0x50 <= data[0] <= 0x5F
    ):
        data = _unzstd(data)
    records: list[dict] = []
    pos = 0
    n = len(data)
    while pos < n:
        # tolerate inter-record padding
        while pos < n and data[pos : pos + 1] in (b"\r", b"\n"):
            pos += 1
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            raise ValueError(f"expected a WARC version line at byte {pos}")
        hdr_end = data.find(_CRLF2, pos)
        if hdr_end < 0:
            raise ValueError("truncated WARC header block")
        headers = _parse_headers(data[pos:hdr_end])
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            raise ValueError("WARC record missing Content-Length") from None
        body = data[hdr_end + 4 : hdr_end + 4 + length]
        pos = hdr_end + 4 + length
        rec = {
            "record_id": headers.get("warc-record-id", ""),
            "warc_type": headers.get("warc-type", ""),
            "url": headers.get("warc-target-uri", ""),
            "date": headers.get("warc-date", ""),
            "content_type": headers.get("content-type", ""),
            "http_status": -1,
            "payload": body,
        }
        if rec["warc_type"] == "response" and body[:5] == b"HTTP/":
            split = body.find(_CRLF2)
            if split >= 0:
                http_headers = _parse_headers(body[:split])
                status_line = body[: body.find(b"\r\n")].decode("latin-1", "replace")
                parts = status_line.split()
                rec["http_status"] = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else -1
                rec["content_type"] = http_headers.get("content-type", rec["content_type"])
                payload = body[split + 4 :]
                if "chunked" in http_headers.get("transfer-encoding", "").lower():
                    payload = _dechunk(payload)
                if http_headers.get("content-encoding", "").lower() == "gzip":
                    payload = gzip.decompress(payload)
                rec["payload"] = payload
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Ray Dataset reader
# ---------------------------------------------------------------------------

_SCHEMA = pa.schema(
    [
        ("path", pa.string()),
        ("record_id", pa.string()),
        ("warc_type", pa.string()),
        ("url", pa.string()),
        ("date", pa.string()),
        ("content_type", pa.string()),
        ("http_status", pa.int32()),
        ("payload", pa.binary()),
    ]
)


class _ParseWarc:
    """map_batches callable: (bytes, path) rows -> one record row each.
    Plain function semantics, but kept a class so a real deployment can
    hoist per-worker state (e.g. a decompression dictionary) into __init__."""

    def __init__(self, record_types: tuple[str, ...] | None) -> None:
        self.record_types = record_types

    def __call__(self, batch: dict) -> pa.Table:
        cols: dict[str, list] = {name: [] for name in _SCHEMA.names}
        for blob, path in zip(batch["bytes"], batch["path"]):
            for rec in parse_warc(blob):
                if self.record_types and rec["warc_type"] not in self.record_types:
                    continue
                cols["path"].append(path)
                for k in (
                    "record_id",
                    "warc_type",
                    "url",
                    "date",
                    "content_type",
                    "http_status",
                    "payload",
                ):
                    cols[k].append(rec[k])
        return pa.Table.from_pydict(cols, schema=_SCHEMA)


def read_warc(
    paths: str | list[str],
    *,
    record_types: tuple[str, ...] | None = ("response",),
):
    """WARC file(s)/dir -> Dataset of records (see _SCHEMA). One read task
    per file — the Common-Crawl-shaped unit of work; pass a directory of
    .warc.gz shards to fan out across the cluster. ``record_types=None``
    keeps every record (warcinfo/request/metadata included)."""
    import ray.data

    ds = ray.data.read_binary_files(paths, include_paths=True)
    return ds.map_batches(
        _ParseWarc(tuple(record_types) if record_types else None),
        batch_format="numpy",
        batch_size=1,  # a 1 GB gzip member list is already a full task
    )


# ---------------------------------------------------------------------------
# writer (self-contained tests)
# ---------------------------------------------------------------------------


def encode_warc(
    records: Iterable[dict],
    *,
    gzip_per_record: bool = True,
    zstd_per_record: bool = False,
    chunked_every: int = 0,
) -> bytes:
    """Records ({url, payload, http_status?, content_type?, warc_type?,
    record_id?, date?}) -> WARC bytes. ``gzip_per_record`` emits the
    .warc.gz member-per-record layout; ``zstd_per_record`` the .warc.zst
    analogue (one zstd frame per record, which the streaming decode
    concatenates — takes precedence over gzip); ``chunked_every`` > 0 wraps
    every k-th response body in HTTP chunked transfer-encoding (tests the
    de-chunker)."""
    zc = None
    if zstd_per_record:
        import pyarrow as pa

        zc = pa.Codec("zstd")
    out = bytearray()
    for i, rec in enumerate(records):
        payload = bytes(rec["payload"])
        warc_type = rec.get("warc_type", "response")
        if warc_type == "response":
            if chunked_every and i % chunked_every == chunked_every - 1:
                body = b""
                for j in range(0, len(payload), 100):
                    chunk = payload[j : j + 100]
                    body += f"{len(chunk):x}".encode() + b"\r\n" + chunk + b"\r\n"
                body += b"0\r\n\r\n"
                te = b"Transfer-Encoding: chunked\r\n"
            else:
                body, te = payload, b""
            status = rec.get("http_status", 200)
            ctype = rec.get("content_type", "text/html")
            http = (
                f"HTTP/1.1 {status} OK\r\nContent-Type: {ctype}\r\n".encode("latin-1")
                + te
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            block = http
            block_type = b"application/http; msgtype=response"
        else:
            block = payload
            block_type = rec.get("content_type", "application/octet-stream").encode()
        header = (
            b"WARC/1.0\r\n"
            + f"WARC-Type: {warc_type}\r\n".encode()
            + f"WARC-Record-ID: <urn:uuid:{rec.get('record_id', f'rec-{i:06d}')}>\r\n".encode()
            + f"WARC-Date: {rec.get('date', '2026-01-01T00:00:00Z')}\r\n".encode()
            + (f"WARC-Target-URI: {rec['url']}\r\n".encode() if rec.get("url") else b"")
            + b"Content-Type: " + block_type + b"\r\n"
            + f"Content-Length: {len(block)}\r\n\r\n".encode()
        )
        record = header + block + b"\r\n\r\n"
        if zc is not None:
            out += zc.compress(record).to_pybytes()
        elif gzip_per_record:
            out += gzip.compress(record)
        else:
            out += record
    return bytes(out)
