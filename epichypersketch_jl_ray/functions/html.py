"""Byte-exact html render / extract pair for the webpages table.

The input_hint invariant (BASELINE.json) demands byte-identical extracted
text per url versus the reference extractor. Our fixture generator
(sources/webpages.py) renders ``html`` FROM ``text`` with this fixed
template, and ``extract_text`` inverts it exactly — a pure function of the
bytes (no parser, locale or entity table), so N-vs-4N runs and resumes
produce identical text.

Non-fixture html goes through ``extract_text_generic`` — a pure-function
compiled-regex tag/script/entity stripper with committed byte-exact goldens
(parser libraries like lxml/bs4/trafilatura are absent from this container;
the function signature is the seam where one would plug in).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

_PREFIX = "<html><head><title>"
_MID = "</title></head><body><p>"
_SUFFIX = "</p></body></html>"


def render_html(titles: pa.Array, texts: pa.Array) -> pa.Array:
    """text -> html via the fixed byte-exact template (binary column)."""
    joined = pc.binary_join_element_wise(
        pa.array([_PREFIX] * len(titles)),
        titles,
        pa.array([_MID] * len(titles)),
        texts,
        pa.array([_SUFFIX] * len(titles)),
        "",
    )
    return joined.cast(pa.binary())


def extract_text(html: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Byte-exact inverse of render_html: strip the fixed wrapper.

    Raises ValueError on html that does not match the template (surfacing
    corruption instead of silently emitting wrong text).
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    if len(html) == 0:
        # pc.all over an empty array is null, which would read as a template
        # mismatch; zero rows extract to zero texts
        return pa.array([], pa.string())
    s = html.cast(pa.string())
    ok_prefix = pc.starts_with(s, _PREFIX)
    ok_suffix = pc.ends_with(s, _SUFFIX)
    if not (pc.all(ok_prefix).as_py() and pc.all(ok_suffix).as_py()):
        raise ValueError("html does not match the fixture template")
    # split on the (unique) body marker, then drop the fixed-length suffix —
    # both are vectorized Arrow C++ kernels (no per-byte index arrays).
    # The marker cannot occur inside fixture text (tokens never contain '<').
    parts = pc.split_pattern(s, pattern=_MID, max_splits=1)
    if not pc.all(pc.equal(pc.list_value_length(parts), 2)).as_py():
        raise ValueError("html missing body marker")
    tail = pc.list_element(parts, 1)
    return pc.utf8_slice_codeunits(tail, start=0, stop=-len(_SUFFIX))


# compiled once at import (= once per worker process; a task map pays
# nothing per batch). Order of application is semantic, not cosmetic:
# script/style/comment BLOCKS drop with their contents, block-level tags
# become newlines so words don't fuse across structure, remaining tags
# strip, and only THEN entities decode — so "&lt;script&gt;" stays literal
# text instead of becoming a tag.
_RE_DROP_BLOCK = re.compile(r"(?is)<(script|style)\b[^>]*>.*?</\1\s*>")
_RE_COMMENT = re.compile(r"(?s)<!--.*?-->")
_RE_BLOCK_TAG = re.compile(
    r"(?i)</?(?:p|br|div|li|ul|ol|dl|dt|dd|h[1-6]|tr|table|thead|tbody|td|th|"
    r"section|article|aside|header|footer|nav|blockquote|pre|form|hr|title)\b[^>]*>"
)
_RE_TAG = re.compile(r"(?s)<[^>]*>")
# ONE combined regex decoded in a single re.sub pass: replacement text is
# never rescanned, so "&amp;lt;" AND "&#38;lt;" both decode to the literal
# "&lt;" (a sequential per-entity pass double-decodes the numeric form —
# its substitution yields "&" which a later named pass re-consumes)
_RE_ENTITY = re.compile(
    r"&(?:#x([0-9a-fA-F]{1,6})|#([0-9]{1,7})|(amp|lt|gt|quot|apos|nbsp));"
)
_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": " "}
_RE_HSPACE = re.compile(r"[ \t\r\f\v\u00a0]+")
_RE_VSPACE = re.compile(r" *\n[ \n]*")


def _decode_entities(s: str) -> str:
    def one(m: "re.Match[str]") -> str:
        if m.group(3) is not None:
            return _NAMED[m.group(3)]
        cp = int(m.group(1), 16) if m.group(1) is not None else int(m.group(2))
        return chr(cp) if 0 < cp <= 0x10FFFF and not (0xD800 <= cp <= 0xDFFF) else ""

    return _RE_ENTITY.sub(one, s)


def _strip_one(s: str) -> str:
    s = _RE_DROP_BLOCK.sub(" ", s)
    s = _RE_COMMENT.sub(" ", s)
    s = _RE_BLOCK_TAG.sub("\n", s)
    s = _RE_TAG.sub(" ", s)
    s = _decode_entities(s)
    s = _RE_HSPACE.sub(" ", s)
    s = _RE_VSPACE.sub("\n", s)
    return s.strip()


def extract_text_generic(html: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Generic html→text for NON-fixture html: a pure function of the bytes
    (compiled-regex tag/script/entity stripper — no parser library, no
    locale or time dependence), so N-vs-4N runs and resumes produce
    byte-identical text. Not a DOM parser: malformed nesting degrades to
    extra whitespace, never to an exception. Byte-exact goldens are
    committed (tests/goldens/generic_html_goldens.json); fixture-template
    html should keep using the exact-inverse ``extract_text``.

    Per-row Python by necessity (entity/tag grammar is not an Arrow kernel);
    run it inside a map_batches task map, where the compiled regexes are
    process-wide state.
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    if len(html) == 0:
        return pa.array([], pa.string())
    strings = html.cast(pa.string()).to_pylist()
    return pa.array(
        [None if s is None else _strip_one(s) for s in strings], pa.string()
    )
