"""Vectorized JSON field extraction over Arrow string columns.

Semi-structured event payloads (the events table's ``props`` column) are a
standard web-telemetry shape. Extraction stays inside Arrow C++ kernels
(pyarrow.compute.extract_regex) — no per-row Python json.loads in the hot
path. Scope is deliberately FLAT objects (scalar keys, exactly one brace
pair): that covers the telemetry-aggregation pattern and keeps the kernel
a single regex; nested JSON would need a real parser and is out of scope.
Out-of-scope rows degrade to NULL, never to a wrong value: a non-flat
object (nested braces) yields null EVEN IF the key also exists at top
level — a regex cannot tell the two apart, so null is the safe answer.
For flat objects the result matches SQL
TRY_CAST(json_extract_string(col, '$.field') AS <type>).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc


def _flat_mask(arr: pa.Array) -> pa.Array:
    """True where the row is in the regex's scope: a flat JSON object
    (exactly one '{') with NO backslash escapes anywhere. Nested objects are
    un-parseable by regex; an escaped quote inside a string value (e.g.
    ``{"msg": "x \\"k\\": 42", "k": 7}``) could make the field pattern match
    INSIDE the value and return a wrong answer — so both degrade to null,
    never to a wrong value."""
    return pc.and_(
        pc.equal(pc.count_substring(arr, "{"), 1),
        pc.equal(pc.count_substring(arr, "\\"), 0),
    )


def json_int_field(arr: pa.Array | pa.ChunkedArray, field: str) -> pa.Array:
    """int64 value of an integer field of a FLAT JSON object; null where
    the row is non-flat or the field is absent/non-integer. Matches DuckDB
    TRY_CAST(json_extract_string(col, '$.field') AS BIGINT) on flat
    objects."""
    # extract_regex requires a NAMED group; yields struct<v: string> with
    # null on non-match. The [,}\s] terminator keeps a float like 1.5 from
    # half-matching as integer 1 (RE2 has no lookahead).
    pattern = rf'"{re.escape(field)}"\s*:\s*(?P<v>-?\d+)\s*[,}}]'
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    hit = pc.extract_regex(arr, pattern=pattern)
    out = pc.cast(pc.struct_field(hit, "v"), pa.int64())
    return pc.if_else(_flat_mask(arr), out, pa.nulls(len(arr), pa.int64()))


