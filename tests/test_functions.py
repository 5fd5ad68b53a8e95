"""Hashing / text / html function tests (determinism, DuckDB-parity
tokenization, byte-identical html round-trip per input_hint)."""

import subprocess
import sys

import duckdb
import numpy as np
import pyarrow as pa

from epichypersketch_jl_ray.functions.hashing import fnv1a64, hash_combine, hash_int64, splitmix64
from epichypersketch_jl_ray.functions.html import extract_text, render_html
from epichypersketch_jl_ray.functions.text import (
    _dedupe_per_row,
    langid_scores,
    ngram_hashes,
    quality_features,
    token_hashes,
    tokenize,
    winnow_fingerprints,
)
from epichypersketch_jl_ray.state.minhash import MinHasher, hamming_distance64, simhash64_batch


def test_fnv1a64_reference_vectors():
    # independently computed FNV-1a 64 + splitmix64 finalizer reference values
    def ref(s):
        h = 0xCBF29CE484222325
        for b in s.encode():
            h = ((h ^ b) * 0x100000001B3) % (1 << 64)
        # splitmix64 finalizer (matches functions/hashing.py)
        m = (1 << 64) - 1
        z = (h + 0x9E3779B97F4A7C15) & m
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
        return z ^ (z >> 31)

    strings = ["", "a", "hello", "hello world", "x" * 300, "héllo"]
    got = fnv1a64(pa.array(strings))
    for s, g in zip(strings, got):
        assert int(g) == ref(s), s


def test_fnv1a64_cross_process_determinism():
    code = (
        "import pyarrow as pa, sys; sys.path.insert(0, '/root/repo');"
        "from epichypersketch_jl_ray.functions.hashing import fnv1a64;"
        "print(fnv1a64(pa.array(['abc','xyzzy'])).tolist())"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout
        for _ in range(2)
    }
    assert len(outs) == 1


def test_tokenize_matches_duckdb_string_split():
    texts = ["a b c", "", "a  b", " lead", "trail ", "one"]
    ours = tokenize(pa.array(texts)).to_pylist()
    theirs = duckdb.sql(
        "select string_split(t, ' ') from (select unnest($1::varchar[]) t)", params=[texts]
    ).fetchall()
    assert ours == [r[0] for r in theirs]


def test_ngram_hashes_counts():
    flat, off = token_hashes(pa.array(["a b c d", "a", "", "x y z"]))
    ng, ng_off = ngram_hashes(flat, off, 3)
    assert np.diff(ng_off).tolist() == [2, 0, 0, 1]
    # identical trigrams hash identically across rows
    flat2, off2 = token_hashes(pa.array(["x y z"]))
    ng2, _ = ngram_hashes(flat2, off2, 3)
    assert ng[-1] == ng2[0]


def test_dedupe_per_row():
    flat = np.array([5, 5, 3, 9, 9, 9], dtype=np.uint64)
    off = np.array([0, 3, 6])
    f2, o2 = _dedupe_per_row(flat, off)
    assert o2.tolist() == [0, 2, 3]
    assert sorted(f2[:2].tolist()) == [3, 5] and f2[2] == 9


def test_html_round_trip_byte_identical():
    texts = ["hello world", "", "with <p> inside? no — only template tags", "a" * 500]
    titles = [f"title-{i}" for i in range(len(texts))]
    html = render_html(pa.array(titles), pa.array(texts))
    back = extract_text(html)
    assert back.to_pylist() == texts
    # byte-identical, not just equal strings
    for orig, got in zip(texts, back.to_pylist()):
        assert orig.encode() == got.encode()


def test_quality_features_match_sql_definitions():
    texts = ["a b a c", "", "x", "w w w w w"]
    qf = quality_features(pa.array(texts))
    rows = duckdb.sql(
        "select length(t), len(string_split(t,' ')), len(list_distinct(string_split(t,' ')))"
        " from (select unnest($1::varchar[]) t)",
        params=[texts],
    ).fetchall()
    assert qf["n_chars"].tolist() == [r[0] for r in rows]
    assert qf["n_tokens"].tolist() == [r[1] for r in rows]
    assert qf["n_uniq_tokens"].tolist() == [r[2] for r in rows]
    # top_token_share: "a b a c" -> 2/4; "" -> 1 token ('') -> 1/1;
    # "x" -> 1/1; "w w w w w" -> 5/5
    assert qf["top_token_share"].tolist() == [0.5, 1.0, 1.0, 1.0]


def test_repetition_features_hand_computed():
    from epichypersketch_jl_ray.functions.text import repetition_features, token_hashes

    texts = pa.array(
        [
            "a b a b a b",  # 'a b' x3 of 5 bigrams; all 4 trigram positions duplicated
            "x x x y",  # 'x x' x2 of 3 bigrams; trigrams unique; run of 3 x's
            "q",  # no bigrams/trigrams; single-token run
            "",  # string_split('') -> [''] : one token
        ]
    )
    rep = repetition_features(*token_hashes(texts))
    assert np.allclose(rep["top_bigram_share"], [3 / 5, 2 / 3, 0.0, 0.0])
    assert np.allclose(rep["dup_trigram_frac"], [1.0, 0.0, 0.0, 0.0])
    assert rep["max_token_run"].tolist() == [1, 3, 1, 1]


def test_repetition_features_match_sql_definitions():
    """Pins the numpy kernels to the exact CTE definitions in doc_stats_sql
    (top bigram count / bigram positions; duplicated-trigram positions /
    trigram positions; gaps-and-islands longest equal-token run)."""
    from epichypersketch_jl_ray.functions.text import repetition_features, token_hashes

    rng = np.random.default_rng(7)
    vocab = ["a", "b", "c", "d"]
    texts = [" ".join(rng.choice(vocab, size=int(n))) for n in rng.integers(1, 30, 40)]
    rep = repetition_features(*token_hashes(pa.array(texts)))
    rows = duckdb.sql(
        """
WITH d AS (SELECT i AS doc_id, string_split(t, ' ') AS toks
           FROM (SELECT unnest($1::varchar[]) t, generate_subscripts($1::varchar[], 1) i)),
bgs AS (SELECT doc_id, toks[i+1] || ' ' || toks[i+2] AS g
        FROM d, LATERAL unnest(range(0, GREATEST(len(toks) - 1, 0))) r(i)),
tgs AS (SELECT doc_id, toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3] AS g
        FROM d, LATERAL unnest(range(0, GREATEST(len(toks) - 2, 0))) r(i)),
topbg AS (SELECT doc_id, max(c) mx FROM
          (SELECT doc_id, g, count(*) c FROM bgs GROUP BY 1,2) GROUP BY 1),
duptg AS (SELECT doc_id, COALESCE(SUM(c) FILTER (WHERE c >= 2), 0) dup FROM
          (SELECT doc_id, g, count(*) c FROM tgs GROUP BY 1,2) GROUP BY 1),
maxrun AS (SELECT doc_id, max(run_len) mr FROM
           (SELECT doc_id, count(*) run_len FROM
            (SELECT doc_id, tok, i - row_number() OVER (PARTITION BY doc_id, tok ORDER BY i) grp
             FROM (SELECT doc_id, i, toks[i+1] tok
                   FROM d, LATERAL unnest(range(0, len(toks))) r(i)))
            GROUP BY doc_id, tok, grp) GROUP BY 1)
SELECT CAST(COALESCE(topbg.mx, 0) AS DOUBLE) / GREATEST(len(toks) - 1, 1),
       CAST(COALESCE(duptg.dup, 0) AS DOUBLE) / GREATEST(len(toks) - 2, 1),
       maxrun.mr
FROM d LEFT JOIN topbg USING (doc_id) LEFT JOIN duptg USING (doc_id)
JOIN maxrun USING (doc_id) ORDER BY d.doc_id
""",
        params=[texts],
    ).fetchall()
    assert rep["top_bigram_share"].tolist() == [r[0] for r in rows]
    assert rep["dup_trigram_frac"].tolist() == [r[1] for r in rows]
    assert rep["max_token_run"].tolist() == [r[2] for r in rows]


def test_langid_heuristic():
    texts = ["the cat and the dog", "der hund und die katze ist", "el gato y la casa es", "zz qq"]
    out = langid_scores(pa.array(texts))
    assert out.tolist() == ["en", "de", "es", "und"]


def test_minhash_jaccard_estimate():
    mh = MinHasher(num_perms=256, seed=4)
    rng = np.random.default_rng(0)
    a = hash_int64(np.arange(0, 1000), seed=5)
    b = hash_int64(np.arange(300, 1300), seed=5)  # true J = 700/1300
    sa, sb = mh.signature(a), mh.signature(b)
    est = (sa == sb).mean()
    assert abs(est - 700 / 1300) < 0.08


def test_minhash_batch_matches_single():
    mh = MinHasher(num_perms=64, seed=9)
    rows = [hash_int64(np.arange(i, i + 20), seed=1) for i in range(5)]
    flat = np.concatenate(rows)
    off = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    batch = mh.signatures(flat, off)
    for i, r in enumerate(rows):
        assert (batch[i] == mh.signature(r)).all()


def test_simhash_similar_docs_close():
    base = hash_int64(np.arange(200), seed=2)
    near = np.concatenate([base[:190], hash_int64(np.arange(1000, 1010), seed=2)])
    far = hash_int64(np.arange(5000, 5200), seed=2)
    flat = np.concatenate([base, near, far])
    off = np.array([0, 200, 400, 600])
    sh = simhash64_batch(flat, off)
    d_near = hamming_distance64(sh[:1], sh[1:2])[0]
    d_far = hamming_distance64(sh[:1], sh[2:3])[0]
    assert d_near < d_far
    assert d_near <= 12


def test_winnow_fingerprints_shift_invariant_overlap():
    a = "the quick brown fox jumps over the lazy dog again and again"
    b = "PREFIX " + a  # same content shifted
    fa, oa = winnow_fingerprints(pa.array([a]))
    fb, ob = winnow_fingerprints(pa.array([b]))
    inter = np.intersect1d(fa, fb).size
    assert inter / max(len(fa), 1) > 0.7


def test_splitmix_and_combine_shapes():
    x = np.arange(10, dtype=np.uint64)
    assert splitmix64(x).shape == (10,)
    assert hash_combine(x, x, x).shape == (10,)
    assert len(np.unique(splitmix64(x))) == 10


def test_hash_strings_fast_trailing_empty():
    """Regression: zero-length string at the buffer end must not read past
    the values buffer, and hashes must be position-independent."""
    import pyarrow as pa

    from epichypersketch_jl_ray.functions.hashing import hash_strings_fast

    a = hash_strings_fast(pa.array(["abc", "de", ""]))
    b = hash_strings_fast(pa.array(["", "abc", "de"]))
    assert a[2] == b[0] and a[0] == b[1] and a[1] == b[2]
    # all-empty array
    c = hash_strings_fast(pa.array(["", ""]))
    assert c[0] == c[1]
    # mixed long/short stays per-string consistent
    d = hash_strings_fast(pa.array(["verylongtokenindeed", ""]))
    assert d[1] == a[2]


_M64 = (1 << 64) - 1


def _splitmix64_ref(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _hash_string_ref(b: bytes) -> int:
    """Per-string byte loop: a <= 8-byte string is its little-endian word
    mixed with its length; a longer one is FNV-1a, finalized."""
    if len(b) <= 8:
        word = int.from_bytes(b, "little")
        return _splitmix64_ref((word + _splitmix64_ref(len(b))) & _M64)
    h = 0xCBF29CE484222325
    for byte in b:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return _splitmix64_ref(h)


def _ref_hashes(arr: pa.Array) -> np.ndarray:
    vals = [v.encode() if isinstance(v, str) else v for v in arr.to_pylist()]
    return np.array([_hash_string_ref(v) for v in vals], dtype=np.uint64)


def test_hash_strings_fast_matches_byte_loop_reference():
    """Pins hash_strings_fast to an independent per-string reference, for
    every short length 0..8, the >8-byte fallback, non-ASCII bytes and the
    buffer layouts a batch can arrive in."""
    from epichypersketch_jl_ray.functions.hashing import hash_strings_fast

    rng = np.random.default_rng(4)
    alphabet = list("abcxyz \u00e9\u4e2d")
    words = ["".join(rng.choice(alphabet, size=n)) for n in range(13) for _ in range(6)]
    words += ["", "a" * 8, "b" * 9, "\u00e9" * 4, "\u00e9" * 5]
    assert {len(w.encode()) for w in words} >= set(range(10))
    base = pa.array(words)
    cases = {
        "string": base,
        "large_string": pa.array(words, pa.large_string()),
        "binary": pa.array([w.encode() for w in words], pa.binary()),
        "sliced": base.slice(5, 40),
        "all_empty": pa.array(["", "", ""]),
        "trailing_empty": pa.array(["abcdefgh", "xy", ""]),
        "short_only": pa.array(["a", "bc", "defghijk"]),
        "long_only": pa.array(["abcdefghi", "0123456789abcdef"]),
        "empty_array": pa.array([], pa.string()),
        "chunked": pa.chunked_array([base.slice(0, 30), base.slice(30)]),
    }
    for name, arr in cases.items():
        flat = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        got = hash_strings_fast(arr)
        assert got.dtype == np.uint64, name
        assert np.array_equal(got, _ref_hashes(flat)), name
    assert base.slice(5, 40).offset == 5


def test_json_int_field_flat_and_missing():
    import pyarrow as pa

    from epichypersketch_jl_ray.functions.json import json_int_field

    arr = pa.array(
        [
            '{"k": 87}',
            '{"k":-3, "other": 1}',
            '{ "k" : 0 }',
            '{"other": 5}',     # absent -> null
            'not json',         # malformed -> null
            '{"k": "text"}',    # non-integer -> null
            '{"k": 1.5}',       # float -> null (no half-match as 1)
        ]
    )
    out = json_int_field(arr, "k")
    assert out.to_pylist() == [87, -3, 0, None, None, None, None]

    # non-flat objects yield null, never a wrong value — even when the key
    # exists nested or at top level alongside nesting
    nested = pa.array(['{"a": {"k": 9}, "k": 2}', '{"nested": {"k": 5}}'])
    assert json_int_field(nested, "k").to_pylist() == [None, None]


def test_pii_redaction_and_counts():
    import re

    from epichypersketch_jl_ray.functions.pii import (
        EMAIL_PATTERN,
        IPV4_PATTERN,
        PHONE_PATTERN,
        pii_counts,
        redact_pii,
    )

    texts = pa.array(
        [
            "mail bob.smith+tag@ex-mail.co.uk or alice@sub.example.org today",
            "origin 10.1.200.7 proxied via 192.168.0.1; port 8080 stays",
            "call +1 555 0123 or +44 20 7946 0958, not 555-0123 alone",
            "version 1.2.3 is not an IP and neither is 1.2.3.4.5's head? (it is)",
            "no pii at all",
            "",
        ]
    )
    red = redact_pii(texts).to_pylist()
    assert red[0] == "mail <EMAIL> or <EMAIL> today"
    assert red[1] == "origin <IP> proxied via <IP>; port 8080 stays"
    assert red[2] == "call <PHONE> or <PHONE>, not 555-0123 alone"
    assert red[4] == "no pii at all" and red[5] == ""
    counts = pii_counts(texts)
    # pin against independent Python-re counts (re and RE2 agree on these)
    for key, pat in (("n_emails", EMAIL_PATTERN), ("n_ips", IPV4_PATTERN), ("n_phones", PHONE_PATTERN)):
        want = [len(re.findall(pat, t)) for t in texts.to_pylist()]
        assert list(counts[key]) == want, key


def test_pii_redaction_order_email_with_ip_domain():
    from epichypersketch_jl_ray.functions.pii import pii_counts, redact_pii

    # user@ip is NOT an email match (the email pattern requires an alphabetic
    # TLD) — the IP pass still masks the address part, and ordering keeps the
    # email pass from ever seeing '<IP>' tokens as domains
    texts = pa.array(["root@10.1.2.3 logged in from 10.9.9.9 by ops@corp.net"])
    assert redact_pii(texts).to_pylist() == ["root@<IP> logged in from <IP> by <EMAIL>"]
    c = pii_counts(texts)
    assert list(c["n_emails"]) == [1] and list(c["n_ips"]) == [2]


def test_pii_matches_duckdb_regexp_semantics():
    import duckdb

    from epichypersketch_jl_ray.functions.pii import REDACTIONS, pii_counts, redact_pii

    texts = [
        "a@b.co c@10.0.0.1 +7 123 4567 end",
        "edge .1.2.3.4. and @nope and +1 2 3",
        "x" * 50 + " deep@net.example " + "10.0.0.255",
    ]
    arr = pa.array(texts)
    got_red = redact_pii(arr).to_pylist()
    got_counts = pii_counts(arr)
    con = duckdb.connect()
    for i, t in enumerate(texts):
        expr, params = "?", [t]
        for _, pat, tok in REDACTIONS:
            expr = f"regexp_replace({expr}, '{pat}', '{tok}', 'g')"
        assert con.execute(f"select {expr}", params).fetchone()[0] == got_red[i]
        for key, (_, pat, _) in zip(("n_emails", "n_ips", "n_phones"), REDACTIONS):
            want = con.execute("select len(regexp_extract_all(?, ?))", [t, pat]).fetchone()[0]
            assert got_counts[key][i] == want, (key, t)
