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
    strings = ["", "a", "hello", "hello world", "x" * 300, "héllo"]
    got = fnv1a64(pa.array(strings))
    for s, g in zip(strings, got):
        assert int(g) == _fnv_ref(s.encode()), s


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


def _fnv_ref(b: bytes, basis: int = 0xCBF29CE484222325) -> int:
    """Per-string FNV-1a byte loop, splitmix64-finalized."""
    h = basis
    for byte in b:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return _splitmix64_ref(h)


def _hash_string_ref(b: bytes) -> int:
    """Per-string byte loop: a <= 8-byte string is its little-endian word
    mixed with its length; a longer one is FNV-1a, finalized."""
    if len(b) <= 8:
        word = int.from_bytes(b, "little")
        return _splitmix64_ref((word + _splitmix64_ref(len(b))) & _M64)
    return _fnv_ref(b)


def _ref_bytes(arr: pa.Array) -> list[bytes]:
    """Each element's bytes; a null is the empty string."""
    return [v.encode() if isinstance(v, str) else v or b"" for v in arr.to_pylist()]


def _ref_hashes(arr: pa.Array, ref=_hash_string_ref) -> np.ndarray:
    return np.array([ref(v) for v in _ref_bytes(arr)], dtype=np.uint64)


def _string_layouts(words: list[str]) -> dict:
    """``words`` in every buffer layout a batch can arrive in."""
    base = pa.array(words)
    with_nulls = [None if i % 5 == 2 else w for i, w in enumerate(words)]
    return {
        "string": base,
        "large_string": pa.array(words, pa.large_string()),
        "binary": pa.array([w.encode() for w in words], pa.binary()),
        "large_binary": pa.array([w.encode() for w in words], pa.large_binary()),
        "sliced": base.slice(3, len(words) - 7),
        "sliced_large": pa.array(words, pa.large_string()).slice(5),
        "nulls": pa.array(with_nulls),
        "all_empty": pa.array(["", "", ""]),
        "all_null": pa.array([None, None], pa.string()),
        "empty_and_null": pa.array(["", None, ""]),
        "empty_array": pa.array([], pa.string()),
        "chunked": pa.chunked_array([base.slice(0, 30), base.slice(30)]),
    }


def _shuffled_words(seed: int) -> list[str]:
    """Strings of every byte length 0..40, ASCII and not, in shuffled order."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcxyz \u00e9\u4e2d")
    words = []
    for n in range(41):
        for _ in range(3):
            w = ""
            for ch in rng.choice(alphabet, size=n):
                if len((w + ch).encode()) <= n:
                    w += ch
            words.append(w + "q" * (n - len(w.encode())))
    assert {len(w.encode()) for w in words} == set(range(41))
    return [words[i] for i in rng.permutation(len(words))]


def test_fnv1a64_matches_byte_loop_reference():
    """Pins fnv1a64 to the per-string byte loop for lengths 0..40 in
    shuffled order (the byte loop sorts rows by length and must put every
    hash back in its row), non-ASCII bytes, nulls and every layout."""
    for name, arr in _string_layouts(_shuffled_words(7)).items():
        flat = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        got = fnv1a64(arr)
        assert got.dtype == np.uint64 and got.shape == (len(flat),), name
        assert np.array_equal(got, _ref_hashes(flat, _fnv_ref)), name


def test_fnv1a64_empty_string_hash_is_batch_independent():
    """An empty string (or a null) hashes the same in a batch of empty
    strings as next to a non-empty one: the finalizer runs on every path."""
    empty = fnv1a64([""])
    assert empty == fnv1a64(["", "a"])[:1]
    assert int(empty[0]) == _fnv_ref(b"")
    assert np.array_equal(fnv1a64(pa.array([None, ""])), np.repeat(empty, 2))
    assert fnv1a64(pa.array([], pa.string())).shape == (0,)


def test_fnv1a64_second_basis_matches_reference():
    """content_hash128's fallback runs the same byte loop from a second
    offset basis."""
    from epichypersketch_jl_ray.functions.hashing import _FNV_PRIME, _fnv1a64_rows, _string_buffers

    basis = 0x6C62272E07BB0142
    arr = pa.array(_shuffled_words(8)).slice(2)
    offsets, values = _string_buffers(arr)
    got = _fnv1a64_rows(offsets[:-1], np.diff(offsets), values, np.uint64(basis), _FNV_PRIME)
    assert np.array_equal(got, _ref_hashes(arr, lambda b: _fnv_ref(b, basis)))


def _combine_ref(a: int, b: int) -> int:
    return _splitmix64_ref(((a * 0xC2B2AE3D27D4EB4F) & _M64) ^ b)


def test_hash_combine_and_ngram_hashes_match_plain_chain():
    """hash_combine and ngram_hashes (in-place combine chains) against a
    per-ngram chain of the plain combine: rows of 0..9 tokens, n = 1..4."""
    rng = np.random.default_rng(11)
    lengths = rng.integers(0, 10, size=40)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    flat = rng.integers(0, 2**64, size=int(offsets[-1]), dtype=np.uint64)
    a, b, c = flat[:20], flat[20:40], flat[40:60]
    want = [_combine_ref(_combine_ref(int(x), int(y)), int(z)) for x, y, z in zip(a, b, c)]
    assert hash_combine(a, b, c).tolist() == want
    for n in range(1, 5):
        got, got_off = ngram_hashes(flat, offsets, n)
        want, want_off = [], [0]
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            for i in range(lo, hi - n + 1):
                acc = int(flat[i])
                for j in range(1, n):
                    acc = _combine_ref(acc, int(flat[i + j]))
                want.append(acc)
            want_off.append(len(want))
        assert got.dtype == np.uint64 and got.tolist() == want, n
        assert got_off.tolist() == want_off, n


def test_web_batch_features_keys_are_lang_ngram_combine():
    """The web build's CMS keys are hash_combine(lang hash, trigram hash)
    per trigram, computed in place."""
    from epichypersketch_jl_ray.pipelines.webpages import web_batch_features

    texts = ["a b c d", "", "x y z", "uno dos tres cuatro cinco", "p q"]
    langs = ["en", "de", "en", "es", "fr"]
    html = render_html(pa.array([f"t{i}" for i in range(5)]), pa.array(texts))
    batch = pa.table({"url": [f"u{i}" for i in range(5)], "lang": langs, "html": html})
    keys, url_h, lengths, ng = web_batch_features(batch)
    flat, off = token_hashes(pa.array(texts))
    want_ng, ng_off = ngram_hashes(flat, off, 3)
    row_lang = np.repeat(fnv1a64(pa.array(langs)), np.diff(ng_off))
    assert np.array_equal(ng, want_ng) and len(ng) == 6
    assert np.array_equal(keys, hash_combine(row_lang, want_ng))
    assert np.array_equal(url_h, fnv1a64(batch["url"]))
    assert lengths.tolist() == [len(t) for t in texts]


def _bloom_ref_positions(bf, hashes: np.ndarray) -> set[int]:
    """Kirsch-Mitzenmacher probe positions of each key, in Python ints."""
    out = set()
    for h in hashes.tolist():
        h1 = _splitmix64_ref(h ^ bf.seed)
        h2 = _splitmix64_ref(h1) | 1
        out.update((h1 + i * h2) % (1 << 64) % bf.m for i in range(bf.k))
    return out


def test_bloom_add_hashed_matches_set_reference():
    """add_hashed against a set of probe positions: the filter stays sparse
    (sorted unique positions) while at most m/64 bits are set, goes dense
    in the batch that passes m/64 (from sparse, and from fresh in one
    batch), and a batch that repeats keys already set leaves a sparse
    filter sparse; the digest is the packed bit set's in every case."""
    from epichypersketch_jl_ray.state.bloom import BloomFilter

    rng = np.random.default_rng(12)
    cap = 2000
    limit = BloomFilter(cap, p=0.01).m // 64  # 299 bits: 31 keys of 7 probes
    batches = {
        "stays_sparse": [rng.integers(0, 2**63, size=n, dtype=np.uint64) for n in (5, 10, 0, 12)],
        "sparse_then_dense": [rng.integers(0, 2**63, size=n, dtype=np.uint64) for n in (20, 30, 3)],
        "fresh_dense_in_one_batch": [rng.integers(0, 2**63, size=400, dtype=np.uint64)] * 2,
    }
    seen = rng.integers(0, 2**63, size=30, dtype=np.uint64)
    batches["repeats_stay_sparse"] = [seen, np.concatenate([seen, seen, seen[:3]])]
    for name, keys in batches.items():
        bf, ref, dense = BloomFilter(cap, p=0.01, seed=3), set(), False
        for n_batch, h in enumerate(keys):
            bf.add_hashed(h)
            ref |= _bloom_ref_positions(bf, h)
            dense = dense or len(ref) > limit
            assert (bf.bits is not None) == dense, (name, n_batch)
            if not dense:
                assert bf.positions.dtype == np.int64
                assert bf.positions.tolist() == sorted(ref), (name, n_batch)
            want = BloomFilter(cap, p=0.01, seed=3)
            want.positions = np.array(sorted(ref), dtype=np.int64)
            assert bf.digest() == want.digest(), (name, n_batch)
            assert bf.contains_hashed(np.concatenate(keys[: n_batch + 1])).all()
        assert dense == (name in ("sparse_then_dense", "fresh_dense_in_one_batch")), name


def test_hash_strings_fast_matches_byte_loop_reference():
    """Pins hash_strings_fast to an independent per-string reference, for
    strings of 0..8 bytes (the packed word) and 9..40 bytes (the FNV
    fallback) in shuffled order, non-ASCII bytes, nulls and the buffer
    layouts a batch can arrive in."""
    from epichypersketch_jl_ray.functions.hashing import hash_strings_fast

    cases = _string_layouts(_shuffled_words(9)) | {
        "trailing_empty": pa.array(["abcdefgh", "xy", ""]),
        "short_only": pa.array(["a", "bc", "defghijk"]),
        "long_only": pa.array(["abcdefghi", "0123456789abcdef"]),
    }
    for name, arr in cases.items():
        flat = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        got = hash_strings_fast(arr)
        assert got.dtype == np.uint64, name
        assert np.array_equal(got, _ref_hashes(flat)), name


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
