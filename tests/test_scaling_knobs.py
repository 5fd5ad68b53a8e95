"""Round-3 scale knobs: generic html extraction goldens and auto-scaled
bucket counts."""

import json
import os

import pyarrow as pa


def test_generic_html_goldens():
    """Byte-identical regression goldens for the pure-function stripper."""
    from epichypersketch_jl_ray.functions.html import extract_text_generic

    goldens = json.load(
        open(os.path.join(os.path.dirname(__file__), "goldens", "generic_html_goldens.json"))
    )
    out = extract_text_generic(pa.array([g["html"] for g in goldens], pa.string()))
    for got, g in zip(out.to_pylist(), goldens):
        assert got == g["text"], g["html"][:80]


def test_generic_html_nulls_empty_and_binary():
    from epichypersketch_jl_ray.functions.html import extract_text_generic

    assert extract_text_generic(pa.array([], pa.string())).to_pylist() == []
    out = extract_text_generic(pa.array(["<p>x</p>", None], pa.string()))
    assert out.to_pylist() == ["x", None]
    # binary input (the html column's storage type) round-trips through cast
    out = extract_text_generic(pa.array([b"<p>bin</p>"], pa.binary()))
    assert out.to_pylist() == ["bin"]


def test_generic_html_entity_encoded_markup_stays_text():
    from epichypersketch_jl_ray.functions.html import extract_text_generic

    out = extract_text_generic(
        pa.array(["&lt;script&gt;evil()&lt;/script&gt;", "&amp;lt;kept&amp;gt;"], pa.string())
    )
    assert out.to_pylist() == ["<script>evil()</script>", "&lt;kept&gt;"]


def test_cpu_units_grows_and_clamps(monkeypatch):
    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 1)
    assert udaf.cpu_units(None) == 1
    assert udaf.cpu_units(0) == udaf.cpu_units(1000) == 1  # one unit at least
    assert udaf.cpu_units(10_000_000) < udaf.cpu_units(1_000_000_000)  # grows with input
    assert udaf.cpu_units(10**13) == 4096  # hi clamp
    assert udaf.cpu_units(2**16 * 100) == 100  # ~target rows per unit
    assert udaf.cpu_units(2**16 * 100 + 1) == 101
    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 16)
    assert udaf.cpu_units(None) == udaf.cpu_units(1000) == 16  # one per CPU
    assert udaf.cpu_units(2**16 * 100) == 112  # rounded up to a multiple of the CPUs
    assert udaf.cpu_units(10**13) == 4096


def test_sessionize_bucket_count_scales_with_table(monkeypatch):
    """The pipeline derives its bucket count from the parquet footer count."""
    from epichypersketch_jl_ray.sources.tables import table_rows
    from epichypersketch_jl_ray.stages import udaf

    monkeypatch.setattr(udaf, "cluster_cpus", lambda: 4)
    n = table_rows("/root/testdata/sf0.001", "events")
    assert n > 0
    assert udaf.cpu_units(n * 100_000) > udaf.cpu_units(n)
