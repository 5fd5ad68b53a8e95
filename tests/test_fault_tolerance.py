"""Fault-tolerance: corrupted/torn checkpoint blobs are detected by digest
validation and recomputed; the resumed state is byte-identical. Plus
public-API export surface."""

import glob
import json
import os

import pytest


def test_corrupt_blob_recomputed(ray_session, tmp_path):
    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    web_dir = webpages_dir_for(3000, n_shards=8)
    files = sorted(glob.glob(f"{web_dir}/*.parquet"))

    make_partial = WebSketchBuilder()
    ck = str(tmp_path / "ck")
    clean, m1 = build_checkpointed(files, make_partial, WebSketchState, ck)
    assert m1["partitions"] == 4  # 3000 rows on 4 CPUs: 4 row ranges
    # simulate a torn write: truncate one range's blob
    victim = read_manifest(ck)[1][1]["blob"]
    with open(victim, "r+b") as fh:
        fh.truncate(100)
    resumed, m2 = build_checkpointed(files, make_partial, WebSketchState, ck)
    # the corrupted range was recomputed, the rest resumed
    assert m2["resumed_partitions"] == m1["partitions"] - 1
    assert resumed.cms.digest() == clean.cms.digest()
    assert resumed.bloom.digest() == clean.bloom.digest()
    # manifest records the retry
    rec = read_manifest(ck)[1][1]
    assert rec["attempt"] >= 2


def test_public_api_exports():
    import epichypersketch_jl_ray as pkg

    assert callable(pkg.obtain_enriched_configurations)
    assert callable(pkg.build_checkpointed)
    for name in ("CountMin", "HyperLogLog", "KLL", "TDigest", "BloomFilter"):
        assert getattr(pkg, name) is not None
    with pytest.raises(AttributeError):
        pkg.nonexistent_symbol


def test_empty_shard_contributes_empty_partial(ray_session, tmp_path):
    """An input shard with zero rows must not abort the checkpointed build:
    it is in no row range (rows=0 in the recorded cut), and the merged
    state and row count equal the build without the empty shard."""
    import shutil

    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    web_dir = webpages_dir_for(1500, n_shards=4)
    src_files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    work = tmp_path / "shards"
    work.mkdir()
    files = []
    for f in src_files:
        dst = work / f.split("/")[-1]
        shutil.copy(f, dst)
        files.append(str(dst))
    # one legitimately empty shard, same schema
    schema = pq.ParquetFile(files[0]).schema_arrow
    empty = str(work / "zz-empty.parquet")
    pq.write_table(schema.empty_table(), empty)
    make_partial = WebSketchBuilder()

    base, m_base = build_checkpointed(files, make_partial, WebSketchState, str(tmp_path / "ck1"))
    with_empty, m = build_checkpointed(
        files + [empty], make_partial, WebSketchState, str(tmp_path / "ck2")
    )
    assert base.cms.digest() == with_empty.cms.digest()
    assert base.hll.digest() == with_empty.hll.digest()
    assert base.bloom.digest() == with_empty.bloom.digest()
    cut, _ = read_manifest(str(tmp_path / "ck2"))
    assert cut["rows"][cut["files"].index(empty)] == 0
    assert all(path != empty for pieces in cut["ranges"] for path, _, _ in pieces)
    assert m["rows"] == m_base["rows"] == sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def test_same_basename_inputs_get_distinct_blobs(ray_session, tmp_path):
    """Two input files sharing a basename in different directories are two
    inputs: the cut records both full paths, each range writes its own
    blob, and both files are counted exactly once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.state.countmin import CountMin

    for sub, vals in (("a", [1, 2, 3]), ("b", [4, 5, 6])):
        d = tmp_path / sub
        d.mkdir()
        pq.write_table(pa.table({"x": pa.array(vals, pa.int64())}), d / "shard0.parquet")

    def make_partial(tbl):
        import numpy as np

        cm = CountMin(1, seed=3)
        cm.add(tbl["x"].to_numpy(zero_copy_only=False).astype(np.int64)[:, None])
        return cm

    files = [str(tmp_path / "a" / "shard0.parquet"), str(tmp_path / "b" / "shard0.parquet")]
    ck = str(tmp_path / "ck")
    merged, m = build_checkpointed(files, make_partial, CountMin, ck)
    cut, done = read_manifest(ck)
    assert cut["files"] == files and cut["rows"] == [3, 3]
    assert {path for pieces in cut["ranges"] for path, _, _ in pieces} == set(files)
    assert len({r["blob"] for r in done.values()}) == len(done) == m["partitions"]
    import numpy as np

    est = merged.estimate(np.array([[1], [4]], dtype=np.int64))
    assert est[0] == 1 and est[1] == 1  # both partitions counted exactly once


def test_stale_manifest_format_recomputes_loudly(ray_session, tmp_path, caplog):
    """Records from the old per-file manifest format (fmt 2) are skipped
    with a warning and the build starts over."""
    import json as _json
    import logging

    import pyarrow as pa
    import pyarrow.parquet as pq

    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.state.countmin import CountMin

    pq.write_table(
        pa.table({"x": pa.array([7, 7], pa.int64())}), tmp_path / "in.parquet"
    )

    def make_partial(tbl):
        import numpy as np

        cm = CountMin(1, seed=3)
        cm.add(tbl["x"].to_numpy(zero_copy_only=False).astype(np.int64)[:, None])
        return cm

    ck = tmp_path / "ck"
    ck.mkdir()
    # hand-write an OLD-format (fmt 2, one record per file) manifest record
    (ck / "manifest.jsonl").write_text(
        _json.dumps(
            {
                "fmt": 2,
                "file": str(tmp_path / "in.parquet"),
                "blob": str(ck / "part-in.parquet.bin"),
                "rows": 2,
                "wall_s": 0.1,
                "digest": "deadbeef",
                "attempt": 1,
            }
        )
        + "\n"
    )
    with caplog.at_level(logging.WARNING):
        merged, m = build_checkpointed(
            [str(tmp_path / "in.parquet")], make_partial, CountMin, str(ck)
        )
    assert m["resumed_partitions"] == 0  # stale record did not resume
    assert read_manifest(str(ck))[0]["rows"] == [2]  # a new fmt-3 cut replaced it
    assert any("older manifest format" in r.message for r in caplog.records)
    import numpy as np

    assert merged.estimate(np.array([[7]], dtype=np.int64))[0] == 2


def test_motif_count_survives_a_killed_worker(ray_session, tmp_path, monkeypatch):
    """The worker running the first count task exits mid-task; Ray's
    default task retries rerun it and the motif output equals the
    undisturbed run's."""
    import os

    import pandas as pd
    import ray.data

    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.pipelines import motifs as pm
    from epichypersketch_jl_ray.sources.reference_fixtures import make_ordinary_dict

    tbl, _ = activation_table_from_dict(make_ordinary_dict())
    parts = [tbl.slice(i, 200) for i in range(0, tbl.num_rows, 200)]

    def frame() -> pd.DataFrame:
        df = pm.motif_pipeline(ray.data.from_arrow(parts), motif_size=3, min_count=8).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    clean = frame()
    marker = tmp_path / "killed"
    real_cells = pm.MotifCells

    def crash_once_cells(cms, **kwargs):
        cells = real_cells(cms, **kwargs)

        def count(batches):
            if not marker.exists():
                marker.touch()
                os._exit(1)  # the worker process dies, as on a lost node
            return cells(batches)

        return count

    monkeypatch.setattr(pm, "MotifCells", crash_once_cells)
    retried = frame()
    assert marker.exists()
    pd.testing.assert_frame_equal(clean, retried)


def test_motif_select_survives_a_killed_worker(ray_session, tmp_path, monkeypatch):
    """The worker running the first select slice exits mid-task; Ray's
    default task retries rerun the select task (both of its returns, the
    block and its row count) and the motif output equals the undisturbed
    run's."""
    import pandas as pd
    import ray.data

    from epichypersketch_jl_ray.api import activation_table_from_dict
    from epichypersketch_jl_ray.pipelines import motifs as pm
    from epichypersketch_jl_ray.sources.reference_fixtures import make_ordinary_dict

    tbl, _ = activation_table_from_dict(make_ordinary_dict())
    parts = [tbl.slice(i, 200) for i in range(0, tbl.num_rows, 200)]

    def frame() -> pd.DataFrame:
        df = pm.motif_pipeline(ray.data.from_arrow(parts), motif_size=3, min_count=8).to_pandas()
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    clean = frame()
    marker = str(tmp_path / "killed")
    real_selector = pm.MotifSelector

    def crash_once_selector(cms, **kwargs):
        # built in the select task's worker, so it cannot call _crash_once
        # (workers cannot import this test module)
        select = real_selector(cms, **kwargs)

        def crash_once(batch):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return select(batch)
            os._exit(1)  # the worker process dies, as on a lost node

        return crash_once

    monkeypatch.setattr(pm, "MotifSelector", crash_once_selector)
    retried = frame()
    assert os.path.exists(marker)
    pd.testing.assert_frame_equal(clean, retried)


def _crash_once(make_partial, marker):
    """``make_partial`` whose first call, across every worker, exits its
    process (as on a lost node); the marker file makes the crash happen
    exactly once, so Ray's default task retries rerun the task."""
    import os

    def partial(batch):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return make_partial(batch)
        os._exit(1)

    return partial


def _web_digests(state) -> tuple:
    return state.cms.digest(), state.hll.digest(), state.bloom.digest()


def test_web_build_survives_a_killed_worker(ray_session, tmp_path, monkeypatch):
    """The worker running the first row-range fold task of
    build_web_sketches exits on its first attempt; the merged CMS, HLL and
    Bloom states equal the undisturbed build's byte for byte."""
    from epichypersketch_jl_ray.pipelines import webpages as pw
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for
    from epichypersketch_jl_ray.stages.udaf import row_ranges

    # 6 files of 500 rows on 4 CPUs: 4 ranges of 750 rows, each of which
    # spans two files, so the killed task's range crosses a file boundary
    web_dir = webpages_dir_for(3000, n_shards=6)
    files = pw.parquet_files(web_dir)
    assert [len(p) for p in row_ranges(files, pw.file_rows(files), 4)] == [2, 2, 2, 2]
    clean = pw.build_web_sketches(web_dir, batch_size=1000)
    marker = str(tmp_path / "killed")
    real_builder = pw.WebSketchBuilder
    monkeypatch.setattr(
        pw, "WebSketchBuilder", lambda **kw: _crash_once(real_builder(**kw), marker)
    )
    retried = pw.build_web_sketches(web_dir, batch_size=1000)
    assert os.path.exists(marker)
    assert _web_digests(retried) == _web_digests(clean)
    assert retried.rows_seen == clean.rows_seen == 3000


def test_checkpointed_build_survives_a_killed_worker(ray_session, tmp_path):
    """The worker running the first row-range task of build_checkpointed
    exits on its first attempt; the retried task writes its blob and the
    merged CMS, HLL and Bloom states equal the undisturbed build's."""
    from epichypersketch_jl_ray.checkpoint import build_checkpointed, read_manifest
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    files = sorted(glob.glob(f"{webpages_dir_for(3000, n_shards=4)}/*.parquet"))
    make_partial = WebSketchBuilder(n_docs_hint=3000)
    clean, _ = build_checkpointed(files, make_partial, WebSketchState, str(tmp_path / "ck1"))
    marker = str(tmp_path / "killed")
    ck = str(tmp_path / "ck2")
    retried, m = build_checkpointed(
        files, _crash_once(make_partial, marker), WebSketchState, ck
    )
    assert os.path.exists(marker)
    assert _web_digests(retried) == _web_digests(clean)
    cut, done = read_manifest(ck)
    assert m["rows"] == 3000 and sorted(done) == list(range(len(cut["ranges"])))
