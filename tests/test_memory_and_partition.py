"""Memory estimation (reference test_memory_management.jl analogues),
length-bucket partitioning (test_partitioning.jl:8-87 analogues), config
validation (test_config_errors.jl analogue), parquet sink round-trip and
the per-process store directory."""

import numpy as np
import pytest

from epichypersketch_jl_ray.config import SketchConfig
from epichypersketch_jl_ray.errors import InvalidConfigurationError
from epichypersketch_jl_ray.memory import (
    MAX_BATCH,
    MIN_BATCH,
    calculate_optimal_batch_size,
    estimate_bytes_per_point,
    estimate_fixed_bytes,
)


class TestMemory:
    def test_per_point_monotone_in_length(self):
        a = estimate_bytes_per_point(10, 3)
        b = estimate_bytes_per_point(40, 3)
        assert b > a > 0

    def test_conv_costs_more(self):
        assert estimate_bytes_per_point(20, 3, conv=True) > estimate_bytes_per_point(20, 3)

    def test_fixed_bytes_geometry(self):
        # 10 rows x 54366 cols x 8B + coeffs (reference defaults)
        fixed = estimate_fixed_bytes(1e-4, 5e-5, 3)
        assert fixed == 10 * 54366 * 8 + 10 * 3 * 8

    def test_batch_size_clamps(self):
        # tiny budget -> clamped to MIN_BATCH; huge budget -> MAX_BATCH
        small = calculate_optimal_batch_size(60, 3, budget_bytes=20 * 1024 * 1024)
        assert small == MIN_BATCH
        big = calculate_optimal_batch_size(5, 3, budget_bytes=64 * 1024**3)
        assert big == MAX_BATCH

    def test_insufficient_budget_raises(self):
        # fixed sketch alone exceeds the budget
        # (/root/reference/test/test_memory_management.jl:137-142)
        with pytest.raises(InvalidConfigurationError):
            calculate_optimal_batch_size(20, 3, budget_bytes=1024 * 1024)


class TestConfig:
    def test_validation_errors(self):
        # reference InvalidConfigurationError cases
        # (/root/reference/test/test_config_errors.jl:6-17)
        with pytest.raises(ValueError):
            SketchConfig(delta=0.0)
        with pytest.raises(ValueError):
            SketchConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            SketchConfig(batch_size=0)


class TestPartition:
    @pytest.fixture(scope="class")
    def act(self, ray_session):
        from epichypersketch_jl_ray.api import activation_table_from_dict
        import ray.data

        rng = np.random.default_rng(1)
        d = {}
        for i in range(50):
            d[i] = [(int(f), 1.0) for f in rng.integers(1, 50, size=rng.integers(5, 11))]
        for i in range(50, 100):
            d[i] = [(int(f), 1.0) for f in rng.integers(1, 50, size=rng.integers(25, 36))]
        for i in range(100, 150):
            d[i] = [(int(f), 1.0) for f in rng.integers(1, 50, size=rng.integers(50, 61))]
        tbl, _ = activation_table_from_dict(d)
        return ray.data.from_arrow(tbl), d

    def test_buckets_disjoint_and_complete(self, act):
        from epichypersketch_jl_ray.sources.partition import add_length_bucket

        ds, d = act
        out = add_length_bucket(ds, width=10).take_all()
        assert len(out) == len(d)  # every key accounted for
        for row in out:
            n = len(row["features"])
            # bucket must contain the row's own length range
            assert row["len_bucket"] == (n - 5) // 10  # min length is 5

    def test_invalid_width(self, act):
        from epichypersketch_jl_ray.sources.partition import add_length_bucket

        with pytest.raises(ValueError):
            add_length_bucket(act[0], width=0)


def test_parquet_sink_round_trip(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data

    from epichypersketch_jl_ray.sources.sinks import write_partitioned

    ds = ray.data.range(1000)
    out = write_partitioned(ds, str(tmp_path / "out"))
    import glob

    files = glob.glob(f"{out}/*.parquet")
    assert len(files) >= 1
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 1000


def test_store_dir_is_one_private_root_per_process():
    """Every stored-state oracle store lives under one private mkdtemp root
    per process: two calls share it, another process gets another one, and
    no store lands on one of the fixed, shared /tmp/ehs_* paths."""
    import os
    import stat
    import subprocess
    import sys

    from epichypersketch_jl_ray.sources.sinks import store_dir

    a, b = store_dir("ann_cands"), store_dir("simhash_sigs")
    root = os.path.dirname(a)
    assert os.path.dirname(b) == root and store_dir("ann_cands") == a
    assert os.path.basename(a) == "ann_cands"
    assert stat.S_IMODE(os.stat(root).st_mode) == 0o700
    fixed = {f"/tmp/ehs_{n}" for n in ("ann_cands", "simhash_sigs", "tdigest_centroids")}
    assert root not in fixed and a not in fixed
    code = "from epichypersketch_jl_ray.sources.sinks import store_dir; print(store_dir('ann_cands'))"
    other = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ).stdout.strip()
    assert os.path.basename(other) == "ann_cands" and os.path.dirname(other) != root
    assert not os.path.exists(os.path.dirname(other))  # removed at exit


def test_auto_batch_size_wired_into_motif_pipeline(ray_session):
    """batch_size=":auto" resolves through memory.calculate_optimal_batch_size
    (reference :auto flow, record.jl:58-62 / memory.jl:172-228): long
    sequences pick a smaller batch than the fixed default, and the result is
    identical to the fixed-batch run (batch size is a physical knob only)."""
    import numpy as np

    from epichypersketch_jl_ray.api import obtain_enriched_configurations
    from epichypersketch_jl_ray.config import SketchConfig
    from epichypersketch_jl_ray.memory import MAX_BATCH, calculate_optimal_batch_size

    # the working-set formula really shrinks the batch for long sequences
    auto = calculate_optimal_batch_size(64, 3)
    assert auto < 4096  # smaller than the pipelines' fixed default
    assert calculate_optimal_batch_size(120, 3) < auto < MAX_BATCH

    rng = np.random.default_rng(11)
    activation = {}
    for i in range(60):
        n = int(rng.integers(3, 40))
        activation[i] = [
            (int(rng.integers(1, 25)), float(rng.integers(1, 5))) for _ in range(n)
        ]
    fixed = obtain_enriched_configurations(
        activation, motif_size=3, min_count=3, config=SketchConfig(batch_size=4096)
    )
    auto_df = obtain_enriched_configurations(
        activation, motif_size=3, min_count=3, config=SketchConfig(batch_size=":auto")
    )
    cols = list(fixed.columns)
    f = fixed.sort_values(cols).reset_index(drop=True)
    a = auto_df.sort_values(cols).reset_index(drop=True)
    assert len(f) > 0 and f.equals(a)


def test_auto_batch_size_config_validation():
    import pytest

    from epichypersketch_jl_ray.config import SketchConfig

    assert SketchConfig(batch_size=":auto").batch_size == ":auto"
    with pytest.raises(ValueError):
        SketchConfig(batch_size=":autoo")
