"""The engine's stages hand Datasets on without Ray Data: a bucket task
returns its table's block metadata, so ``sources.tables.dataset_of`` builds
the Dataset with no metadata task, and ``udaf.block_refs`` reads a leaf
Dataset's refs from its plan with no executor run. So the CMS count →
select chain of ``motif_pipeline`` runs as one task graph over a bare
parquet read with none of Ray Data's executor entry points."""

import numpy as np
import pyarrow as pa
import pytest


def _tables() -> list[pa.Table]:
    rows = pa.table({"k": np.arange(5, dtype=np.int64), "s": list("abcde")})
    return [rows, rows.slice(0, 0), rows.slice(1, 3)]  # a typed 0-row block


def _block_rows(ds) -> list[int]:
    return [m.num_rows for bundle in ds.iter_internal_ref_bundles() for m in bundle.metadata]


def test_dataset_of_equals_from_arrow_refs(ray_session, monkeypatch):
    """dataset_of(refs, block_metadata of each table) is the Dataset
    from_arrow_refs(refs) makes: the same type, blocks, row counts (a typed
    0-row block included), schema and rows, and it converts back and
    materializes. It runs no from_arrow_refs, so a Ray upgrade that moves
    the private constructors it uses fails here rather than falling back
    silently; table_dataset wraps one table the same way."""
    import ray
    import ray.data

    from epichypersketch_jl_ray.sources import tables

    blocks = _tables()
    refs = [ray.put(t) for t in blocks]
    theirs = ray.data.from_arrow_refs(refs)
    metas = [tables.block_metadata(t) for t in blocks]
    assert all(m is not None for m in metas)

    def refuse(*args, **kwargs):
        raise AssertionError("dataset_of fell back to from_arrow_refs")

    monkeypatch.setattr(ray.data, "from_arrow_refs", refuse)
    ours = tables.dataset_of(refs, metas)
    one = tables.table_dataset(blocks[1])
    monkeypatch.undo()

    assert type(ours) is type(theirs)
    assert ours.num_blocks() == theirs.num_blocks() == 3
    assert ours.count() == theirs.count() == 8
    assert ours.schema() == theirs.schema()
    assert _block_rows(ours) == _block_rows(theirs) == [5, 0, 3]
    got = ray.get(ours.to_arrow_refs())
    assert [t.equals(b) for t, b in zip(got, blocks)] == [True] * 3
    assert ours.materialize().take_all() == theirs.take_all()
    assert one.num_blocks() == 1 and one.count() == 0
    assert one.schema().names == ["k", "s"]


def test_block_refs_of_a_leaf_dataset_runs_no_executor(ray_session, monkeypatch):
    """block_refs of a from_arrow_refs Dataset, of a dataset_of one and of
    a materialized one gives their refs in order with
    Dataset.iter_internal_ref_bundles raising; a Dataset with an operator
    after its leaf still streams through it."""
    import ray
    import ray.data

    from epichypersketch_jl_ray.sources.tables import block_metadata, dataset_of
    from epichypersketch_jl_ray.stages import udaf

    blocks = _tables()
    refs = [ray.put(t) for t in blocks]
    built = dataset_of(refs, [block_metadata(t) for t in blocks])
    mapped = ray.data.from_arrow(blocks).map_batches(lambda b: b, batch_format="pyarrow")
    materialized = mapped.materialize()
    want = [r for bundle in materialized.iter_internal_ref_bundles() for r in bundle.block_refs]

    def refuse(self, *args, **kwargs):
        raise AssertionError("iter_internal_ref_bundles ran")

    monkeypatch.setattr(ray.data.Dataset, "iter_internal_ref_bundles", refuse)
    assert list(udaf.block_refs(ray.data.from_arrow_refs(refs))) == refs
    assert list(udaf.block_refs(built)) == refs
    assert list(udaf.block_refs(materialized)) == want
    with pytest.raises(AssertionError, match="iter_internal_ref_bundles ran"):
        list(udaf.block_refs(mapped))


def test_motif_pipeline_runs_no_ray_data_between_its_stages(ray_session, tmp_path, monkeypatch):
    """motif_pipeline(activation_from_table(read_parquet(dir))) on the
    motifs_k3 benchmark input (seed 1) equals perfbench's exact recount
    with ray.data.from_arrow_refs, Dataset.materialize and
    Dataset.iter_internal_ref_bundles all raising: the read, the activation
    exchange, the count, the range sums, the select and the recount hand
    on refs, never a Ray Data execution."""
    import ray.data

    from epichypersketch_jl_ray.pipelines.motifs import motif_pipeline
    from epichypersketch_jl_ray.sources.activation import activation_from_table
    from epichypersketch_jl_ray.stages.exchange import to_table
    from perfbench.motifs import K, MIN_COUNT, Motifs, canonical, exact_motifs

    wl = Motifs(tiny=False)
    wl.prepare(1, str(tmp_path / "in"))

    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        return raising

    monkeypatch.setattr(ray.data, "from_arrow_refs", refuse("from_arrow_refs"))
    monkeypatch.setattr(ray.data.Dataset, "materialize", refuse("materialize"))
    monkeypatch.setattr(
        ray.data.Dataset, "iter_internal_ref_bundles", refuse("iter_internal_ref_bundles")
    )
    act = activation_from_table(
        ray.data.read_parquet(wl.in_dir),
        key_col="l_orderkey",
        feature_col="l_suppkey",
        contribution_col="l_quantity",
        size_hint_rows=wl.rows,
    )
    out = to_table(motif_pipeline(act, motif_size=K, min_count=MIN_COUNT))
    monkeypatch.undo()
    want = canonical(exact_motifs(wl.table))
    assert len(want) > 0
    np.testing.assert_array_equal(canonical(out), want)
