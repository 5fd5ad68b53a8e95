"""No actor in the engine: every map is a plain task map, and PageRank runs
on plain tasks. The registry queries that used actor pools or actors run
with every way to start one raising."""

import pytest


def test_former_actor_users_run_on_plain_tasks(ray_session, sf_dir, monkeypatch):
    """With Ray Data's ActorPoolStrategy, any map_batches with a
    ``concurrency=``, ``compute=`` or constructor arguments (or over a
    class), and the creation of any actor of a class outside Ray's own
    modules raising, the former actor users run at sf0.001, and each with
    an oracle equals it; the two ANN queries run with Dataset.groupby
    raising too (their top-k reduce is on the hash exchange)."""
    import ray
    import ray.data
    from ray.actor import ActorClass

    import __ray_entry__ as entry
    from oracle_util import compare, duck_con, to_pandas

    def forbidden(*args, **kwargs):
        raise AssertionError("an actor pool or actor would start")

    real_map_batches = ray.data.Dataset.map_batches
    real_actor_remote = ActorClass._remote

    def map_batches(self, fn, *args, **kwargs):
        keys = ("concurrency", "compute", "fn_constructor_args", "fn_constructor_kwargs")
        if isinstance(fn, type) or any(kwargs.get(k) is not None for k in keys):
            forbidden()
        return real_map_batches(self, fn, *args, **kwargs)

    def actor_remote(self, *args, **kwargs):
        # Ray Data's own bookkeeping actors (its stats actor) may start
        if not self.__ray_metadata__.modified_class.__module__.startswith("ray."):
            forbidden()
        return real_actor_remote(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.ActorPoolStrategy, "__init__", forbidden)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", map_batches)
    monkeypatch.setattr(ActorClass, "_remote", actor_remote)

    # each guard fires
    ds = ray.data.range(4)
    with pytest.raises(AssertionError):
        ray.data.ActorPoolStrategy(size=1)
    with pytest.raises(AssertionError):
        ds.map_batches(lambda b: b, concurrency=2)

    class Probe:
        pass

    with pytest.raises(AssertionError):
        ray.remote(Probe).remote()

    con = duck_con(sf_dir)
    queries, oracles = entry.queries(), entry.oracle_sql()
    for name in (
        "multimodal_features", "doc_lang_fingerprints", "token_count_bpe",
        "customer_order_counts", "ann_cosine_topk", "ann_approx_topk",
    ):
        with monkeypatch.context() as m:
            if name.startswith("ann_"):
                m.setattr(ray.data.Dataset, "groupby", forbidden)
            got = to_pandas(queries[name](sf_dir))
        assert len(got), name
        if name in oracles:
            assert compare(name, got, con.sql(oracles[name]).df()) == [], name
