"""10M-doc soak: the checkpointed 4-sketch build at ~20x bench scale, plus a
resume-from-checkpoint timing. Records throughput, HLL accuracy vs the true
distinct-url count, Bloom fill, and CMS insert volume.

Run: python examples/soak_10m.py  (fresh process; owns its Ray session)
"""

import glob
import json
import shutil
import sys
import tempfile
import time

sys.path.insert(0, "/root/repo")

N_DOCS = 10_000_000
N_SHARDS = 512
CPUS = 16


def main() -> None:
    import ray

    from epichypersketch_jl_ray.checkpoint import build_checkpointed
    from epichypersketch_jl_ray.pipelines.webpages import WebSketchBuilder
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    web_dir = webpages_dir_for(N_DOCS, n_shards=N_SHARDS)  # cached, untimed
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=CPUS, include_dashboard=False, logging_level="ERROR")

    make_partial = WebSketchBuilder(n_docs_hint=N_DOCS)
    files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    ck = tempfile.mkdtemp(prefix="graft_soak_ck_")
    t0 = time.monotonic()
    state, _m = build_checkpointed(files, make_partial, WebSketchState, ck)
    wall = time.monotonic() - t0

    t0 = time.monotonic()
    state2, _m2 = build_checkpointed(files, make_partial, WebSketchState, ck)  # full resume
    resume_wall = time.monotonic() - t0
    for name in ("cms", "hll", "bloom"):
        assert getattr(state2, name).digest() == getattr(state, name).digest(), name
    shutil.rmtree(ck, ignore_errors=True)

    hll_est = float(state.hll.estimate())
    print(
        json.dumps(
            {
                "metric": "soak_10m_checkpointed_build",
                "docs": N_DOCS,
                "num_cpus": CPUS,
                "wall_s": round(wall, 1),
                "docs_per_sec": round(N_DOCS / wall, 1),
                "resume_wall_s": round(resume_wall, 1),
                "hll_distinct_est": round(hll_est, 0),
                "bloom_fill": round(state.bloom.fill_ratio(), 3),
                "cms_inserts": int(state.cms.n_inserts),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
