"""Benchmark harness.

Default mode: runs the headline webtext sketch-build pipeline (docs/sec) plus
every queries() pipeline over $GRAFT_SF_DIR (default: SF_DIR below),
writes the full record (per-query walls, headline details, machine probes
and context) to .bench_results/bench-<sf>-<UTC time>.json and prints ONE
short JSON line:

  {"metric": "webtext_sketch_build_wall", "value": <sec>, "unit": "sec",
   "docs_per_sec": ..., "queries_total_s": ..., "record": <path>}

--headline-only: runs only the headline and prints it as one JSON line
(the line --scaling parses).

--scaling: runs the headline pipeline twice in FRESH processes at
RAY_GRAFT_CPUS=N and =4N (default N=1; override GRAFT_SCALE_N) on the same
input and reports both throughputs plus efficiency = thr(4N) / (4 * thr(N))
(the sandbox stand-in for N-vs-4N cluster sizes; BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# default: the CPUs this process may run on (RAY_GRAFT_CPUS overrides)
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0)))
# headline corpus size scales with the sf dir (sf0.1 -> 480k docs)
WEB_ROWS = int(
    os.environ.get("GRAFT_WEB_ROWS")
    or {"sf0.001": 3_000, "sf0.01": 12_000, "sf0.1": 480_000}.get(
        os.path.basename(SF_DIR.rstrip("/")), 120_000
    )
)


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            # worker prints relay to the DRIVER'S stdout and can interleave
            # with (or trail) the single JSON result line, corrupting
            # parse-last-line consumers — observed once from a MapBatches
            # worker. Progress goes to stderr already; keep stdout machine-clean.
            log_to_driver=False,
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def run_headline() -> dict:
    """Webtext 4-sketch build over the cached deterministic corpus.

    Times BOTH build paths after one untimed build that warms the session
    (workers, imports), so neither timed build pays the cold start: the
    direct path (``build_web_sketches``: one Ray task per corpus row
    range, a multiple of the CPU count of them, each folding its rows into
    one partial, then one merge) and the checkpointed path (the same cut
    and fold, plus one blob per range, sha256 digests and a manifest — the
    resumable production path). Their CMS, HLL and Bloom states must be
    byte-identical.
    Headline value = checkpointed wall (fresh checkpoint dir each run, so
    nothing is resumed). The ``dataset_path_*`` keys are the direct path.
    """
    import glob
    import shutil
    import tempfile

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from epichypersketch_jl_ray.sources.webpages import webpages_dir_for

    n_shards = 64 if WEB_ROWS >= 100_000 else 16
    web_dir = webpages_dir_for(WEB_ROWS, n_shards=n_shards)  # generation cached, untimed
    ray = _init_ray()
    from epichypersketch_jl_ray.checkpoint import build_checkpointed
    from epichypersketch_jl_ray.pipelines.webpages import (
        WebSketchBuilder,
        build_web_sketches,
        web_summary,
    )
    from epichypersketch_jl_ray.state.websketch import WebSketchState

    build_web_sketches(web_dir, batch_size=4096)  # untimed warm-up
    t0 = time.monotonic()
    state = build_web_sketches(web_dir, batch_size=4096)
    direct_wall = time.monotonic() - t0

    ck_dir = tempfile.mkdtemp(prefix="graft_bench_ck_")
    files = sorted(glob.glob(f"{web_dir}/*.parquet"))
    t0 = time.monotonic()
    state2, _m = build_checkpointed(
        files, WebSketchBuilder(n_docs_hint=WEB_ROWS), WebSketchState, ck_dir
    )
    ck_wall = time.monotonic() - t0
    shutil.rmtree(ck_dir, ignore_errors=True)
    for name in ("cms", "hll", "bloom"):
        got, want = getattr(state2, name).digest(), getattr(state, name).digest()
        assert got == want, f"build paths disagree on {name}"

    summary = web_summary(state)
    return {
        "web_rows": WEB_ROWS,
        "wall_s": round(ck_wall, 3),
        "docs_per_sec": round(WEB_ROWS / ck_wall, 1),
        "dataset_path_wall_s": round(direct_wall, 3),
        "dataset_path_docs_per_sec": round(WEB_ROWS / direct_wall, 1),
        "summary": {k: (round(v, 2) if isinstance(v, float) else v) for k, v in summary.items()},
    }


def run_queries() -> dict[str, float]:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    _init_ray()
    import __ray_entry__ as entrymod

    # GRAFT_ONLY=comma,separated,names restricts the sweep — this box's
    # clean phases last minutes, so targeted per-query samples are often
    # the only way to get uncontaminated walls (full output unchanged when
    # unset; the driver always runs the full registry).
    only = {q for q in os.environ.get("GRAFT_ONLY", "").split(",") if q}
    out = {}
    for i, (name, fn) in enumerate(entrymod.queries().items()):
        if only and name not in only:
            continue
        if i % 10 == 0:
            # phase context next to the walls: this box throttles in
            # minute-scale windows, so endpoint probes alone can't tell
            # which queries ran degraded
            print(f"[bench] probe {json.dumps(machine_probe())}", file=sys.stderr, flush=True)
        t0 = time.monotonic()
        res = fn(SF_DIR)
        # consume to a small driver-side result so lazy pipelines execute
        if hasattr(res, "to_pandas"):
            res = res.to_pandas() if not hasattr(res, "materialize") else res.materialize()
        out[name] = round(time.monotonic() - t0, 3)
        # stderr progress (stdout stays the single JSON line) — long runs on
        # this phase-y box are otherwise undiagnosable mid-flight
        print(f"[bench] {name} {out[name]:.2f}s", file=sys.stderr, flush=True)
    return out


def machine_probe() -> dict:
    """Fixed single-process calibration (~2 s): this sandbox's effective CPU
    and memory bandwidth swing 2-6x across phases (BASELINE.md round-3/4
    calibration), so every recorded bench carries the machine state it ran
    under. Compare `matmul_gflops` / `mem_sum_gbps` across BENCH_r{N}.json
    files before comparing query walls."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 1 << 40, 10_000_000).astype(np.int64)
    t0 = time.monotonic()
    b = np.sort(a)
    t_sort = time.monotonic() - t0
    t0 = time.monotonic()
    float(b.sum())
    t_sum = time.monotonic() - t0
    c = np.random.default_rng(1).random((1200, 1200))
    t0 = time.monotonic()
    (c @ c).sum()
    t_mm = time.monotonic() - t0
    # 4-thread parallel read (numpy releases the GIL): co-tenant contention
    # can starve MULTI-core throughput while single-thread numbers look
    # healthy — the signature behind low-efficiency scaling arms.
    import threading

    done = [0.0] * 4
    def _read(i: int) -> None:
        done[i] = float(b.sum())

    t0 = time.monotonic()
    ts = [threading.Thread(target=_read, args=(i,)) for i in range(4)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    t_par = time.monotonic() - t0
    return {
        "sort_10m_s": round(t_sort, 3),
        "mem_sum_gbps": round(80e6 / t_sum / 1e9, 2),
        "mem_sum_gbps_x4": round(4 * 80e6 / t_par / 1e9, 2),
        "matmul_gflops": round(2 * 1200**3 / t_mm / 1e9, 2),
    }


def main() -> None:
    if "--scaling" in sys.argv:
        # N vs 4N parallelism in fresh processes on the same input.
        # N=1 here: this single box saturates its memory bandwidth around
        # 8-16 concurrent workers (per-task wall inflates ~3x at 32), which a
        # multi-node cluster does not suffer — each node brings its own
        # memory bandwidth. The 1-vs-4 pair measures the engine's scaling
        # behaviour inside the machine's linear region; the full measured
        # curve is recorded in BASELINE.md.
        n = int(os.environ.get("GRAFT_SCALE_N", "1"))
        scale_rows = str(max(WEB_ROWS, 960_000))  # amortize fixed costs
        def run_arm(cpus: int) -> dict:
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(cpus),
                GRAFT_SF_DIR=SF_DIR,
                GRAFT_WEB_ROWS=scale_rows,
            )
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--headline-only"],
                env=env,
                capture_output=True,
                text=True,
            )
            return json.loads(proc.stdout.strip().splitlines()[-1])

        # ABBA ordering cancels linear machine-speed drift (this sandbox's
        # effective capacity swings over minutes); efficiency from the mean
        # throughput of each arm's two samples, all samples reported.
        a1 = run_arm(n)
        b1 = run_arm(4 * n)
        b2 = run_arm(4 * n)
        a2 = run_arm(n)
        thr_a = (a1["docs_per_sec"] + a2["docs_per_sec"]) / 2
        thr_b = (b1["docs_per_sec"] + b2["docs_per_sec"]) / 2
        results = {n: dict(a1, docs_per_sec=round(thr_a, 1)), 4 * n: dict(b1, docs_per_sec=round(thr_b, 1))}
        samples = {
            f"{n}cpu": [a1["docs_per_sec"], a2["docs_per_sec"]],
            f"{4*n}cpu": [b1["docs_per_sec"], b2["docs_per_sec"]],
        }
        thr_n = results[n]["docs_per_sec"]
        thr_4n = results[4 * n]["docs_per_sec"]
        print(
            json.dumps(
                {
                    "metric": "webtext_sketch_build_scaling",
                    "unit": "docs/sec",
                    "sf": SF_DIR,
                    "web_rows": results[4 * n]["web_rows"],
                    "n_cpus": n,
                    f"throughput_{n}cpu": thr_n,
                    f"throughput_{4*n}cpu": thr_4n,
                    "samples": samples,
                    "probes": {
                        f"{n}cpu": [a1.get("machine_probe"), a2.get("machine_probe")],
                        f"{4*n}cpu": [b1.get("machine_probe"), b2.get("machine_probe")],
                    },
                    "scaling_efficiency": round(thr_4n / (4.0 * thr_n), 3),
                }
            )
        )
        return

    probe_start = machine_probe()  # calibrate BOTH endpoints: phases shift mid-run
    cpu_times0 = _cpu_times()
    headline = run_headline()
    if "--headline-only" in sys.argv:
        print(
            json.dumps(
                {
                    "metric": "webtext_sketch_build_wall",
                    "value": headline["wall_s"],
                    "unit": "sec",
                    "sf": SF_DIR,
                    "num_cpus": NUM_CPUS,
                    "machine_probe": machine_probe(),
                    **headline,
                }
            )
        )
        import ray

        ray.shutdown()
        return

    queries = run_queries()
    record = {
        "metric": "webtext_sketch_build_wall",
        "value": headline["wall_s"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "headline": headline,
        "queries_total_s": round(sum(queries.values()), 3),
        "machine_probe_start": probe_start,
        "machine_probe": machine_probe(),
        "machine": _machine_context(cpu_times0),
    }
    path = _write_record(record)
    print(
        json.dumps(
            {
                "metric": "webtext_sketch_build_wall",
                "value": headline["wall_s"],
                "unit": "sec",
                "docs_per_sec": headline["docs_per_sec"],
                "queries_total_s": record["queries_total_s"],
                "record": path,
            }
        )
    )
    import ray

    ray.shutdown()


def _cpu_times():
    import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
    import psutil

    return psutil.cpu_times()


def _machine_context(cpu_times0) -> dict:
    """perfbench's machine context (CPU affinity, thread env, versions, git
    commit) plus the share of CPU time stolen by other guests since
    ``cpu_times0``."""
    from perfbench.run import machine_context, steal_share

    return dict(machine_context(NUM_CPUS), steal_share=steal_share(cpu_times0, _cpu_times()))


def _write_record(record: dict) -> str:
    """Write the full record to .bench_results/ next to this file; return
    its path."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = os.path.join(out_dir, f"bench-{os.path.basename(SF_DIR.rstrip('/'))}-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


if __name__ == "__main__":
    main()
