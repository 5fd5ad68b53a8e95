"""Layered benchmark of the epichypersketch_jl_ray sketch engine.

Run from the repository root:

    python3 perfbench/run.py --workload web_build --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen: perfbench/README.md):
  web_build       streaming 4-sketch web build (pipelines.webpages)
  web_build_ckpt  the same build through checkpoint.build_checkpointed
  motifs_k3       activation shuffle + motif count -> select -> verify

The run generates its inputs from --seed, sets up at least three times
(setup_s is the median) before Ray starts, warms up once, then repeats the
workload until --seconds have passed and reports the median build. Times are
net of the CPU time the hypervisor gave to other guests (see net_time). Every
output is checked; each check is one attempted operation. --trace 1 spends
half the time untraced and half with spans around the package's public
functions, then measures the kernels single-process, and reports the
per-layer metrics instead of the end-to-end ones.

Everything the run writes stays inside the checkout, Ray's session files and
object store included (unless the checkout path is too long for Ray's socket
paths), and every process it starts is stopped before it exits.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
full record (machine context, every iteration, every check, Ray operator
stats) goes to .bench_results/<workload>-seed<seed>-trace<t>.json and the
spans of a traced run to .bench_results/<workload>-seed<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.getcwd()
PACKAGE = "epichypersketch_jl_ray"
WORKLOADS = ("web_build", "web_build_ckpt", "motifs_k3")
# set-up runs at least SETUP_REPS times and, when it is fast, until it has
# taken SETUP_MIN_S in total (at most SETUP_MAX_REPS), so its median is steady
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 3.0, 400
# the inputs are ~10 MB of parquet; the store is a file in the run's work dir
OBJECT_STORE_BYTES = 512 << 20
# Ray puts its sockets at <temp dir>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, and a unix socket path may hold at most 107 bytes.
SOCKET_PATH_MAX = 107
PR_SET_CHILD_SUBREAPER = 36

END_TO_END = {"rows_per_s": "rows/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs (the benchmark's own test)")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_context(ray_cpus: int) -> dict:
    import numpy
    import psutil
    import pyarrow
    import ray

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": ray_cpus,
        "threads": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "mem_total_mb": psutil.virtual_memory().total / 1e6,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "git_commit": git_commit(),
    }


def machine_probe() -> dict:
    """Two short single-process timings, taken at the start and the end of a
    run: this host's speed swings with the load of other tenants, so a wall
    time is read next to the probes taken with it."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 1 << 40, 2_000_000)
    t0 = time.perf_counter()
    np.sort(a)
    t1 = time.perf_counter()
    sum(range(2_000_000))
    return {"numpy_sort_2m_s": t1 - t0, "python_sum_2m_s": time.perf_counter() - t1}


def steal_share(before, after) -> float:
    """Share of the CPU time this guest wanted (busy or stolen, not idle)
    that the hypervisor gave to other guests, between two psutil.cpu_times()
    readings. Idle CPUs have nothing stolen, so the share is taken over the
    time the CPUs had work to run."""
    total = sum(after) - sum(before)
    idle = (after.idle - before.idle) + (after.iowait - before.iowait)
    wanted = total - idle
    return (after.steal - before.steal) / wanted if wanted > 0 else 0.0


def net_time(seconds: float, before, after) -> float:
    """``seconds`` of wall time less the share the hypervisor stole (see
    steal_share) between two psutil.cpu_times() readings. On a shared host a
    build's wall time rises with the CPU time stolen from this guest (0-30%,
    in phases that last minutes), and stolen time only ever delays it."""
    return seconds * (1.0 - steal_share(before, after))


def become_subreaper() -> None:
    """Make processes orphaned below this one (a Ray agent whose raylet died)
    its children rather than init's, so the final sweep finds them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans are not swept
        pass


def stop_descendants(timeout: float = 10) -> None:
    """Terminate every process below this one, kill those that outlive
    ``timeout``, and wait for all of them to end."""
    import psutil

    procs = psutil.Process().children(recursive=True)
    for p in procs:
        try:
            p.terminate()
        except psutil.Error:
            pass
    _, alive = psutil.wait_procs(procs, timeout=timeout)
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(alive, timeout=timeout)


def ray_temp_dir() -> tuple[str, bool]:
    """(directory for Ray's session files, whether it lies outside the
    checkout). Inside the checkout when the socket paths fit; otherwise a
    fresh short directory in the system temp dir, removed at the end."""
    session = f"session_2000-01-01_00-00-00_000000_{os.getpid()}"
    for path in (os.path.join(ROOT, ".bench_work", "ray"), os.path.join(ROOT, ".ray")):
        if len(os.path.join(path, session, "sockets", "plasma_store").encode()) <= SOCKET_PATH_MAX:
            return path, False
    return tempfile.mkdtemp(prefix="perfbench-ray-", dir="/tmp"), True


class ProcMeter:
    """CPU seconds and resident memory of this process plus every process it
    started (Ray's GCS, raylet and workers). A background thread samples the
    summed RSS, and the bytes in Ray's spill directory, every ``interval``
    seconds to track their peaks."""

    def __init__(self, spill_dir: str, interval: float = 0.05) -> None:
        import psutil

        self._psutil = psutil
        self._root = psutil.Process()
        self._spill_dir = spill_dir
        self._interval = interval
        self._peak = 0.0
        self.peak_spill_mb = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def procs(self) -> list:
        return [self._root] + self._root.children(recursive=True)

    def host_cpu_times(self):
        return self._psutil.cpu_times()

    def cpu_s(self) -> float:
        total = 0.0
        for p in self.procs():
            try:
                t = p.cpu_times()
            except self._psutil.Error:  # exited between listing and reading
                continue
            # children_*: processes this one has reaped (finished Ray workers)
            total += t.user + t.system + t.children_user + t.children_system
        return total

    def rss_mb(self) -> float:
        total = 0
        for p in self.procs():
            try:
                total += p.memory_info().rss
            except self._psutil.Error:
                continue
        return total / 1e6

    def spill_mb(self) -> float:
        total = 0
        for dirpath, _, names in os.walk(self._spill_dir):
            for name in names:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:  # deleted once restored
                    continue
        return total / 1e6

    def _sample(self) -> None:
        while not self._stop.wait(self._interval):
            rss = self.rss_mb()
            spill = self.spill_mb()
            with self._lock:
                self._peak = max(self._peak, rss)
                self.peak_spill_mb = max(self.peak_spill_mb, spill)

    def start(self) -> None:
        self._thread.start()

    def reset_peak(self) -> None:
        rss = self.rss_mb()
        with self._lock:
            self._peak = rss

    def peak_mb(self) -> float:
        rss = self.rss_mb()
        with self._lock:
            return max(self._peak, rss)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)


class Run:
    """One benchmark run: set-up, warm-up, measured iterations, checks."""

    def __init__(self, args: argparse.Namespace, wl, meter: ProcMeter, ray_cpus: int) -> None:
        self.args = args
        self.wl = wl
        self.meter = meter
        self.ray_cpus = ray_cpus
        self.tracer = None
        self.ray_ops: list[dict] = []
        self.accuracy: dict[str, float] | None = None
        self.checks: dict[str, int] = {}
        self.failed_checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.iterations: list[dict] = []

    def record_checks(self, phase: str, checks: dict[str, bool]) -> None:
        for name, ok in checks.items():
            self.attempted += 1
            self.checks[name] = self.checks.get(name, 0) + 1
            if not ok:
                self.failed += 1
                self.failed_checks.append({"phase": phase, "check": name})

    def iterate(self, phase: str, tracer=None) -> tuple[dict, object]:
        """One timed end-to-end run of the workload, then its checks.
        Returns (timings, output); the output is None when the run raised."""
        self.meter.reset_peak()
        cpu0 = self.meter.cpu_s()
        host0 = self.meter.host_cpu_times()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run()
            else:
                with tracer.span(f"workload.{self.wl.name}"):
                    out = self.wl.run()
        except Exception:  # a failed run is a failed operation
            traceback.print_exc()
            self.record_checks(phase, {"run": False})
            return {"phase": phase, "error": True}, None
        wall = time.perf_counter() - t0
        host1 = self.meter.host_cpu_times()
        rec = {
            "phase": phase,
            "raw_wall_s": wall,
            "wall_s": net_time(wall, host0, host1),
            "cpu_s": self.meter.cpu_s() - cpu0,
            "peak_rss_mb": self.meter.peak_mb(),
            "steal_share": steal_share(host0, host1),
        }
        self.record_checks(phase, self.wl.check(out))
        if self.accuracy is None:  # the same for every build of one input
            self.accuracy = self.wl.accuracy(out)
        return rec, out

    def measure(self, phase: str, seconds: float, tracer=None, on_output=None) -> list[dict]:
        """Builds until ``seconds`` have passed (at least one). Outputs are
        dropped after their checks, so they do not pile up in this process."""
        recs = []
        t_end = time.perf_counter() + seconds
        while not recs or time.perf_counter() < t_end:
            rec, out = self.iterate(phase, tracer)
            if out is None:
                break
            if on_output is not None:
                on_output(out)
            recs.append(rec)
        self.iterations += recs
        return recs


def median(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def make_workload(name: str, tiny: bool, work_dir: str):
    if name == "motifs_k3":
        from perfbench.motifs import Motifs

        return Motifs(tiny=tiny)
    from perfbench.web import WebBuild

    return WebBuild(checkpointed=name == "web_build_ckpt", tiny=tiny, work_dir=work_dir)


def set_up(wl, seed: int, in_dir: str) -> list[float]:
    """Generates the inputs SETUP_REPS times, and more while they took less
    than SETUP_MIN_S in total; returns the net time of each set-up."""
    import psutil

    times: list[float] = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        shutil.rmtree(in_dir, ignore_errors=True)
        host0, t0 = psutil.cpu_times(), time.perf_counter()
        wl.prepare(seed, in_dir)
        times.append(net_time(time.perf_counter() - t0, host0, psutil.cpu_times()))
    return times


def traced_phase(run: Run, seconds: float, untraced: list[dict]) -> dict[str, float] | None:
    """Traced builds, then the single-process kernel pass. Returns the
    per-layer metrics, or None when no traced build succeeded."""
    from perfbench.tracing import Tracer

    wl = run.wl
    tracer = Tracer(run_id=f"{wl.name}-seed{run.args.seed}-{os.getpid()}")
    run.tracer = tracer
    run.meter.peak_spill_mb = 0.0
    layers: list[dict] = []

    def collect(out) -> None:
        m, run.ray_ops = wl.layer_metrics(tracer, out)
        layers.append(m)

    wl.instrument(tracer)
    try:
        traced = run.measure("traced", seconds, tracer, on_output=collect)
    finally:
        tracer.unwrap_all()
    if not traced:
        return None
    metrics: dict[str, float] = {}
    for key in sorted({k for m in layers for k in m}):
        metrics[key] = statistics.median(m[key] for m in layers if key in m)
    metrics["ray.spilled_mb"] = run.meter.peak_spill_mb
    metrics.update(run.accuracy or {})
    # the median net build, as for the end-to-end wall_s
    wall_s = median(untraced, "wall_s")
    metrics["trace.wall_s"] = median(traced, "wall_s")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
    # CPU seconds swing with the load other tenants put on a shared host
    # (22% between runs on a 4-vCPU VM), so they are a per-layer number
    metrics["cpu_s"] = median(untraced, "cpu_s")
    kern, floor_s = wl.kernels(tracer)
    metrics.update(kern)
    metrics["kernel_floor_s"] = floor_s
    metrics["kernel_floor_ratio"] = wall_s / (floor_s / run.ray_cpus)
    if "stages.udaf.partial_mb" in metrics:
        metrics["stages.udaf.partial_to_input_ratio"] = (
            metrics["stages.udaf.partial_mb"] / metrics["sources.input_mb"]
        )
    return metrics


def per_layer_names() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def start_ray(ray_cpus: int, ray_tmp: str, work_dir: str) -> str:
    """Starts a local Ray whose session files, object store and spill files
    all lie in ``ray_tmp`` and ``work_dir``; returns the session dir."""
    import ray

    plasma_dir = os.path.join(work_dir, "plasma")
    os.makedirs(plasma_dir, exist_ok=True)
    ray.init(
        address="local",
        num_cpus=ray_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        # a file in the work dir rather than /dev/shm: the run writes only
        # inside its checkout, and the inputs are small enough for the page cache
        _plasma_directory=plasma_dir,
        object_spilling_directory=os.path.join(work_dir, "spill"),
        _temp_dir=ray_tmp,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,  # worker output must not reach our stdout
    )
    return ray._private.worker._global_node.get_session_dir_path()


def end_to_end(wl, setup: list[float], iters: list[dict]) -> dict[str, float]:
    wall = median(iters, "wall_s")
    return {
        "rows_per_s": wl.rows / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        # resident memory creeps up with every build in one Ray session, so
        # the peak is taken at the same point of every run: the first build
        # after the warm-up
        "peak_rss_mb": iters[0]["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: no {PACKAGE}/ in {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    seed = args.seed % (1 << 32)  # the fixture generators take a 32-bit seed
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{seed}-{os.getpid()}")
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    sys.path.insert(0, ROOT)
    # Ray workers import the package and the benchmark from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    # scratch files of this process, of Ray and of its workers stay in the work dir
    os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = os.path.join(work_dir, "tmp")

    import logging

    import ray
    import ray.data

    import psutil  # vendored by Ray; importable once ray is

    become_subreaper()
    ray_tmp, ray_tmp_outside = ray_temp_dir()
    if ray_tmp_outside:
        print(f"perfbench: {ROOT} is too long for Ray's socket paths; Ray's session files go to {ray_tmp}", file=sys.stderr)
    ray_cpus = int(os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0)))
    wl = make_workload(args.workload, args.tiny, work_dir)
    meter = ProcMeter(os.path.join(work_dir, "spill"))
    run = Run(args, wl, meter, ray_cpus)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_context(ray_cpus),
        "setup": {},
    }
    probe_start, cpu_times0 = machine_probe(), psutil.cpu_times()
    metrics = None
    units = per_layer_names() if args.trace else END_TO_END
    try:
        # before Ray starts, so its processes do not compete with the set-up
        setup = set_up(wl, seed, os.path.join(work_dir, "input"))
        t0 = time.perf_counter()
        wl.reference()
        record["setup"].update(setup_s_reps=setup, reference_s=time.perf_counter() - t0)
        meter.start()
        t0 = time.perf_counter()
        start_ray(ray_cpus, ray_tmp, work_dir)
        record["setup"]["ray_init_s"] = time.perf_counter() - t0
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

        warm, _ = run.iterate("warmup")
        record["setup"]["warmup_s"] = warm.get("wall_s")
        if args.trace:
            untraced = run.measure("untraced", args.seconds / 2)
            metrics = traced_phase(run, args.seconds / 2, untraced) if untraced else None
            record["ray_operators"] = run.ray_ops
        else:
            iters = run.measure("measured", args.seconds)
            metrics = end_to_end(wl, setup, iters) if iters else None
    except Exception:  # set-up or Ray start-up failed: no build to measure
        traceback.print_exc()
        run.record_checks("setup", {"setup": False})
    finally:
        wl.cleanup()
        meter.stop()
        ray.shutdown()
        stop_descendants()
        record["machine"]["probe_start"] = probe_start
        record["machine"]["probe_end"] = machine_probe()
        record["machine"]["steal_share"] = steal_share(cpu_times0, psutil.cpu_times())
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    # with no successful build there is nothing to measure: the result
    # carries the failed checks and no metrics
    out_metrics = {}
    if metrics is not None:
        # every per-layer metric is reported; a layer the workload does not
        # exercise reads 0
        out_metrics = {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in units.items()}

    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}")
    if run.tracer is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(run.tracer.spans, fh, indent=1)
        record["spans_file"] = f"{stem}-spans.json"
    record.update(
        iterations=run.iterations,
        accuracy=run.accuracy,
        checks=run.checks,
        failed_checks=run.failed_checks,
        attempted=run.attempted,
        failed=run.failed,
        error_rate=run.failed / max(run.attempted, 1),
        metrics=out_metrics,
    )
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": out_metrics,
    }
    shown = ("trace.overhead_s", "kernel_floor_ratio") if args.trace else tuple(END_TO_END)
    print(
        f"perfbench {args.workload} seed={args.seed}: "
        + " ".join(f"{k}={out_metrics[k]['value']:.4g}" for k in shown if k in out_metrics)
        + f" error_rate={record['error_rate']:.3g} record={stem}-trace{args.trace}.json",
        file=sys.stderr,
    )
    print(json.dumps(result), flush=True)
    return 0 if out_metrics else 1


if __name__ == "__main__":
    sys.exit(main())
