"""End-to-end benchmark of the DDC evaluation stack.

Run from the repository root::

    python3 ddcbench/run.py --workload design_space --seed 1 --seconds 20 --trace 0
    python3 ddcbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` is the timed run: tracing off, it reports the end-to-end
metrics (``setup_s``, ``peak_rss_mb``, ``work_per_s``, ``op_p90_ms``).
``--trace 1`` is the traced run: it reports the per-layer metrics.
Each workload runs in one process with one closed-loop client and the
program's serial defaults.  Every answer is checked, and after the
timed window a seeded subset of operations is re-run through the
in-tree oracles.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric with its unit and sample count, plus the run context.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("design_space", "population", "signal_stream")

#: A run holds at least this many operations, so that at least ten
#: samples lie beyond the 10th and the 90th percentile.
MIN_OPS = 110
#: ... but never runs more than this many seconds past ``--seconds`` to
#: reach them; a run that still falls short refuses to report its tail.
GRACE_S = 60.0
#: Read and clear the report caches, and collect cyclic garbage, every
#: this many operations.  A count, never a time, so state and memory do not
#: depend on the host's speed or on how long the run lasts.
CLEAR_EVERY = 20
#: Fresh processes that measure set-up time: one before the window, one
#: after it and the rest evenly spaced inside it (the clock is paused).
SETUP_PROBES = 5
#: Iterations of the pure-Python calibration loop.
CALIBRATION_ITERS = 300_000

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p90_ms": "ms",
}

#: Per-layer metrics of the traced run, in report order, with units.
#: Seconds are self time per traced operation; the rest are per operation
#: unless they are ratios.
PER_LAYER = {
    "import.repro_s": "s",
    "import.scipy_s": "s",
    "setup.build_s": "s",
    "archs.montium.model_s": "s",
    "archs.fpga.model_s": "s",
    "archs.gpp.model_s": "s",
    "archs.asic.model_s": "s",
    "archs.configs": "count",
    "core.cache_hit_ratio": "ratio",
    "core.candidates_s": "s",
    "energy.grid_s": "s",
    "energy.samples_s": "s",
    "energy.winners_s": "s",
    "sweep.engine_s": "s",
    "sweep.render_s": "s",
    "sweep.skipped_points": "count",
    "explore.engine_s": "s",
    "explore.pareto_s": "s",
    "explore.render_s": "s",
    "explore.evaluated_ratio": "ratio",
    "montecarlo.sample_s": "s",
    "montecarlo.dedup_s": "s",
    "montecarlo.table_s": "s",
    "montecarlo.report_s": "s",
    "montecarlo.render_s": "s",
    "montecarlo.engine_s": "s",
    "montecarlo.distinct_configs": "count",
    "montecarlo.bytes_per_user": "B",
    "dsp.fixed_ddc_s": "s",
    "archs.fpga.rtl_s": "s",
    "archs.montium.tile_s": "s",
    "archs.gpp.iss_s": "s",
    "archs.fpga.sim_cycles": "count",
    "archs.montium.sim_cycles": "count",
    "archs.gpp.sim_instructions": "count",
    "archs.fpga.rtl_ns_per_cycle": "ns",
    "archs.montium.tile_ns_per_cycle": "ns",
    "archs.gpp.iss_ns_per_instruction": "ns",
    "python.gc_s": "s",
    "op.unattributed_s": "s",
    "trace.overhead": "ratio",
}

#: Per-operation counts, read from the answers and from the spans.
COUNTS = (
    "archs.configs",
    "sweep.skipped_points",
    "explore.evaluated_ratio",
    "montecarlo.distinct_configs",
    "archs.fpga.sim_cycles",
    "archs.montium.sim_cycles",
    "archs.gpp.sim_instructions",
)

#: Simulated counts and the executor span whose host time they divide.
SIM_COUNTS = {
    "archs.fpga.rtl_ns_per_cycle": ("archs.fpga.rtl_s", "archs.fpga.sim_cycles"),
    "archs.montium.tile_ns_per_cycle": (
        "archs.montium.tile_s",
        "archs.montium.sim_cycles",
    ),
    "archs.gpp.iss_ns_per_instruction": (
        "archs.gpp.iss_s",
        "archs.gpp.sim_instructions",
    ),
}


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------
def tail_percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the samples beyond it.

    Beyond means above for an upper percentile (``q >= 50``) and below
    for a lower one.  Refuses a percentile with fewer than ten samples
    beyond it: such a tail is a handful of outliers, not a distribution.
    """
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank if q >= 50 else rank - 1
    if rank < 1 or beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            "need at least 10"
        )
    return ordered[rank - 1], beyond


def calibrate() -> float:
    """Rate of a fixed pure-Python loop (iterations/s); diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc + i * i) & 0xFFFF
    return CALIBRATION_ITERS / (time.perf_counter() - start)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# set-up probes (fresh processes)
# --------------------------------------------------------------------------
def probe_main(workload: str) -> int:
    """Body of a set-up probe: import and build, then report readiness."""
    sys.path.insert(0, str(SRC))
    import operations

    operations.WORKLOADS[workload]().setup()
    print(f"ready {time.perf_counter()!r}", flush=True)
    return 0


def run_probe(workload: str, importtime: bool = False) -> tuple[float, str]:
    """Seconds from process start until ``workload`` can run its first
    operation, measured in a fresh interpreter; plus its stderr."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "run.py"), "--setup-probe", workload]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    ready = float(proc.stdout.split()[-1])
    # perf_counter is CLOCK_MONOTONIC: one clock for parent and child.
    return ready - start, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing ``repro``'s and scipy's own modules.

    Sums the self time ``-X importtime`` reports for each module of the
    package, so each module counts once however deeply it is nested.
    """
    out = {"import.repro_s": 0.0, "import.scipy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[0].isdigit():
            continue
        key = f"import.{parts[2].split('.')[0]}_s"
        if key in out:
            out[key] += int(parts[0]) / 1e6
    return out


# --------------------------------------------------------------------------
# context
# --------------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_context() -> dict:
    import importlib.util

    import numpy
    import scipy
    from repro.kernels.dispatch import active_engines

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_engines": active_engines(),
        "commit": git_commit(),
        "src_digest": source_digest(),
    }


# --------------------------------------------------------------------------
# the timed window
# --------------------------------------------------------------------------
class Window:
    """One closed-loop client running operations back to back."""

    def __init__(self, workload, gates: list[int]) -> None:
        self.wl = workload
        self.gates = set(gates)
        self.caches = workload.caches()
        self.k = 0
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.rates: list[float] = []
        self.work = 0
        self.active_s = 0.0
        self.hits = 0
        self.misses = 0
        self.gate_s = 0.0

    def step(self, tracer=None, points=None) -> tuple[float, int, object]:
        """Run the next operation; returns (latency, work, result).

        The operation and its answer check are the client's active time;
        the benchmark's own bookkeeping (cache clears, oracle snapshots,
        installing the tracer) is not.
        """
        wl, k = self.wl, self.k
        self.k += 1
        if k % CLEAR_EVERY == 0:
            self.clear_caches()
        if k in self.gates:
            wl.before_gate(k)
        self.attempted += 1
        if tracer is not None:
            tracer.install(points)
        start = time.perf_counter()
        try:
            result = self.call(k, tracer)
            latency = time.perf_counter() - start
            wl.check(result)
        except Exception as exc:  # noqa: BLE001 - a raise or a wrong answer
            self.fail(k, exc)
            return 0.0, 0, None
        finally:
            self.active_s += time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if k in self.gates:
            wl.record(k, result)
        work = wl.work(result)
        self.latencies.append(latency)
        self.rates.append(work / latency)
        self.work += work
        return latency, work, result

    def call(self, k: int, tracer):
        if tracer is None:
            return self.wl.op(k)
        import spans

        root = tracer.begin(spans.ROOT)
        try:
            return self.wl.op(k)
        finally:
            tracer.end(root)

    def fail(self, k: int, exc: Exception) -> None:
        self.failed.add(k)
        self.errors.append(f"op {k}: {type(exc).__name__}: {exc}")

    def clear_caches(self) -> None:
        for cache in self.caches:
            self.hits += cache.hits
            self.misses += cache.misses
            cache.clear()
        # Reports sit in reference cycles that only a full collection
        # frees; left to the collector's own schedule, the population
        # run's peak RSS grew from 192 to 282 MB between operations 70
        # and 130.
        gc.collect()

    def run(self, seconds: float, pause=None, pauses: int = 0, step=None) -> None:
        """Run until ``seconds`` of active time and at least ``MIN_OPS``
        operations; ``pause`` runs ``pauses`` times, evenly spaced."""
        step = step or self.step
        done = 0
        limit = seconds + GRACE_S
        while (
            self.active_s < seconds or len(self.latencies) < MIN_OPS
        ) and self.active_s < limit:
            if done < pauses and self.active_s >= seconds * (done + 1) / (pauses + 1):
                pause()
                done += 1
            step()

    def gate(self) -> int:
        """Re-run the gate operations through the oracles."""
        start = time.perf_counter()
        ran = 0
        for k in sorted(self.gates):
            if k >= self.k or k in self.failed:
                continue
            try:
                self.wl.gate(k)
            except Exception as exc:  # noqa: BLE001 - a mismatch or raise
                self.fail(k, exc)
            ran += 1
        self.gate_s = time.perf_counter() - start
        return ran


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------
def prepare(name: str, seed: int):
    """Seeded inputs, then the in-process set-up."""
    import inputs
    import operations

    wl = operations.WORKLOADS[name](inputs.generate(name, seed))
    wl.setup()
    return wl


def warm_up(wl) -> None:
    """One untimed operation on inputs the window never uses: lazy
    imports and first-call set-up happen here, not in the first sample."""
    import inputs

    wl.check(wl.op(inputs.N_OPS - 1))
    for cache in wl.caches():
        cache.clear()


def timed_run(name: str, seed: int, seconds: float) -> dict:
    import inputs

    wl = prepare(name, seed)
    gates = inputs.gate_indices(seed)
    window = Window(wl, gates)
    calibration = [calibrate()]
    setup = [run_probe(name)[0]]

    def pause() -> None:
        setup.append(run_probe(name)[0])
        calibration.append(calibrate())

    warm_up(wl)
    window.run(seconds, pause, SETUP_PROBES - 2)
    window.clear_caches()
    rss = peak_rss_mb()
    calibration.append(calibrate())
    setup.append(run_probe(name)[0])
    gated = window.gate()

    p90, beyond90 = tail_percentile(window.latencies, 90)
    p10, beyond10 = tail_percentile(window.latencies, 10)
    # The rate nine tenths of the operations reached or beat.  The window
    # rate (work / active time) moves with the share of the run the host
    # spent in its fast phases, and the fast phases vary in speed; the
    # slow phase is the host's steady floor.  See the README.
    rate, _ = tail_percentile(window.rates, 10)
    n = len(window.latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "work_per_s": rate,
        "op_p90_ms": p90 * 1e3,
    }
    samples = {
        "setup_s": len(setup),
        "peak_rss_mb": 1,
        "work_per_s": n,
        "op_p90_ms": n,
    }
    info = {
        "op_p10_ms": p10 * 1e3,
        "op_p50_ms": statistics.median(window.latencies) * 1e3,
        "samples_below_p10": beyond10,
        "samples_above_p90": beyond90,
        "window_s": window.active_s,
        "window_work_per_s": window.work / window.active_s,
        "setup_probes_s": setup,
        "calibration_iter_per_s": calibration,
        "gate_ops": gated,
        "work_unit": wl.work_unit,
    }
    return finish(window, gated, metrics, END_TO_END, samples, info)


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Per-layer numbers; operations alternate untraced and traced, so
    both halves see the same host speed phases."""
    import inputs
    import spans

    wl = prepare(name, seed)
    _, stderr = run_probe(name, importtime=True)
    gates = inputs.gate_indices(seed)
    calibration = [calibrate()]
    warm_up(wl)
    window = Window(wl, gates)
    tracer = spans.Tracer()
    points = spans.entry_points()
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    halves = {False: [0.0, 0, 0], True: [0.0, 0, 0]}  # time, work, ops

    def step() -> None:
        traced = window.k % 2 == 1
        latency, work, result = window.step(tracer if traced else None, points)
        if result is None:
            tracer.drain()
            return
        half = halves[traced]
        half[0] += latency
        half[1] += work
        half[2] += 1
        if traced:
            for key, value in tracer.drain().items():
                selfs[key] = selfs.get(key, 0.0) + value
            for key, value in wl.counts(result).items():
                counts[key] = counts.get(key, 0.0) + value

    window.run(seconds, step=step)
    window.clear_caches()
    calibration.append(calibrate())
    users = getattr(wl, "users", 0)
    bytes_per_user = measure_bytes_per_op(wl, window.k) / users if users else 0.0
    gated = window.gate()

    ops = max(halves[True][2], 1)
    metrics = import_times(stderr)
    metrics["setup.build_s"] = wl.build_s
    metrics.update({key: 0.0 for key in spans.SPAN_NAMES})
    metrics.update({key: value / ops for key, value in selfs.items()})
    unattributed = metrics.pop(spans.ROOT, 0.0)
    for key, value in tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + value
    metrics.update({key: counts.get(key, 0.0) / ops for key in COUNTS})
    lookups = window.hits + window.misses
    metrics["core.cache_hit_ratio"] = window.hits / lookups if lookups else 0.0
    metrics["montecarlo.bytes_per_user"] = bytes_per_user
    for key, (span, count) in SIM_COUNTS.items():
        sim = metrics[count]
        metrics[key] = metrics[span] * 1e9 / sim if sim else 0.0
    metrics["python.gc_s"] = tracer.gc_s / ops
    metrics["op.unattributed_s"] = unattributed
    untraced_rate = halves[False][1] / halves[False][0]
    traced_rate = halves[True][1] / halves[True][0]
    metrics["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    if metrics.keys() != PER_LAYER.keys():
        drift = metrics.keys() ^ PER_LAYER.keys()
        raise RuntimeError(f"metric set drifted: {drift}")
    metrics = {key: metrics[key] for key in PER_LAYER}
    samples = {key: halves[True][2] for key in metrics}
    samples.update({"import.repro_s": 1, "import.scipy_s": 1, "setup.build_s": 1})
    traced_mean = halves[True][0] / ops
    info = {
        "traced_ops": halves[True][2],
        "untraced_ops": halves[False][2],
        "traced_op_mean_s": traced_mean,
        "unattributed_share": unattributed / traced_mean,
        "span_calls": dict(sorted(tracer.calls.items())),
        "calibration_iter_per_s": calibration,
        "gate_ops": gated,
    }
    return finish(window, gated, metrics, PER_LAYER, samples, info)


def measure_bytes_per_op(wl, k: int) -> float:
    """tracemalloc peak of one extra operation (bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        wl.op(k)
        return float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def finish(window, gated, metrics, units, samples, info) -> dict:
    info["gate_s"] = window.gate_s
    info["errors"] = window.errors[:10]
    info["context"] = run_context()
    info["workload"] = window.wl.name
    return {
        "correct": not window.failed and gated > 0,
        "attempted": window.attempted,
        "failed": len(window.failed),
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
        "samples": samples,
        "info": info,
    }


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------
def print_report(result: dict) -> None:
    info = result["info"]
    print(
        f"workload {info['workload']}: attempted {result['attempted']}, "
        f"failed {result['failed']}, oracle-gated {info['gate_ops']}, "
        f"correct {result['correct']}"
    )
    for key, metric in result["metrics"].items():
        n = result["samples"][key]
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']:6s} n={n}")
    extra = {k: v for k, v in info.items() if k not in ("context", "workload")}
    print("  info " + json.dumps(extra, sort_keys=True))
    print("  context " + json.dumps(info["context"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds)
    print_report(result)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: result[key] for key in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
