"""Run the benchmark: one workload per process, end-to-end or traced.

One workload (what a comparison of two commits runs)::

    python3 bench/run.py --workload cab1 --seed 3 --seconds 12 --trace 0

prints every metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
alternates untraced and traced cycles of the same episodes, reports the
per-layer metrics instead and writes a Chrome trace to ``bench/out/``.

Without ``--workload`` every workload runs in its own fresh process, one
after another (``--runs N`` repeats each with seeds ``seed..seed+N-1``)
and ``--out`` collects the results; the command exits non-zero when any
check fails.  ``python3 -m bench.run`` works the same way.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: Measured seconds per run; equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 12
#: Set-ups per run; ``setup_s`` is their median (README.md, "Host
#: speed", has why 15).
SETUP_REPEATS = 15

#: Unit of every end-to-end metric.
E2E_UNITS = {
    "setup_s": "s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "deadline_hit_rate": "ratio",
    "sim_step_mean_kcycles": "kcycles",
    "sim_step_p95_kcycles": "kcycles",
    "ape_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def use_checkout_sources() -> None:
    """Import ``repro`` (and ``bench``) from this checkout, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {src}; "
                         f"run from a full checkout")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- provenance ---------------------------------------------------------

def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas_threads() -> Dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(getter())
                break
    return threads


def provenance(seed: int) -> Dict[str, Any]:
    """Where and how a result was measured."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "repro_workers": os.environ.get("REPRO_WORKERS"),
        "seed": seed,
    }


# -- host speed -----------------------------------------------------------

#: Seconds :func:`_speed_kernel` takes on the reference host.  Scaled
#: host times read as if measured at this speed; on the 2-vCPU Xeon VM
#: of README.md's measurements a run's median kernel time was 2.3-4.3 ms.
REFERENCE_KERNEL_S = 0.004


def _speed_kernel() -> int:
    """Fixed interpreter work: arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(20_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return total


def host_slowness() -> float:
    """How slow the host runs right now: the kernel's median time over
    five attempts, over the reference (1.3 means 30% slower than the
    reference host).

    Shared hosts change speed by tens of percent over seconds to
    minutes; see README.md, "Host speed".  The median, unlike the best
    attempt, does not follow the host's short fast bursts.  Each attempt
    waits 10 ms first, so BLAS worker threads still spinning after the
    workload's last call do not slow the kernel.
    """
    times = []
    for _ in range(5):
        time.sleep(0.01)
        start = time.perf_counter()
        _speed_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_KERNEL_S


# -- one workload -------------------------------------------------------

@dataclass
class Loop:
    """Episodes of one measuring loop and what was measured around them."""

    episodes: List = field(default_factory=list)
    durations: List[float] = field(default_factory=list)  # wall, per episode
    slowness: List[float] = field(default_factory=list)   # per episode
    samples: List[float] = field(default_factory=list)    # host_slowness()
    first_cycle_rss_mb: float = 0.0

    def scaled_seconds(self) -> float:
        """Total episode time at the reference host speed."""
        return sum(d / s for d, s in zip(self.durations, self.slowness))


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(workload, inputs, seconds: float, tracer=None,
          episodes: Optional[int] = None) -> Loop:
    """Run whole cycles of the workload's distinct episodes, stopping at
    the cycle boundary nearest ``seconds`` (after at least one cycle),
    or once ``episodes`` episodes have run.

    The host is sampled before the first episode, after the last, and
    after any episode ending a second or more past the previous sample.
    For an interpreter-bound workload an episode's slowness is the mean
    of the samples around it; otherwise it is 1.
    """
    loop = Loop()
    samples = loop.samples
    samples.append(host_slowness())
    sampled_at = time.perf_counter()
    pending = 0   # episodes since the last sample
    while True:
        start = time.perf_counter()
        loop.episodes.append(
            workload.episode(inputs, len(loop.episodes), tracer))
        loop.durations.append(time.perf_counter() - start)
        pending += 1
        count = len(loop.episodes)
        if count == workload.distinct:
            loop.first_cycle_rss_mb = _rss_mb()
        if episodes is not None:
            done = count >= episodes
        else:
            done = (count % workload.distinct == 0
                    and sum(loop.durations)
                    * (1.0 + 0.5 * workload.distinct / count) >= seconds)
        if done or time.perf_counter() - sampled_at >= 1.0:
            samples.append(host_slowness())
            sampled_at = time.perf_counter()
            around = (0.5 * (samples[-2] + samples[-1])
                      if workload.interpreter_bound else 1.0)
            loop.slowness.extend([around] * pending)
            pending = 0
        if done:
            return loop


def _cycles(values: List, distinct: int) -> List[List]:
    return [values[i:i + distinct] for i in range(0, len(values), distinct)]


def _per_op_latency(episodes: List, slowness: List[float], distinct: int):
    """Each op's median latency over the run's cycles (cycles repeat the
    same ops in the same order), divided by the slowness around it; all
    samples if a failure broke the repetition."""
    import numpy as np
    cycles = [[s / slow for e, slow in zip(eps, slows) for s in e.latencies]
              for eps, slows in zip(_cycles(episodes, distinct),
                                    _cycles(slowness, distinct))]
    if len({len(c) for c in cycles}) == 1:
        return np.median(np.array(cycles), axis=0)
    return np.array([s for c in cycles for s in c])


def _host_metrics(workload, loop: Loop,
                  slowness: List[float]) -> Dict[str, float]:
    """Latency, throughput and deadline metrics of one measuring loop,
    with each episode's host seconds divided by its ``slowness``."""
    d = workload.distinct
    per_op = _per_op_latency(loop.episodes, slowness, d)
    throughput = [
        sum(e.work - e.failed for e in eps)
        / sum(t / s for t, s in zip(times, slows))
        for eps, times, slows in zip(_cycles(loop.episodes, d),
                                     _cycles(loop.durations, d),
                                     _cycles(slowness, d))]
    done = sum(len(e.latencies) for e in loop.episodes)
    ops = sum(e.ops for e in loop.episodes)
    on_time = float((per_op <= workload.deadline).mean()) if done else 0.0
    return {
        "step_p50_ms": 1e3 * _percentile(per_op, 50),
        "step_p95_ms": 1e3 * _percentile(per_op, 95),
        "throughput_per_s": statistics.median(throughput),
        # Failed ops count as late.
        "deadline_hit_rate": on_time * done / ops,
    }


def run_workload(workload, seed: int, seconds: float,
                 trace: bool = False) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the full result."""
    from bench.layers import TARGETS, UNITS, layer_metrics
    from bench.trace import Tracer
    from bench.workloads import REFERENCE_SEED
    from repro.runtime.scheduler import LANE_CACHE_STATS

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)

    extras: Dict[str, float] = {}
    if trace:
        # Untraced and traced cycles alternate, so host drift hits both
        # sides of the overhead ratio (the median over the pairs) alike.
        tracer = Tracer()
        pairs: List[Tuple[Loop, Loop]] = []
        lane_hits = lane_misses = 0
        while not pairs or sum(sum(one.durations) for pair in pairs
                               for one in pair) < seconds:
            plain = _loop(workload, inputs, 0.0, episodes=workload.distinct)
            hits, misses = LANE_CACHE_STATS.hits, LANE_CACHE_STATS.misses
            with tracer.installed(TARGETS):
                traced = _loop(workload, inputs, 0.0, tracer,
                               episodes=workload.distinct)
            lane_hits += LANE_CACHE_STATS.hits - hits
            lane_misses += LANE_CACHE_STATS.misses - misses
            for episode in traced.episodes + (plain.episodes if pairs
                                              else []):
                episode.kept = None   # only the first cycle is checked
            pairs.append((plain, traced))
        episodes = [e for pair in pairs for one in pair for e in one.episodes]
        samples = [s for pair in pairs for one in pair for s in one.samples]
        traced_episodes = [e for _, one in pairs for e in one.episodes]
        counts: Dict[str, float] = {}
        for episode in traced_episodes:
            for name, value in episode.counts.items():
                counts[name] = counts.get(name, 0.0) + value
        values = layer_metrics(
            tracer, counts, sum(len(e.latencies) for e in traced_episodes),
            lane_hits, lane_misses, len(traced_episodes),
            statistics.median(t.scaled_seconds() / p.scaled_seconds()
                              for p, t in pairs) - 1.0,
            statistics.median(s for _, one in pairs for s in one.slowness))
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in UNITS}
        trace_path = OUT / f"{workload.name}-seed{seed}.trace.json"
        tracer.write_chrome_trace(trace_path, {"workload": workload.name,
                                               "seed": seed})
        extras.update(plain_s=sum(p.scaled_seconds() for p, _ in pairs),
                      traced_s=sum(t.scaled_seconds() for _, t in pairs))
    else:
        loop = _loop(workload, inputs, seconds)
        episodes, samples = loop.episodes, loop.samples
        extras["loop_s"] = sum(loop.durations)

    kept = [e.kept for e in episodes[:workload.distinct]
            if e.kept is not None]
    if len(kept) == workload.distinct:
        checks = workload.checks(inputs, kept)
    else:
        checks = [("distinct episodes completed", False,
                   f"{len(kept)} of {workload.distinct}")]

    checks_failed = sum(not ok for _, ok, _ in checks)
    attempted = sum(e.work for e in episodes) + len(checks)
    failed = sum(e.failed for e in episodes) + checks_failed
    extras.update(
        episodes=len(episodes),
        samples=sum(len(e.latencies) for e in episodes),
        host_slowness=statistics.median(samples),
        failed_ratio=failed / attempted)

    if not trace:
        sim, ape = workload.accuracy(workload.setup(REFERENCE_SEED))
        values = {
            # Divided by the run's host slowness, not the slowness right
            # around set-up: set-up is short, and the host's fast bursts
            # are shorter still (README.md, "Host speed").
            "setup_s": statistics.median(setup_times)
            / extras["host_slowness"],
            **_host_metrics(workload, loop, loop.slowness),
            "sim_step_mean_kcycles": 1e-3 * statistics.fmean(sim),
            "sim_step_p95_kcycles": 1e-3 * _percentile(sim, 95),
            "ape_ratio": ape,
            "peak_rss_mb": loop.first_cycle_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        # The same host metrics without the slowness correction.
        unscaled = _host_metrics(workload, loop, [1.0] * len(episodes))
        unscaled["setup_s"] = statistics.median(setup_times)
        extras.update(sim_samples=len(sim),
                      **{f"unscaled_{k}": v for k, v in unscaled.items()})

    return {
        "workload": workload.name, "op": workload.op, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extras": extras,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in checks],
        "provenance": provenance(seed),
    }


def _print_result(result: Dict[str, Any]) -> None:
    extras = result["extras"]
    passed = sum(c["ok"] for c in result["checks"])
    print(f"{result['workload']} seed {result['seed']}: "
          f"{extras['samples']} {result['op']}s in {extras['episodes']} "
          f"episodes; checks {passed}/{len(result['checks'])} passed")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print("  " + ", ".join(f"{k} {v:.6g}" for k, v in extras.items()))
    print(f"  provenance {json.dumps(result['provenance'])}")


# -- the suite ----------------------------------------------------------

def _summary(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median and quartiles of each metric over repeated runs."""
    out = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"median": statistics.median(values), "q1": q1,
                     "q3": q3, "unit": metric["unit"]}
    return out


def run_suite(names: List[str], seed: int, seconds: float, trace: bool,
              runs: int, out: Optional[Path]) -> int:
    """Each workload, ``runs`` times, each run in a fresh process."""
    OUT.mkdir(parents=True, exist_ok=True)
    results: Dict[str, List[Dict[str, Any]]] = {}
    ok = True
    for name in names:
        for run in range(runs):
            child_out = OUT / f"suite-{name}-{seed + run}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed + run),
                   "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--out", str(child_out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0 or not child_out.is_file():
                ok = False
            if child_out.is_file():
                with open(child_out) as handle:
                    results.setdefault(name, []).append(json.load(handle))
                child_out.unlink()
    if out is not None:
        report = {"provenance": provenance(seed), "runs": runs,
                  "seconds": seconds, "trace": int(trace), "workloads": {}}
        for name, done in results.items():
            report["workloads"][name] = {
                "summary": _summary(done),
                "runs": [{key: r[key] for key in
                          ("seed", "correct", "attempted", "failed",
                           "metrics", "extras")} for r in done]}
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": ok, "workloads": sorted(results)}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: runs per workload")
    parser.add_argument("--out", type=Path,
                        help="write the full results as JSON")
    args = parser.parse_args(argv)
    use_checkout_sources()
    from bench.workloads import make_workloads

    workloads = make_workloads()
    if args.workload is None:
        return run_suite(list(workloads), args.seed, args.seconds,
                         bool(args.trace), args.runs, args.out)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    result = run_workload(workloads[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    _print_result(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
