"""Command-line interface.

Subcommands::

    python -m repro generate --dataset M3500 --scale 0.1 out.g2o
    python -m repro solve in.g2o --solver lm --out solved.g2o
    python -m repro simulate --dataset CAB1 --scale 0.2 --platform supernova2
    python -m repro autotune --dataset CAB2 --max-area-um2 1262000
    python -m repro info in.g2o

``solve`` optimizes a g2o pose graph (Gauss-Newton, Levenberg-Marquardt
or incremental ISAM2); ``simulate`` streams a generated dataset through
RA-ISAM2 on a chosen platform model and reports latency/miss statistics;
``autotune`` replays a recorded workload over the SuperNoVA design grid
and reports the latency/area/energy Pareto front.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import RAISAM2
from repro.datasets import (
    cab1_dataset,
    cab2_dataset,
    kidnapped_robot_dataset,
    long_term_revisit_dataset,
    manhattan_dataset,
    multi_robot_rendezvous_dataset,
    read_g2o,
    run_online,
    sphere_dataset,
    write_g2o,
)
from repro.factorgraph import FactorGraph, PriorFactorSE2, PriorFactorSE3
from repro.factorgraph.noise import DiagonalNoise
from repro.geometry import SE2, SE3
from repro.hardware.registry import make_platform
from repro.linalg.ordering import ordering_names
from repro.metrics import latency_stats
from repro.policy import controller_names, selection_names
from repro.runtime import NodeCostModel
from repro.solvers import GaussNewton, ISAM2, IncrementalEngine, \
    LevenbergMarquardt

DATASETS = {
    "M3500": manhattan_dataset,
    "Sphere": sphere_dataset,
    "CAB1": cab1_dataset,
    "CAB2": cab2_dataset,
    "Kidnapped": kidnapped_robot_dataset,
    "Revisit": long_term_revisit_dataset,
    "Rendezvous": multi_robot_rendezvous_dataset,
}

#: CLI platform name -> registry platform name (see repro.hardware.registry).
PLATFORMS = {
    "boom": "BOOM",
    "mobile-cpu": "MobileCPU",
    "mobile-dsp": "MobileDSP",
    "server": "ServerCPU",
    "gpu": "EmbeddedGPU",
    "spatula2": "Spatula2S",
    "supernova1": "SuperNoVA1S",
    "supernova2": "SuperNoVA2S",
    "supernova4": "SuperNoVA4S",
}


def _anchor_prior(key, pose):
    """A tight prior pinning ``key`` at ``pose`` (None if not a pose)."""
    if isinstance(pose, SE2):
        return PriorFactorSE2(key, pose, DiagonalNoise([1e-3, 1e-3, 1e-4]))
    if isinstance(pose, SE3):
        return PriorFactorSE3(key, pose,
                              DiagonalNoise([1e-3] * 3 + [1e-4] * 3))
    return None


def _add_anchor_if_needed(values, factors) -> List:
    """g2o files usually carry no prior; anchor the first vertex."""
    keys = sorted(values.keys())
    if not keys:
        return list(factors)
    prior = _anchor_prior(keys[0], values.at(keys[0]))
    if prior is None:
        return list(factors)
    return [prior] + list(factors)


def cmd_generate(args) -> int:
    data = DATASETS[args.dataset](scale=args.scale, seed=args.seed)
    from repro.factorgraph import Values
    values = Values()
    for key, pose in data.ground_truth.items():
        values.insert(key, pose)
    factors = [f for step in data.steps for f in step.factors
               if len(f.keys) == 2]
    write_g2o(args.output, values, factors)
    print(f"{data.describe()} -> {args.output}")
    return 0


def cmd_info(args) -> int:
    values, factors = read_g2o(args.input)
    dims = {type(values.at(k)).__name__ for k in values.keys()}
    print(f"{args.input}: {len(values)} vertices ({', '.join(dims)}), "
          f"{len(factors)} edges")
    return 0


def cmd_solve(args) -> int:
    values, factors = read_g2o(args.input)
    factors = _add_anchor_if_needed(values, factors)
    graph = FactorGraph()
    for factor in factors:
        graph.add(factor)

    if args.solver == "gn":
        result = GaussNewton(max_iterations=args.iterations,
                             ordering=args.ordering,
                             workers=args.workers) \
            .optimize(graph, values)
        solved, error = result.values, result.final_error
    elif args.solver == "lm":
        result = LevenbergMarquardt(max_iterations=args.iterations,
                                    ordering=args.ordering,
                                    workers=args.workers) \
            .optimize(graph, values)
        solved, error = result.values, result.final_error
    else:  # isam2: feed variables in key order
        if args.ordering not in IncrementalEngine.ORDERINGS:
            print(f"solver isam2 supports orderings "
                  f"{'/'.join(IncrementalEngine.ORDERINGS)}, "
                  f"not {args.ordering!r}", file=sys.stderr)
            return 2
        solver = ISAM2(relin_threshold=0.01, ordering=args.ordering,
                       workers=args.workers)
        pending = {index: graph.factor(index)
                   for index in graph.factor_indices()}
        added = set()
        for key in sorted(values.keys()):
            added.add(key)
            ready = [i for i, f in pending.items()
                     if all(k in added for k in f.keys)]
            factors_now = [pending.pop(i) for i in ready]
            if not factors_now:
                # First vertex of a disconnected component (e.g. a
                # second robot's key namespace): anchor it so the
                # incremental factorization stays positive definite.
                anchor = _anchor_prior(key, values.at(key))
                if anchor is not None:
                    factors_now = [anchor]
                    graph.add(anchor)
            solver.update({key: values.at(key)}, factors_now)
        solved = solver.estimate()
        error = graph.error(solved)

    print(f"solved with {args.solver}: final objective {error:.6g}")
    if args.output:
        edges = [f for f in graph.factors() if len(f.keys) == 2]
        write_g2o(args.output, solved, edges)
        print(f"wrote {args.output}")
    return 0


def cmd_simulate(args) -> int:
    data = DATASETS[args.dataset](scale=args.scale, seed=args.seed)
    soc = make_platform(PLATFORMS[args.platform])
    target = args.target_ms * 1e-3
    if soc.has_accelerators:
        solver = RAISAM2(NodeCostModel(soc), target_seconds=target,
                         selection_policy=args.selection,
                         selection_seed=args.seed,
                         budget_controller=args.budget_controller,
                         ordering=args.ordering, workers=args.workers)
    else:
        if args.budget_controller != "fixed":
            print(f"platform {args.platform} runs plain ISAM2 "
                  f"(no budget to control)", file=sys.stderr)
            return 2
        solver = ISAM2(relin_threshold=0.05,
                       selection_policy=args.selection,
                       selection_seed=args.seed,
                       ordering=args.ordering, workers=args.workers)
    run = run_online(solver, data, soc=soc, collect_errors=False)
    stats = latency_stats(run.latency_seconds(), target)
    print(f"{data.describe()} on {soc.name}")
    print(f"policies: selection={args.selection}, "
          f"budget-controller={args.budget_controller}")
    print(f"per-step latency: median {1e3 * stats.median:.3f} ms, "
          f"p95 {1e3 * stats.p95:.3f} ms, max {1e3 * stats.maximum:.3f} ms")
    print(f"target {args.target_ms} ms, misses "
          f"{100 * stats.miss_rate:.1f}%")
    hits = sum(r.extras.get("plan_hits", 0.0) for r in run.reports)
    compiles = sum(r.extras.get("plan_compiles", 0.0) for r in run.reports)
    total = hits + compiles
    rate = 100.0 * hits / total if total else 0.0
    print(f"step plans: {int(hits)} hits, {int(compiles)} compiles "
          f"({rate:.1f}% reused)")
    par_nodes = sum(r.extras.get("parallel_nodes", 0.0)
                    for r in run.reports)
    if par_nodes:
        task = sum(r.extras.get("wall_speedup", 1.0) > 1.0
                   for r in run.reports)
        best = max(r.extras.get("wall_speedup", 1.0) for r in run.reports)
        print(f"parallel execution: {int(par_nodes)} fronts dispatched, "
              f"{task} steps overlapped, best wall speedup {best:.2f}x")
    last = run.reports[-1] if run.reports else None
    if last is not None and "tree_height" in last.extras:
        print(f"elimination tree ({args.ordering}): "
              f"height {int(last.extras['tree_height'])}, "
              f"max width {int(last.extras['tree_max_width'])}, "
              f"fill {int(last.extras['tree_fill_nnz'])} nnz")
    return 0


def cmd_autotune(args) -> int:
    """Design-space sweep over recorded traces (see hardware.autotune)."""
    from repro.hardware.autotune import default_grid
    from repro.experiments.autotune_report import (
        autotune_dataset,
        autotune_report,
    )

    axes = {}
    if args.dims:
        axes["systolic_dims"] = args.dims
    if args.sets:
        axes["set_counts"] = args.sets
    if args.tiles:
        axes["tile_counts"] = args.tiles
    if args.llc_kib:
        axes["llc_sizes"] = [kib * 1024 for kib in args.llc_kib]
    if args.dram:
        axes["dram_bandwidths"] = args.dram
    grid = default_grid(**axes)
    for point in grid:
        point.spec()  # reject invalid axes before recording the workload
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose \
        else None
    result = autotune_dataset(args.dataset, grid=grid, log=log)
    print(autotune_report(result, top=args.top))
    if args.max_area_um2 is not None or args.max_power_w is not None:
        best = result.best_under(max_area_um2=args.max_area_um2,
                                 max_power_watts=args.max_power_w)
        if best is None:
            print("no configuration satisfies the requested budget")
            return 1
        point = result.points[best]
        print(f"best under requested budget: {point.label} "
              f"({1e3 * result.total_seconds[best]:.2f} ms, "
              f"{result.area_um2[best]:.0f} um^2, "
              f"{1e3 * result.peak_power_watts[best]:.0f} mW)")
    return 0


def cmd_serve_bench(args) -> int:
    """Fleet-vs-isolated serving benchmark (see repro.serving.bench)."""
    from repro.serving import (
        FleetConfig,
        compare_snapshots,
        default_solver_factory,
        named_fleet_workload,
        run_fleet,
        run_isolated,
    )

    workloads = named_fleet_workload(args.workload, args.sessions,
                                     args.steps)
    factory = default_solver_factory(
        relin_threshold=args.relin_threshold,
        selection_policy=args.selection)
    config = FleetConfig(workers=args.workers, degrade=not args.no_degrade,
                         target_seconds=args.target_ms * 1e-3)
    iso = run_isolated(workloads, factory)
    flt, fleet = run_fleet(workloads, factory, config)
    print(f"workload={args.workload} selection={args.selection} "
          f"sessions={args.sessions} steps/session={args.steps}")
    print(f"isolated: {iso.elapsed:.3f} s "
          f"({iso.session_steps_per_second:.1f} session-steps/s)")
    print(f"fleet:    {flt.elapsed:.3f} s "
          f"({flt.session_steps_per_second:.1f} session-steps/s, "
          f"{iso.elapsed / max(flt.elapsed, 1e-12):.2f}x)")
    agg = fleet.aggregates()
    print("fleet aggregates: "
          + " ".join(f"{key}={agg[key]:g}" for key in sorted(agg)))
    if config.degrade:
        print("bit-identity check skipped (degradation enabled; "
              "rerun with --no-degrade to verify)")
        return 0
    try:
        compare_snapshots(iso.snapshots, flt.snapshots, atol=0.0)
    except AssertionError as exc:
        print(f"BIT-IDENTITY FAILURE: {exc}")
        return 1
    print("fleet estimates bit-identical to isolated sessions (atol=0)")
    return 0


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a dataset as g2o")
    gen.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    gen.add_argument("--scale", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("output")
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="describe a g2o file")
    info.add_argument("input")
    info.set_defaults(func=cmd_info)

    solve = sub.add_parser("solve", help="optimize a g2o pose graph")
    solve.add_argument("input")
    solve.add_argument("--solver", choices=("gn", "lm", "isam2"),
                       default="lm")
    solve.add_argument("--iterations", type=int, default=30)
    solve.add_argument("--ordering", choices=ordering_names(),
                       default="chronological",
                       help="elimination ordering policy (isam2 supports "
                            "chronological/constrained_colamd)")
    solve.add_argument("--workers", type=int, default=None,
                       help="thread-pool size for the level-scheduled "
                            "factorization (bit-identical at every count; "
                            "0 = one per CPU, default reads REPRO_WORKERS)")
    solve.add_argument("--out", dest="output")
    solve.set_defaults(func=cmd_solve)

    sim = sub.add_parser("simulate",
                         help="latency simulation on a platform model")
    sim.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    sim.add_argument("--scale", type=float, default=0.1)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--platform", choices=sorted(PLATFORMS),
                     default="supernova2")
    sim.add_argument("--target-ms", type=float, default=33.3)
    sim.add_argument("--ordering",
                     choices=IncrementalEngine.ORDERINGS,
                     default="chronological",
                     help="incremental elimination ordering policy")
    sim.add_argument("--selection", choices=selection_names(),
                     default="relevance",
                     help="registered relinearization-selection policy "
                          "(see repro.policy)")
    sim.add_argument("--budget-controller", choices=controller_names(),
                     default="fixed",
                     help="registered adaptive budget controller "
                          "(accelerated platforms only)")
    sim.add_argument("--workers", type=int, default=None,
                     help="thread-pool size for level-scheduled numeric "
                          "execution (bit-identical at every count; 0 = "
                          "one per CPU, default reads REPRO_WORKERS)")
    sim.set_defaults(func=cmd_simulate)

    tune = sub.add_parser(
        "autotune",
        help="design-space sweep over a recorded workload's traces")
    tune.add_argument("--dataset", choices=sorted(DATASETS),
                      default="CAB2",
                      help="workload (scaled like the benchmark suite; "
                           "set REPRO_SCALE/REPRO_FULL to change)")
    tune.add_argument("--dims", type=_int_list, default=None,
                      metavar="D1,D2,...",
                      help="systolic array dimensions (default 2,4,8,16)")
    tune.add_argument("--sets", type=_int_list, default=None,
                      metavar="N1,N2,...",
                      help="accelerator set counts (default 1,2,3,4)")
    tune.add_argument("--tiles", type=_int_list, default=None,
                      metavar="N1,N2,...",
                      help="CPU tile counts (default 1,2,3,4)")
    tune.add_argument("--llc-kib", type=_int_list, default=None,
                      metavar="K1,K2,...",
                      help="LLC sizes in KiB (default 512,1024,2048,4096)")
    tune.add_argument("--dram", type=_float_list, default=None,
                      metavar="B1,B2,...",
                      help="DRAM bytes/cycle (default 8,16,32,64)")
    tune.add_argument("--top", type=int, default=16,
                      help="Pareto-front rows to print")
    tune.add_argument("--max-area-um2", type=float, default=None)
    tune.add_argument("--max-power-w", type=float, default=None)
    tune.add_argument("--verbose", action="store_true")
    tune.set_defaults(func=cmd_autotune)

    serve = sub.add_parser(
        "serve-bench",
        help="multi-tenant serving benchmark: fleet vs isolated loops")
    serve.add_argument("--sessions", type=int, default=8)
    serve.add_argument("--steps", type=int, default=25,
                       help="trajectory steps per session")
    serve.add_argument("--workload", default="chain",
                       choices=("chain", "kidnapped", "revisit",
                                "rendezvous"),
                       help="benign shared-topology chain or an "
                            "adversarial generator from "
                            "repro.datasets.adversarial")
    serve.add_argument("--selection", choices=selection_names(),
                       default="relevance",
                       help="per-session selection policy consulted "
                            "for the overload-shedding cut")
    serve.add_argument("--relin-threshold", type=float, default=0.1)
    serve.add_argument("--target-ms", type=float, default=33.3,
                       help="per-session step-latency budget fed to the "
                            "admission controller")
    serve.add_argument("--workers", type=int, default=None,
                       help="shared worker-pool size (0 = one per CPU)")
    serve.add_argument("--no-degrade", action="store_true",
                       help="pin relin_scale at 1.0 and gate estimates "
                            "bit-identical to the isolated baseline")
    serve.set_defaults(func=cmd_serve_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
