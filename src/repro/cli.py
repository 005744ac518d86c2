"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list                       # enumerate experiments
    python -m repro run figure4                # print one figure's series
    python -m repro run all                    # regenerate everything
    python -m repro run table3 --format csv    # machine-readable export
    python -m repro run figure4 -o fig4.json --format json
    python -m repro solve --alpha 0.8 ...      # solve one scenario ad hoc
    python -m repro topology abilene           # topology statistics
    python -m repro sensitivity --gamma 5      # sensitive range of alpha
    python -m repro protocol geant             # coordination protocol cost
    python -m repro scale --routers 5000 --regions 100   # sharded ISP-scale run
    python -m repro approx abilene -c 100      # Che/TTL approximate solve
    python -m repro ccn us-a --queue-size 8    # batched packet-level CCN run
    python -m repro ccn us-a --sweep           # contention-vs-l* experiment
    python -m repro lint src tests             # whole-program static checks

The default output is the fixed-width text rendering of
:mod:`repro.analysis.tables`, suitable for redirecting into files and
diffing across runs; ``--format csv``/``json`` switch to
machine-readable exports.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis.experiments import ALL_EXPERIMENTS, TableData
from .analysis.export import export_result
from .analysis.sweep import SOLVERS, FigureData
from .analysis.tables import render_figure, render_table
from .core.scenario import Scenario
from .errors import ReproError

__all__ = ["main", "build_parser"]


def _shard_count(value: str):
    """``--shards`` argument: a non-negative worker count or ``auto``."""
    if value == "auto":
        return value
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count or 'auto', got {value!r}"
        ) from None
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"shard count must be a positive integer, 0 (in-process) or "
            f"'auto', got {count}"
        )
    return count


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures of 'Coordinating In-Network "
            "Caching in Content-Centric Networks' (ICDCS 2013)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"experiment id: one of {', '.join(ALL_EXPERIMENTS)} or 'all'",
    )
    run.add_argument(
        "--format",
        choices=("text", "csv", "json", "ascii"),
        default="text",
        help="output format (default: text; 'ascii' draws figures as charts)",
    )
    run.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the result to a file instead of stdout",
    )
    run.add_argument(
        "--solver",
        choices=SOLVERS,
        default=SOLVERS[0],
        help=(
            "solver backing sweep figures: the closed analytical form, "
            "solved as one vectorized grid ('batched', the default) or "
            "point by point ('scalar'), or the Che/TTL approximation of "
            "LRU dynamics ('approx'); figure experiments only"
        ),
    )
    run.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help=(
            "record metrics and spans to a JSON-lines events file "
            "(render it with 'repro obs summarize PATH')"
        ),
    )

    solve = subparsers.add_parser("solve", help="solve a single scenario")
    solve.add_argument("--alpha", type=float, default=0.5)
    solve.add_argument("--gamma", type=float, default=5.0)
    solve.add_argument("--exponent", "-s", type=float, default=0.8)
    solve.add_argument("--routers", "-n", type=int, default=20)
    solve.add_argument("--catalog", "-N", type=int, default=10**6)
    solve.add_argument("--capacity", "-c", type=float, default=10**3)
    solve.add_argument("--unit-cost", "-w", type=float, default=26.7)
    solve.add_argument("--peer-delta", type=float, default=2.2842)
    solve.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="record metrics and spans to a JSON-lines events file",
    )

    obs = subparsers.add_parser(
        "obs", help="observability utilities (events-file tooling)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="render a human-readable summary of an events file"
    )
    summarize.add_argument("events", help="path to an events .jsonl (or .jsonl.gz)")

    topo = subparsers.add_parser(
        "topology", help="show a topology's statistics and Table III row"
    )
    topo.add_argument("name", help="abilene | cernet | geant | us-a")

    sens = subparsers.add_parser(
        "sensitivity", help="sensitive alpha-range and parameter sensitivities"
    )
    sens.add_argument("--gamma", type=float, default=5.0)
    sens.add_argument("--exponent", "-s", type=float, default=0.8)
    sens.add_argument("--alpha", type=float, default=0.5)

    proto = subparsers.add_parser(
        "protocol", help="distributed coordination protocol cost on a topology"
    )
    proto.add_argument("name", help="abilene | cernet | geant | us-a")
    proto.add_argument("--level", type=float, default=0.5)
    proto.add_argument("--capacity", type=int, default=20)

    scale = subparsers.add_parser(
        "scale",
        help=(
            "generate a synthetic multi-tier ISP topology and run a "
            "region-sharded simulation over it"
        ),
    )
    scale.add_argument("--routers", type=int, default=1000)
    scale.add_argument("--regions", type=int, default=20)
    scale.add_argument("--tiers", type=int, choices=(2, 3), default=3)
    scale.add_argument("--requests", type=int, default=1_000_000)
    scale.add_argument("--warmup", type=int, default=0)
    scale.add_argument("--capacity", "-c", type=int, default=100)
    scale.add_argument(
        "--policy",
        choices=("lru", "lfu", "perfect-lfu", "fifo", "random"),
        default="lru",
    )
    scale.add_argument("--level", type=float, default=0.5)
    scale.add_argument("--exponent", "-s", type=float, default=0.8)
    scale.add_argument("--catalog", "-N", type=int, default=10_000)
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--mode", choices=("dynamic", "steady"), default="dynamic")
    scale.add_argument("--metric", choices=("hops", "latency"), default="hops")
    scale.add_argument(
        "--shards",
        type=_shard_count,
        default="auto",
        metavar="N",
        help=(
            "worker processes for the region shards: an integer, "
            "'auto' (available CPUs, capped at the region count) or 0 "
            "(in-process); results are identical for every value"
        ),
    )
    scale.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="record metrics and spans to a JSON-lines events file",
    )

    approx = subparsers.add_parser(
        "approx",
        help=(
            "solve a topology with the Che/TTL approximation layer "
            "(milliseconds instead of a full simulation run)"
        ),
    )
    approx.add_argument("name", help="abilene | cernet | geant | us-a")
    approx.add_argument("--capacity", "-c", type=int, default=100)
    approx.add_argument("--level", type=float, default=0.5)
    approx.add_argument(
        "--policy",
        choices=("lru", "random", "fifo", "perfect-lfu"),
        default="lru",
    )
    approx.add_argument("--exponent", "-s", type=float, default=0.8)
    approx.add_argument("--catalog", "-N", type=int, default=10_000)
    approx.add_argument(
        "--mode",
        choices=("custodian", "en-route"),
        default="custodian",
        help=(
            "custodian: the paper's coordinated-placement model; "
            "en-route: caching along the path to the origin gateway"
        ),
    )
    approx.add_argument("--metric", choices=("hops", "latency"), default="hops")
    approx.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="record metrics and spans to a JSON-lines events file",
    )

    ccn = subparsers.add_parser(
        "ccn",
        help=(
            "batched packet-level CCN run (PIT aggregation + finite "
            "store queues), or the contention-vs-l* sweep"
        ),
    )
    ccn.add_argument("name", help="abilene | cernet | geant | us-a")
    ccn.add_argument("--capacity", "-c", type=int, default=100)
    ccn.add_argument("--level", type=float, default=0.5)
    ccn.add_argument("--requests", type=int, default=100_000)
    ccn.add_argument(
        "--interarrival",
        type=float,
        default=1.0,
        metavar="MS",
        help="request inter-arrival time in ms (smaller = more contention)",
    )
    ccn.add_argument("--exponent", "-s", type=float, default=0.8)
    ccn.add_argument("--catalog", "-N", type=int, default=10_000)
    ccn.add_argument("--seed", type=int, default=0)
    ccn.add_argument(
        "--queue-size",
        type=int,
        default=None,
        metavar="K",
        help=(
            "finite content-store admission queue of K pending "
            "operations (omit for the scalar-equivalent no-queue model)"
        ),
    )
    ccn.add_argument(
        "--read-penalty",
        type=float,
        default=0.0,
        metavar="MS",
        help="store read service time (with --queue-size)",
    )
    ccn.add_argument(
        "--write-penalty",
        type=float,
        default=0.0,
        metavar="MS",
        help="store write service time (with --queue-size)",
    )
    ccn.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "run the contention experiment instead: mean latency vs "
            "coordination level l across contention regimes, with the "
            "measured optima vs the analytic eq. 5/7 l*"
        ),
    )
    ccn.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="record metrics and spans to a JSON-lines events file",
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "online optimization service: ingest measurement batches and "
            "re-provision the coordination level through the warm "
            "incremental re-solver"
        ),
    )
    serve.add_argument(
        "source",
        help=(
            "measurement stream: one whitespace-separated line of request "
            "ranks per tick ('-' for stdin; blank lines are idle ticks)"
        ),
    )
    serve.add_argument("--alpha", type=float, default=0.5)
    serve.add_argument("--gamma", type=float, default=5.0)
    serve.add_argument("--routers", "-n", type=int, default=20)
    serve.add_argument("--catalog", "-N", type=int, default=10**6)
    serve.add_argument("--capacity", "-c", type=float, default=10**3)
    serve.add_argument("--unit-cost", "-w", type=float, default=26.7)
    serve.add_argument("--peer-delta", type=float, default=2.2842)
    serve.add_argument(
        "--dead-band",
        type=float,
        default=0.0,
        metavar="DS",
        help=(
            "skip the re-solve while the estimate stays within DS of the "
            "last solved exponent (0 still deduplicates exact repeats)"
        ),
    )
    serve.add_argument(
        "--memory",
        type=float,
        default=0.5,
        metavar="M",
        help="estimator window retention per tick, in [0, 1)",
    )
    serve.add_argument(
        "--tick",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="pause between batches (0 = replay as fast as possible)",
    )
    serve.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="TICKS",
        help="stop after processing this many ticks",
    )
    serve.add_argument(
        "--obs",
        default=None,
        metavar="PATH",
        help="record metrics and spans to a JSON-lines events file",
    )

    # `repro lint` is dispatched before argparse runs (see _dispatch):
    # repro.lint.cli owns the whole flag surface (--format json, --fix,
    # --changed, ...) and argparse REMAINDER cannot forward leading
    # options.  The stub here only provides the help line.
    lint = subparsers.add_parser(
        "lint",
        help="run the whole-program static-analysis rules (repro.lint)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)

    report = subparsers.add_parser(
        "report", help="generate the full markdown reproduction report"
    )
    report.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    report.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help="experiment ids to include (default: all, scorecard first)",
    )
    return parser


def _render(result: object) -> str:
    if isinstance(result, TableData):
        return render_table(result)
    if isinstance(result, FigureData):
        return render_figure(result)
    return str(result)


def _emit(result: object, args: argparse.Namespace, out) -> None:
    fmt = getattr(args, "format", "text")
    output = getattr(args, "output", None)
    if fmt == "ascii" and isinstance(result, FigureData):
        from .analysis.tables import render_ascii_chart

        text = render_ascii_chart(result)
    elif fmt in ("text", "ascii"):
        text = _render(result)
    else:
        text = export_result(result, fmt)
    if not output:
        print(text, file=out)
        return
    _write_output(output, text + "\n" if fmt in ("text", "ascii") else text)


def _write_output(path: str, text: str) -> None:
    """Write an ``--output`` file; an unwritable path is a ``ReproError``."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc.strerror or exc}") from None


def _experiment_kwargs(fn, args: argparse.Namespace) -> dict:
    """Keyword arguments an experiment accepts from the command line.

    Only sweep-based figures take ``solver=``; passing it to the table
    experiments would fail, so consult each signature.
    """
    if "solver" in inspect.signature(fn).parameters:
        return {"solver": args.solver}
    return {}


def _run_experiment(args: argparse.Namespace, out) -> int:
    from .obs import get_session

    obs = get_session()
    name = args.experiment
    if name == "all":
        if getattr(args, "format", "text") != "text" or getattr(args, "output", None):
            print(
                "'run all' supports only the default text format on stdout",
                file=sys.stderr,
            )
            return 2
        for key, fn in ALL_EXPERIMENTS.items():
            with obs.span(f"experiment.{key}"):
                result = fn(**_experiment_kwargs(fn, args))
            print(_render(result), file=out)
            print(file=out)
        return 0
    fn = ALL_EXPERIMENTS.get(name)
    if fn is None:
        print(
            f"unknown experiment {name!r}; run 'repro list' for options",
            file=sys.stderr,
        )
        return 2
    with obs.span(f"experiment.{name}"):
        result = fn(**_experiment_kwargs(fn, args))
    _emit(result, args, out)
    return 0


def _solve(args: argparse.Namespace, out) -> int:
    from .obs import fingerprint, get_session

    scenario = Scenario(
        alpha=args.alpha,
        gamma=args.gamma,
        exponent=args.exponent,
        n_routers=args.routers,
        catalog_size=args.catalog,
        capacity=args.capacity,
        unit_cost=args.unit_cost,
        peer_delta=args.peer_delta,
    )
    obs = get_session()
    if obs.enabled:
        obs.annotate("scenario_fingerprint", fingerprint(scenario))
    with obs.span("solve.scenario"):
        strategy, gains = scenario.solve_with_gains(check_conditions=False)
    print(f"scenario: {scenario}", file=out)
    print(
        f"optimal level l* = {strategy.level:.6f} "
        f"(storage x* = {strategy.storage:.2f}, method {strategy.method})",
        file=out,
    )
    print(
        f"objective T_w(x*) = {strategy.objective_value:.6f}",
        file=out,
    )
    print(
        f"origin load reduction G_O = {gains.origin_load_reduction:.4f}; "
        f"routing improvement G_R = {gains.routing_improvement:.4f}",
        file=out,
    )
    return 0


def _topology(args: argparse.Namespace, out) -> int:
    from .topology import load_topology, topology_parameters

    topology = load_topology(args.name)
    params = topology_parameters(topology)
    print(f"{topology.name} ({topology.region}, {topology.kind})", file=out)
    print(
        f"routers n = {params.n_routers}; links = {topology.n_links} "
        f"(|E| = {topology.n_directed_edges} directed)",
        file=out,
    )
    print(f"diameter = {topology.diameter_hops()} hops", file=out)
    print(
        f"w (max pairwise latency)   = {params.unit_cost_ms:.4f} ms",
        file=out,
    )
    print(
        f"d1-d0 (mean pairwise)      = {params.mean_latency_ms:.4f} ms / "
        f"{params.mean_hops:.4f} hops",
        file=out,
    )
    return 0


def _sensitivity(args: argparse.Namespace, out) -> int:
    from .analysis.sensitivity import sensitive_range, sensitivity_profile

    scenario = Scenario(
        alpha=args.alpha, gamma=args.gamma, exponent=args.exponent
    )
    result = sensitive_range(scenario)
    print(
        f"sensitive alpha range (gamma={args.gamma:g}, s={args.exponent:g}): "
        f"[{result.alpha_low:.3f}, {result.alpha_high:.3f}] "
        f"(width {result.width:.3f}, steepest at {result.max_slope_alpha:.3f})",
        file=out,
    )
    profile = sensitivity_profile(scenario)
    print(f"first-order sensitivities of l* at alpha={args.alpha:g}:", file=out)
    for field, value in profile.items():
        print(f"  d l*/d {field:<11} = {value:+.5f}", file=out)
    return 0


def _protocol(args: argparse.Namespace, out) -> int:
    from .core.strategy import ProvisioningStrategy
    from .simulation.protocol import DistributedCoordinator
    from .topology import load_topology

    topology = load_topology(args.name)
    if not 0.0 <= args.level <= 1.0:
        print("--level must lie in [0, 1]", file=sys.stderr)
        return 2
    strategy = ProvisioningStrategy(
        capacity=args.capacity, n_routers=topology.n_routers, level=args.level
    )
    coordinator = DistributedCoordinator(topology)
    outcome = coordinator.run_round(strategy)
    print(
        f"{topology.name}: spanning-tree coordination round at level "
        f"{args.level:g} (c={args.capacity})",
        file=out,
    )
    print(f"root: {coordinator.root}", file=out)
    print(f"state messages (convergecast):  {outcome.state_messages}", file=out)
    print(f"directive messages (tree-path): {outcome.directive_messages}", file=out)
    print(
        f"linear model (eq. 3) books:     {strategy.coordination_messages()}",
        file=out,
    )
    print(f"round latency:                  {outcome.round_latency_ms:.2f} ms", file=out)
    return 0


def _scale(args: argparse.Namespace, out) -> int:
    from .obs import get_session
    from .simulation import run_sharded
    from .topology import generate_hierarchy

    obs = get_session()
    with obs.span("scale.generate"):
        topology = generate_hierarchy(
            args.seed,
            routers=args.routers,
            regions=args.regions,
            tiers=args.tiers,
        )
    result = run_sharded(
        topology,
        requests=args.requests,
        capacity=args.capacity,
        mode=args.mode,
        policy=args.policy,
        coordination_level=args.level,
        exponent=args.exponent,
        catalog_size=args.catalog,
        warmup=args.warmup,
        seed=args.seed,
        # 0 is the CLI's spelling of run_sharded's in-process path.
        shards=None if args.shards == 0 else args.shards,
        metric=args.metric,
    )
    metrics = result.metrics
    print(
        f"{topology.name}: {topology.n_routers} routers "
        f"({topology.n_backbone} backbone, {topology.region_count} regions), "
        f"{topology.n_links} links",
        file=out,
    )
    print(
        f"mode {args.mode}, policy {args.policy}, level {args.level:g}, "
        f"c={args.capacity}, Zipf(s={args.exponent:g}, N={args.catalog})",
        file=out,
    )
    print(
        f"requests: {result.requests} (+{result.warmup} warmup) across "
        f"{result.regions} regions, {result.shards or 'no'} worker shards",
        file=out,
    )
    print(
        f"origin load   = {metrics.origin_load:.4f}\n"
        f"local/peer    = {metrics.local_fraction:.4f} / "
        f"{metrics.peer_fraction:.4f}\n"
        f"mean hops     = {metrics.mean_hops:.4f}\n"
        f"mean latency  = {metrics.mean_latency_ms:.4f} ms",
        file=out,
    )
    if result.kernel_seconds > 0:
        print(
            f"kernel        = {result.kernel_seconds:.3f} s "
            f"({result.kernel_rps:,.0f} req/s)",
            file=out,
        )
    return 0


def _approx(args: argparse.Namespace, out) -> int:
    from .approx import solve_custodian, solve_en_route
    from .topology import load_topology

    topology = load_topology(args.name)
    if args.mode == "custodian":
        solution = solve_custodian(
            topology,
            capacity=args.capacity,
            coordination_level=args.level,
            policy=args.policy,
            exponent=args.exponent,
            catalog_size=args.catalog,
            metric=args.metric,
        )
    else:
        solution = solve_en_route(
            topology,
            capacity=args.capacity,
            policy=args.policy,
            exponent=args.exponent,
            catalog_size=args.catalog,
            metric=args.metric,
        )
    metrics = solution.metrics
    print(
        f"{topology.name}: {solution.mode} approximation, policy "
        f"{solution.policy}, level {solution.level:g}, c={args.capacity}, "
        f"Zipf(s={args.exponent:g}, N={args.catalog})",
        file=out,
    )
    print(
        f"origin load   = {metrics.origin_load:.4f}\n"
        f"local/peer    = {metrics.local_fraction:.4f} / "
        f"{metrics.peer_fraction:.4f}\n"
        f"mean hops     = {metrics.mean_hops:.4f}\n"
        f"mean latency  = {metrics.mean_latency_ms:.4f} ms",
        file=out,
    )
    print(
        f"fixed point   = {solution.iterations} iterations, "
        f"residual {solution.residual:.2e}",
        file=out,
    )
    return 0


def _ccn(args: argparse.Namespace, out) -> int:
    from .catalog import IRMWorkload, ZipfModel
    from .ccn import BatchedCCNEngine, CacheQueue
    from .core.strategy import ProvisioningStrategy
    from .topology import load_topology

    if not 0.0 <= args.level <= 1.0:
        print("--level must lie in [0, 1]", file=sys.stderr)
        return 2
    if args.sweep:
        from .analysis.contention import contention_sweep

        figure = contention_sweep(
            topology_name=args.name,
            capacity=args.capacity,
            exponent=args.exponent,
            catalog_size=args.catalog,
            requests=args.requests,
            seed=args.seed,
        )
        print(_render(figure), file=out)
        print(
            f"analytic l* (eq. 5/7) = "
            f"{figure.parameters['analytic_level']:.4f}",
            file=out,
        )
        for label, level in figure.parameters["measured_optima"].items():
            agg = figure.parameters["pit_aggregations"][label]
            rej = figure.parameters["rejected_ops"][label]
            print(
                f"measured l^* [{label}] = {level:.2f} "
                f"(aggregations {agg}, rejections {rej})",
                file=out,
            )
        return 0
    topology = load_topology(args.name)
    queue = None
    if args.queue_size is not None:
        queue = CacheQueue(
            size=args.queue_size,
            read_penalty_ms=args.read_penalty,
            write_penalty_ms=args.write_penalty,
        )
    engine = BatchedCCNEngine(
        topology, origin_gateway=topology.nodes[0], queue=queue
    )
    engine.install_strategy(
        ProvisioningStrategy(
            capacity=args.capacity,
            n_routers=topology.n_routers,
            level=args.level,
        )
    )
    workload = IRMWorkload(
        ZipfModel(args.exponent, args.catalog),
        topology.nodes,
        seed=args.seed,
    )
    import time as _time

    start = _time.perf_counter()
    result = engine.run_workload(
        workload, args.requests, interarrival_ms=args.interarrival
    )
    elapsed = _time.perf_counter() - start
    print(
        f"{topology.name}: batched packet-level run, level {args.level:g}, "
        f"c={args.capacity}, Zipf(s={args.exponent:g}, N={args.catalog}), "
        f"interarrival {args.interarrival:g} ms",
        file=out,
    )
    print(
        f"requests      = {result.requests_issued} "
        f"({result.requests_completed} completed, "
        f"{result.simulated_requests} micro-simulated)",
        file=out,
    )
    print(
        f"origin load   = {result.origin_load:.4f}\n"
        f"cs hits       = {result.cs_hits}\n"
        f"aggregations  = {result.pit_aggregations}\n"
        f"mean hops     = {result.mean_interest_hops:.4f}\n"
        f"mean latency  = {result.mean_latency_ms:.4f} ms",
        file=out,
    )
    outcome_totals = result.outcome_counts.sum(axis=0)
    print(
        "outcomes      = "
        + ", ".join(
            f"{label} {int(outcome_totals[code])}"
            for label, code in (
                ("served-local", 0),
                ("forwarded", 1),
                ("aggregated", 2),
                ("origin", 3),
                ("queued", 4),
                ("rejected", 5),
            )
        ),
        file=out,
    )
    if queue is not None:
        print(
            f"queue         = size {queue.size}, "
            f"{result.queued_ops} queued ops, "
            f"{result.rejected_ops} rejected ops, "
            f"total wait {result.queue_wait_ms:.2f} ms",
            file=out,
        )
    if elapsed > 0:
        print(
            f"engine        = {elapsed:.3f} s "
            f"({result.requests_issued / elapsed:,.0f} req/s)",
            file=out,
        )
    return 0


def _serve(args: argparse.Namespace, out) -> int:
    """Run the online optimization service over a measurement stream."""
    import time
    from contextlib import nullcontext

    from .service import DeadBandPolicy, OptimizerService, read_stream

    scenario = Scenario(
        alpha=args.alpha,
        gamma=args.gamma,
        n_routers=args.routers,
        catalog_size=args.catalog,
        capacity=args.capacity,
        unit_cost=args.unit_cost,
        peer_delta=args.peer_delta,
    )
    service = OptimizerService(
        scenario,
        memory=args.memory,
        policy=DeadBandPolicy(dead_band=args.dead_band),
    )
    if args.limit is not None and args.limit < 1:
        print(f"--limit must be positive, got {args.limit}", file=sys.stderr)
        return 2
    try:
        # Binary lines: read_stream decodes each one, so a line that is
        # not UTF-8 is reported by number.
        source = (
            nullcontext(sys.stdin.buffer)
            if args.source == "-"
            else open(args.source, "rb")
        )
        with source as stream:
            for tick in service.run(read_stream(stream)):
                if tick.action == "idle":
                    print(
                        f"tick {tick.index:4d}  obs={tick.observed:6d}  idle",
                        file=out,
                    )
                else:
                    clamp = "  clamped" if tick.clamped else ""
                    print(
                        f"tick {tick.index:4d}  obs={tick.observed:6d}  "
                        f"s^={tick.estimate:.4f}  l={tick.level:.4f}  "
                        f"{tick.action}  stale={tick.staleness}"
                        f"{clamp}",
                        file=out,
                    )
                if args.limit is not None and service.ticks >= args.limit:
                    break
                if args.tick > 0.0:
                    time.sleep(args.tick)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    tracker = service.tracker
    print(
        f"{service.ticks} ticks: {tracker.cold_solves} cold, "
        f"{tracker.warm_solves} warm, {tracker.skipped} skipped",
        file=out,
    )
    if tracker.current is not None:
        print(
            f"provisioned level l* = {tracker.current.level:.6f} "
            f"(solved at s = {tracker.solved_exponent:.4f})",
            file=out,
        )
    return 0


def _obs_summarize(args: argparse.Namespace, out) -> int:
    from .obs import read_events, render_summary, summarize_events

    events = read_events(args.events)
    print(render_summary(summarize_events(events)), file=out)
    return 0


def _observed(args: argparse.Namespace, handler, out) -> int:
    """Run a subcommand handler, optionally inside a recording session.

    Without ``--obs`` the handler runs against the ambient null session
    (near-zero overhead); with it, every metric and span of the run is
    streamed to the given JSON-lines file.
    """
    obs_path = getattr(args, "obs", None)
    if not obs_path:
        return handler(args, out)
    from .obs import JsonlSink, session

    sink = JsonlSink(obs_path)
    annotations = {"command": args.command}
    if args.command == "run":
        annotations["experiment"] = args.experiment
    with session(sink, annotations=annotations):
        return handler(args, out)


def _report(args: argparse.Namespace, out) -> int:
    from .analysis.reporting import generate_report

    text = generate_report(experiments=args.experiments)
    if args.output:
        _write_output(args.output, text)
    else:
        print(text, file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Every library error (:class:`~repro.errors.ReproError`) ends the
    run here: one line on stderr and exit code 2, never a traceback.
    """
    try:
        return _dispatch(argv, out)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _dispatch(argv: Optional[Sequence[str]], out) -> int:
    out = out if out is not None else sys.stdout
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    if argv_list[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv_list[1:], out=out)
    try:
        args = build_parser().parse_args(argv_list)
    except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
        return int(exc.code or 0)
    if args.command == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14s} {doc}", file=out)
        return 0
    if args.command == "run":
        return _observed(args, _run_experiment, out)
    if args.command == "solve":
        return _observed(args, _solve, out)
    if args.command == "obs":
        return _obs_summarize(args, out)
    if args.command == "topology":
        return _topology(args, out)
    if args.command == "sensitivity":
        return _sensitivity(args, out)
    if args.command == "protocol":
        return _protocol(args, out)
    if args.command == "scale":
        return _observed(args, _scale, out)
    if args.command == "approx":
        return _observed(args, _approx, out)
    if args.command == "ccn":
        return _observed(args, _ccn, out)
    if args.command == "serve":
        return _observed(args, _serve, out)
    if args.command == "report":
        return _report(args, out)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
