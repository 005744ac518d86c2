"""End-to-end benchmark of the reproduction: six seeded workloads.

Usage::

    python3 benchmarks/e2e/bench.py [--workload NAME ...] [--seed S] [--seconds T]
                                    [--runs K] [--trace [0|1]] [--smoke] [--out PATH]
    python3 benchmarks/e2e/bench.py compare A.json B.json

Every run of a workload happens in a fresh interpreter, one after
another: ``SETUP_SAMPLES - 1`` processes that only set up (their median
with the measuring process's set-up time is ``setup_s``), then the
process that sets up, times rounds of the workload for ``--seconds``,
and checks the outputs.  The last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of an untraced run, or the per-layer
metrics of a traced one (``--trace``), each as ``{"value", "unit"}``;
with several runs or workloads a value is the median over runs and
names are prefixed ``<workload>/``.  ``--out`` keeps every run's full
record.  ``compare`` judges two such files metric by metric against the
bounds in BENCHMARK.json.  Seed 0 is the default; seed 1 is held out
for checking claims.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, obs_totals, self_times, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

WORKLOADS = (
    "grid-plan",
    "sim-lru-sweep",
    "sim-policies",
    "ccn-contention",
    "serve-drift",
    "scale-sharded",
)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0

#: Metrics of an untraced run, with units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "op_p50_ms": "ms",
}

POLICIES = ("lru", "fifo", "random", "lfu", "perfect-lfu")
CCN_PHASES = ("relaxed", "contended", "queued")

#: Self-time share of traced wall time: metric -> span-name prefix.
SHARE_PREFIXES = {
    "catalog.sample_frac": "catalog.sample",
    "core.scenario_grid_frac": "core.scenario_grid",
    "core.solve_batch_frac": "core.solve_batch",
    "core.resolve_incremental_frac": "core.resolve_incremental",
    "approx.batch_frac": "approx.batch",
    "simulation.steady_run_frac": "simulation.steady_run",
    "simulation.dynamic_run_frac": "simulation.dynamic_run.",
    **{f"simulation.dynamic_run_frac.{p}": f"simulation.dynamic_run.{p}" for p in POLICIES},
    "simulation.sharded_run_frac": "simulation.run_sharded",
    "ccn.run_frac": "ccn.run.",
    **{f"ccn.run_frac.{p}": f"ccn.run.{p}" for p in CCN_PHASES},
    "service.parse_frac": "service.parse_line",
    "service.ingest_frac": "service.ingest",
    "harness.idle_frac": "harness.idle",
}

#: Metrics of a traced run, with units (BENCHMARK.json ``per_layer``).
#: Every workload reports every name; a layer it never calls reads 0.
PER_LAYER = {
    **dict.fromkeys(SHARE_PREFIXES, "frac"),
    "unattributed_frac": "frac",
    "simulation.kernel_build_frac": "frac",
    "simulation.dynamic_kernel_frac": "frac",
    **{f"simulation.dynamic_kernel_frac.{p}": "frac" for p in POLICIES},
    "service.solve_frac": "frac",
    **{f"simulation.batched_over_scalar.{p}": "x" for p in POLICIES},
    "simulation.sharded_speedup": "x",
    "simulation.sharded_kernel_share": "frac",
    "catalog.requests": "count",
    "core.points": "count",
    "core.bisection_iterations": "count",
    "core.changed_points": "count",
    "approx.points": "count",
    "approx.unique_solves": "count",
    "approx.fixed_point_iterations": "count",
    "simulation.requests": "count",
    "simulation.local_hits": "count",
    "simulation.peer_hits": "count",
    "simulation.origin_hits": "count",
    "simulation.shards": "count",
    "ccn.interests": "count",
    **{f"ccn.pit_aggregations.{p}": "count" for p in CCN_PHASES},
    **{f"ccn.fast_path_frac.{p}": "frac" for p in CCN_PHASES},
    "ccn.simulated_requests": "count",
    "ccn.queued_ops": "count",
    "ccn.rejected_ops": "count",
    "ccn.cohorts": "count",
    "service.ticks_cold": "count",
    "service.ticks_warm": "count",
    "service.ticks_skipped": "count",
    "service.ticks_idle": "count",
    "service.estimate_clamped": "count",
    "setup.interpreter_frac": "frac",
    "setup.import_frac": "frac",
    "setup.topology_frac": "frac",
    "setup.inputs_frac": "frac",
    "setup.engine_frac": "frac",
    "setup.warmup_frac": "frac",
    "setup.unattributed_frac": "frac",
    "obs.trace_overhead_frac": "frac",
    "trace.spans": "count",
}

#: Root set-up spans grouped into set-up share metrics; other root spans
#: (engine and model construction) count as ``setup.engine_frac``.
SETUP_GROUPS = {
    "harness.import": "setup.import_frac",
    "harness.inputs": "setup.inputs_frac",
    "harness.warmup": "setup.warmup_frac",
    "topology.": "setup.topology_frac",
}


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be printed."""


# -- one workload in this process -------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def execute(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    t0: float | None = None,
    setup_only: bool = False,
    trace_dir: Path = HERE / "out",
) -> dict:
    """Set up, time, and check one workload; returns its record.

    ``t0`` is the ``time.monotonic()`` reading taken when this process
    was started, so ``setup_s`` includes interpreter start-up.
    """
    started = time.monotonic()
    t0 = started if t0 is None else t0
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer = Tracer()
    tracer.enabled = trace
    with tracer.span("harness.import"):
        import workloads
        from repro.obs import machine_provenance
        from repro.obs import session as obs_session

    workload = workloads.WORKLOADS[name](seed, smoke=smoke, tracer=tracer)
    workload.setup()
    with tracer.span("harness.warmup"):
        workload.warmup()
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"workload": name, "setup_s": setup_s}
    setup_spans = tracer.take()

    if trace:
        tracer.enabled = False
        reference = workload.end_to_end(workload.run_phase(seconds, workloads.REFERENCE))
        tracer.enabled = True
        with obs_session() as capture:
            tracer.obs = capture
            phase = workload.run_phase(seconds, workloads.MEASURED)
            tracer.obs = None
        tracer.enabled = False
        spans = tracer.take()
    else:
        phase = workload.run_phase(seconds, workloads.MEASURED)
    rss = peak_rss_mb()
    workload.check()

    failures = [op for op in workload.ops if op.failure is not None]
    e2e = workload.end_to_end(phase)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "setup_s": setup_s,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": [f"{op.kind}#{op.id}: {op.failure}" for op in failures[:3]],
        "input_digest": workload.input_digest(),
        "provenance": machine_provenance(),
        "details": {
            "timed_s": phase["wall_s"],
            "rounds": phase["rounds"],
            "latency_samples": len(workload.latencies),
            **workload.details,
        },
    }
    if not trace:
        record["metrics"] = {**e2e, "peak_rss_mb": rss}
        return record

    summary = self_times(spans, phase["wall_s"])
    metrics = layer_metrics(workload, summary, spans)
    metrics.update(setup_shares(setup_spans, setup_s, started - t0))
    metrics["obs.trace_overhead_frac"] = reference["throughput"] / e2e["throughput"] - 1.0
    metrics["trace.spans"] = len(spans)
    record["metrics"] = metrics
    layers: dict[str, float] = {}
    for span_name, self_s in summary["self_s"].items():
        layer = span_name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    record["trace_summary"] = {
        "wall_s": summary["wall_s"],
        "layer_self_s": layers,
        "unattributed_s": summary["unattributed_s"],
        "accounted_frac": (sum(layers.values()) + summary["unattributed_s"]) / summary["wall_s"],
        "trace_overhead_frac": metrics["obs.trace_overhead_frac"],
        "untraced_throughput": reference["throughput"],
        "traced_throughput": e2e["throughput"],
        "library_span_s": obs_totals(spans),
    }
    tagged = [{**s, "phase": "setup"} for s in setup_spans]
    tagged += [{**s, "phase": "timed"} for s in spans]
    write_jsonl(trace_dir / f"{name}-seed{seed}.jsonl", tagged)
    return record


def layer_metrics(workload, summary: dict, spans: list[dict]) -> dict:
    """Every per-layer metric of a traced phase (0 where a layer is idle)."""
    wall = summary["wall_s"]
    metrics: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    for metric, prefix in SHARE_PREFIXES.items():
        metrics[metric] = (
            sum(s for span, s in summary["self_s"].items() if span.startswith(prefix)) / wall
        )
    metrics["unattributed_frac"] = summary["unattributed_s"] / wall
    steady = obs_totals(spans, "simulation.steady_run")
    dynamic = obs_totals(spans, "simulation.dynamic_run.")
    metrics["simulation.kernel_build_frac"] = (
        steady.get("sim.steady.kernel_build", 0.0) + dynamic.get("sim.dynamic.kernel_build", 0.0)
    ) / wall
    metrics["simulation.dynamic_kernel_frac"] = dynamic.get("sim.dynamic.kernel", 0.0) / wall
    for policy in POLICIES:
        kernel = obs_totals(spans, f"simulation.dynamic_run.{policy}")
        metrics[f"simulation.dynamic_kernel_frac.{policy}"] = (
            kernel.get("sim.dynamic.kernel", 0.0) / wall
        )
    metrics["service.solve_frac"] = (
        obs_totals(spans, "service.ingest").get("service.solve", 0.0) / wall
    )
    metrics.update(workload.layer_ratios())
    metrics.update({k: v for k, v in workload.counts.items() if k in PER_LAYER})
    return metrics


def setup_shares(setup_spans: list[dict], setup_s: float, interpreter_s: float) -> dict:
    """Shares of ``setup_s`` by what the set-up spent it on."""
    shares = {"setup.interpreter_frac": interpreter_s / setup_s}
    for span in setup_spans:
        if span["parent"] is not None:
            continue
        metric = next(
            (m for prefix, m in SETUP_GROUPS.items() if span["name"].startswith(prefix)),
            "setup.engine_frac",
        )
        shares[metric] = shares.get(metric, 0.0) + (span["end"] - span["start"]) / setup_s
    shares["setup.unattributed_frac"] = 1.0 - sum(shares.values())
    return shares


# -- orchestration -----------------------------------------------------------


def spawn(name: str, args: argparse.Namespace, seconds: float, *, setup_only: bool) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--child", repr(t0)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: benchmark process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, args: argparse.Namespace, seconds: float) -> dict:
    """One run: set-up-only processes, then the measuring process."""
    samples = [
        spawn(name, args, seconds, setup_only=True)["setup_s"]
        for _ in range(args.setup_samples - 1)
    ]
    record = spawn(name, args, seconds, setup_only=False)
    samples.append(record["setup_s"])
    record["setup_samples"] = samples
    if not args.trace:
        record["metrics"]["setup_s"] = statistics.median(samples)
    return record


def result_line(records: list[dict], trace: bool) -> dict:
    """The final stdout object: medians over runs of every metric."""
    units = PER_LAYER if trace else END_TO_END
    names = [w for w in WORKLOADS if any(r["workload"] == w for r in records)]
    metrics = {}
    for workload in names:
        runs = [r for r in records if r["workload"] == workload]
        for metric, unit in units.items():
            key = metric if len(names) == 1 else f"{workload}/{metric}"
            value = statistics.median(r["metrics"][metric] for r in runs)
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else 10.0)
    records = []
    try:
        for name in args.workload:
            for _ in range(args.runs):
                record = measure(name, args, seconds)
                records.append(record)
                shown = {k: round(v, 6) for k, v in record["metrics"].items() if k in END_TO_END}
                print(
                    f"{name} seed={args.seed} failed={record['failed']}/{record['attempted']} "
                    f"{shown}",
                    file=sys.stderr,
                )
                for failure in record["failures"]:
                    print(f"  {failure}", file=sys.stderr)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"provenance": records[0]["provenance"], "runs": records}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


# -- compare -----------------------------------------------------------------


def load_runs(path: str) -> list[dict]:
    """Records of a ``--out`` file; ``FILE#SET`` picks one set of a baseline."""
    file, _, which = path.partition("#")
    data = json.loads(Path(file).read_text())
    return data["sets"][which] if which else data["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list[float], new: list[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric on one workload.

    Unresolved when either set's quartile spread exceeds the bound,
    unless every run of one set beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = quartiles(base)
    qb1, mb, qb3 = quartiles(new)
    if max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound:
        if all(sign * (b - a) < 0 for a in base for b in new):
            return "better"
        if all(sign * (b - a) > 0 for a in base for b in new):
            return "worse"
        return "unresolved"
    change = sign * (mb - ma) / ma
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(paths: list[str]) -> int:
    """Print medians, quartiles and a verdict per workload and metric.

    Exits 1 when any end-to-end metric is worse by more than its bound.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_runs(paths[0]), load_runs(paths[1])
    verdicts = []
    columns = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A-1")
    print("{:15} {:12} {:36} {:36} {:>8}  verdict".format(*columns))
    for workload in WORKLOADS:
        a_runs = [r for r in base if r["workload"] == workload]
        b_runs = [r for r in new if r["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            a = [r["metrics"][metric["name"]] for r in a_runs]
            b = [r["metrics"][metric["name"]] for r in b_runs]
            verdict = judge(a, b, metric["better"], metric["bound"])
            verdicts.append(verdict)
            change = statistics.median(b) / statistics.median(a) - 1
            print(
                f"{workload:15} {metric['name']:12} {_cell(a):36} {_cell(b):36} "
                f"{change:>+8.2%}  {verdict}"
            )
        failed = [
            f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
            for runs in (a_runs, b_runs)
        ]
        print(f"{workload:15} {'failed':12} {failed[0]:36} {failed[1]:36}")
    kinds = ("unchanged", "better", "worse", "unresolved")
    print(", ".join(f"{kind}: {verdicts.count(kind)}" for kind in kinds))
    return 1 if "worse" in verdicts else 0


# -- command line ------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="timed phase (default 10; 0 with --smoke)"
    )
    parser.add_argument("--runs", type=int, default=1, help="runs of each workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up sample")
    parser.add_argument("--out", type=Path, default=None, help="write every run's record here")
    parser.add_argument("--child", type=float, default=None, metavar="T0", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare A.json[#SET] B.json[#SET]", file=sys.stderr)
            return 2
        return compare(argv[1:])
    args = parse_args(argv)
    if args.child is None:
        return run(args)
    record = execute(
        args.workload[0],
        args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        t0=args.child,
        setup_only=args.setup_only,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
