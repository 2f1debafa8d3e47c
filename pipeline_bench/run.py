"""Whole-pipeline benchmark: FlowC -> link -> schedule -> task -> simulation.

Run from the repository root::

    python3 pipeline_bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads: ``corpus``, ``pfc``, ``cost`` (compile pipeline) and ``serve``
(scheduling daemon).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` records spans around every layer call, writes them under
``.bench_out/`` and prints the per-layer metrics.  The last line of standard
output is the result object; the lines before it carry the host record and
a readable report.  A compile workload measures its whole fixed core of
rounds, sized to outlast the window of ``BENCHMARK.json``; ``--seconds``
sets the window of ``serve``.  ``--rounds N`` runs only the first N rounds
of a compile workload (the determinism self-test uses it).
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# The benchmark measures the library at its defaults: no persistent cache,
# and one BLAS thread so NumPy never spins up a pool mid-run.
for _name in ("REPRO_CACHE", "REPRO_CACHE_DIR"):
    os.environ.pop(_name, None)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, NamedTuple, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out" / HERE.name

WORKLOADS = ("corpus", "pfc", "cost", "serve")

#: Set-up is measured this many times per run (this process plus fresh
#: probe processes); ``setup_s`` is the median.
SETUP_SAMPLES = 3

#: Seconds one set-up probe may take before the run is abandoned.
PROBE_TIMEOUT = 120

#: Reported in place of an infinite latency (a failed operation).
FAILED_LATENCY_MS = 1e9


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def child_env() -> Dict[str, str]:
    """Environment of the daemon and probe processes: this one's, plus ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int) -> Dict[str, object]:
    import numpy

    from repro.petrinet.kernel import resolve_kernel_tier

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": resolve_kernel_tier(warn=False),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_setup_probes(args: argparse.Namespace, count: int) -> List[float]:
    """Set-up seconds of ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-only",
            ],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        samples.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# compile workloads
# ---------------------------------------------------------------------------


class Round(NamedTuple):
    """One round of a compile workload: its systems, good ones and costs."""

    first: int
    size: int
    done: int
    wall: float
    cpu: float
    peak_mb: float


def run_compile(args: argparse.Namespace, tracer) -> Dict[str, object]:
    from repro.corpus.differential import MAX_NODES
    from repro.scheduling.ep import SchedulerOptions

    from metrics import peak_rss_mb, restart_peak_rss, trim_heap
    from pipeline import compile_system
    from tracing import Tracer
    from workloads import ROUNDS, warmup_input

    plan = ROUNDS[args.workload]
    objective = "cost" if args.workload == "cost" else "first"
    options = SchedulerOptions(max_nodes=MAX_NODES, objective=objective)
    warm = compile_system(warmup_input(args.workload), Tracer(False), options)
    if not warm.ok:
        raise RuntimeError(f"warm-up system failed in {warm.stage}: {warm.message}")
    items = plan.make(args.seed, 0)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return {"setup_s": setup_s}

    outcomes: list = []
    rounds: List[Round] = []
    count = min(plan.core, args.rounds) if args.rounds else plan.core
    for index in range(count):
        if index:
            items = plan.make(args.seed, index)
        trim_heap()
        restart_peak_rss()
        first = len(outcomes)
        started, started_cpu = time.perf_counter(), time.process_time()
        for item in items:
            with tracer.operation("system", len(outcomes)):
                outcomes.append(compile_system(item, tracer, options))
        wall = time.perf_counter() - started
        cpu = time.process_time() - started_cpu
        done = sum(outcome.ok for outcome in outcomes[first:])
        rounds.append(Round(first, len(items), done, wall, cpu, peak_rss_mb()))
    return {
        "setup_s": setup_s,
        "outcomes": outcomes,
        "rounds": rounds,
        "wall": sum(r.wall for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_mb for r in rounds),
    }


def compile_layers(outcomes, tracers) -> Dict[str, float]:
    """Per-layer metrics of a compile workload (times need a traced run)."""
    from tracing import self_times

    ops = len(outcomes)
    total = Counter()
    for outcome in outcomes:
        total.update(outcome.counts)
    ms = {name: seconds * 1e3 / ops for name, seconds in self_times(tracers).items()}
    cost_sources = total["cost_sources"]
    return {
        "flowc.compile_ms": ms.get("flowc.compile", 0.0),
        "flowc.link_ms": ms.get("flowc.link", 0.0),
        "flowc.places": total["places"] / ops,
        "flowc.transitions": total["transitions"] / ops,
        "petrinet.basis_ms": ms.get("petrinet.basis", 0.0),
        "petrinet.basis_rows": total["basis_rows"] / ops,
        "scheduling.search_ms": ms.get("scheduling.search", 0.0),
        "scheduling.nodes_expanded": total["nodes_expanded"] / ops,
        "scheduling.useful_ratio": total["schedule_nodes"] / max(total["nodes_expanded"], 1),
        "scheduling.useful_base": total["nodes_expanded"],
        "scheduling.failed_ms": total["failed_seconds"] * 1e3 / ops,
        "scheduling.budget_exhausted": total["budget_exhausted"],
        "objective.candidates": total["candidates"] / cost_sources if cost_sources else 0.0,
        "objective.improved_share": total["improved"] / cost_sources if cost_sources else 0.0,
        "objective.improved_base": cost_sources,
        "objective.predict_ms": ms.get("objective.predict", 0.0),
        "codegen.synthesize_ms": ms.get("codegen.synthesize", 0.0),
        "codegen.code_bytes": total["code_bytes"] / ops,
        "runtime.simulate_ms": ms.get("runtime.simulate", 0.0),
        "runtime.transitions_executed": total["transitions_executed"] / ops,
        "bench.check_ms": ms.get("bench.check", 0.0),
    }


def cost_figures(outcomes) -> Dict[str, float]:
    """Geomean multi/single cycles and baseline/synthesized bytes."""
    from metrics import geomean

    built = [o for o in outcomes if o.ok and o.single_cycles]
    return {
        "rtos_speedup": geomean(o.multi_cycles / o.single_cycles for o in built),
        "code_size_ratio": geomean(o.baseline_bytes / o.synthesized_bytes for o in built),
    }


# ---------------------------------------------------------------------------
# serve workload
# ---------------------------------------------------------------------------


def run_serve(args: argparse.Namespace, tracers) -> Dict[str, object]:
    import serve_workload
    from workloads import warmup_input

    setup = serve_workload.set_up(ROOT, child_env(), warmup_input("serve"))
    setup_s = time.perf_counter() - _STARTED
    try:
        if args.setup_only:
            return {"setup_s": setup_s}
        replies, started, wall, delta, cold, peaks = serve_workload.measure(
            setup, args.seed, args.seconds, tracers
        )
    finally:
        setup.daemon.close()
    serve_workload.check(replies, setup.references, cold)
    return {
        "setup_s": setup_s,
        "replies": replies,
        "wall": wall,
        "throughput": serve_workload.windowed_rate(replies, started, wall),
        "delta": delta,
        "hot_outcomes": setup.hot_outcomes,
        "peak_rss_mb": statistics.median(peaks),
    }


def serve_layers(run: Dict[str, object], tracers) -> Dict[str, float]:
    from tracing import self_times

    replies = run["replies"]
    ms = {name: seconds * 1e3 / len(replies) for name, seconds in self_times(tracers).items()}
    hits = [r.seconds * 1e3 for r in replies if not r.stage and r.from_cache]
    misses = [r.seconds * 1e3 for r in replies if not r.stage and not r.from_cache]
    return {
        "serve.hit_ms": statistics.median(hits) if hits else 0.0,
        "serve.miss_ms": statistics.median(misses) if misses else 0.0,
        "serve.hit_ratio": len(hits) / len(replies),
        "serve.live_searches": run["delta"]["live_searches"],
        "bench.check_ms": ms.get("bench.check", 0.0),
        "bench.input_ms": ms.get("bench.input", 0.0),
    }


def run_failures(run: Dict[str, object]) -> List[str]:
    """One line per failed operation: what failed, in which stage, and why."""
    outcomes = run.get("outcomes", run.get("hot_outcomes"))
    lines = [f"{o.name} [{o.stage}] {o.message}" for o in outcomes if not o.ok]
    lines += [f"{r.key} [{r.stage}] {r.error}" for r in run.get("replies", ()) if r.stage]
    return lines


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no library sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from metrics import END_TO_END, PER_LAYER, latency_summary, median_rate, metric_block
    from tracing import Tracer, layer_seconds, span_cost_seconds, write_spans

    serve = args.workload == "serve"
    if serve:
        from serve_workload import CONNECTIONS

        tracers = [Tracer(bool(args.trace)) for _ in range(CONNECTIONS)]
        run = run_serve(args, tracers)
    else:
        tracers = [Tracer(bool(args.trace), time.process_time)]
        run = run_compile(args, tracers[0])
    if args.setup_only:
        print(json.dumps({"setup_s": run["setup_s"]}))
        return 0

    setup_samples = [run["setup_s"]] + run_setup_probes(args, SETUP_SAMPLES - 1)
    host = host_record(args.seed)
    spans = sum(len(tracer.spans) for tracer in tracers)
    wall = run["wall"]

    layers = {name: 0.0 for name in PER_LAYER}
    if serve:
        # the hot set's reference compilations are checked operations too
        replies, hot = run["replies"], run["hot_outcomes"]
        names = [reply.key for reply in replies] + [outcome.name for outcome in hot]
        latencies = [[reply.seconds for reply in replies]]
        failures = Counter(reply.stage for reply in replies if reply.stage)
        failures.update(f"reference {o.stage}" for o in hot if not o.ok)
        throughput = run["throughput"]
        figures = cost_figures(run["hot_outcomes"])
        layers.update(serve_layers(run, tracers))
        busy = wall * len(tracers)
    else:
        outcomes = run["outcomes"]
        names = [outcome.name for outcome in outcomes]
        latencies = [
            [o.cpu_seconds if o.ok else float("inf") for o in outcomes[r.first:r.first + r.size]]
            for r in run["rounds"]
        ]
        failures = Counter(outcome.stage for outcome in outcomes if not outcome.ok)
        throughput = median_rate([(r.done, r.cpu) for r in run["rounds"]])
        figures = cost_figures(outcomes)
        layers.update(compile_layers(outcomes, tracers))
        busy = sum(r.cpu for r in run["rounds"])

    for message in run_failures(run)[:20]:
        print(f"failed: {message}", file=sys.stderr)
    attempted = len(names)
    failed = sum(failures.values())
    latency = latency_summary(latencies)
    layers["failed_share"] = failed / attempted
    if args.trace:
        layers["trace.coverage"] = layer_seconds(tracers) / busy
        layers["trace.overhead"] = spans * span_cost_seconds(tracers[0].clock) / busy

    def finite_ms(value: float) -> float:
        return value if value != float("inf") else FAILED_LATENCY_MS

    end_to_end = {
        "throughput_per_s": throughput,
        "latency_p50_ms": finite_ms(latency["p50_ms"]),
        "latency_tail_ms": finite_ms(latency["tail_ms"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
        **figures,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "inputs_digest": hashlib.sha256("\n".join(names).encode()).hexdigest(),
        "measured_seconds": wall,
        "wall_throughput_per_s": (
            sum(r.done for r in run["rounds"]) / wall if "rounds" in run else None
        ),
        "round_seconds": [r.wall for r in run.get("rounds", ())],
        "round_cpu_seconds": [r.cpu for r in run.get("rounds", ())],
        "round_peak_mb": [r.peak_mb for r in run.get("rounds", ())],
        "latency_samples": latency["samples"],
        "latency_tail_percentile": latency["tail_percentile"],
        "latency_tail_blocks": latency["tail_blocks"],
        "setup_samples_s": setup_samples,
        "failures_by_stage": dict(failures),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    if args.trace:
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        write_spans(path, tracers, report)
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"host": host}))
    print(json.dumps({"report": report}))
    values, units = (layers, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metric_block(values, units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
