"""One system through the whole compile pipeline, with every output checked.

FlowC build -> link -> T-invariant basis -> EP search -> task synthesis and
code sizes -> multi-task and single-task simulation -> static prediction ->
checks.  Each step runs inside a tracer span named after the layer it calls
into.  A failure is tagged with the stage it happened in and never escapes:
the benchmark counts it and moves on to the next system.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.video import VideoAppConfig, build_video_network, reference_coefficient
from repro.codegen.synthesis import baseline_code_size, synthesize_task, synthesized_code_size
from repro.corpus.differential import prediction_problems, trace_diff
from repro.corpus.topologies import build_case
from repro.flowc.linker import link
from repro.petrinet.invariants import t_invariant_basis
from repro.runtime.channels import TraceRecorder, TracingSink
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import SchedulerOptions, find_all_schedules
from repro.scheduling.objective import predict_single_task
from repro.scheduling.serialize import schedule_fingerprint

from tracing import Tracer
from workloads import PFC_FRAMES, SystemInput


@dataclass
class Outcome:
    """Result of one system: verdict, latency, layer counts and cost figures."""

    name: str
    ok: bool = True
    stage: Optional[str] = None
    message: str = ""
    cpu_seconds: float = 0.0
    counts: Counter = field(default_factory=Counter)
    multi_cycles: Optional[float] = None
    single_cycles: Optional[float] = None
    baseline_bytes: Optional[int] = None
    synthesized_bytes: Optional[int] = None
    fingerprints: Dict[str, Optional[str]] = field(default_factory=dict)


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def pfc_stimulus(frames: int = PFC_FRAMES) -> Dict[str, List[int]]:
    """Init commands of the video system: alternating 0 / 1, one per frame."""
    return {"init": [frame % 2 for frame in range(frames)]}


def pfc_reference_display(config: VideoAppConfig, commands: List[int]) -> List[int]:
    """Pixels the display must receive, from the producer and filter formulas."""
    lines, pixels = config.lines_per_frame, config.pixels_per_line
    display = []
    for frame, cmd in enumerate(commands):
        coeff = reference_coefficient(frame, cmd)
        for line in range(lines):
            for p in range(pixels):
                value = (frame * 31 + line * pixels + p) % 256
                display.append(max((value * coeff) % 256, 0))
    return display


def _check_search(results, options: SchedulerOptions, outcome: Outcome, schedules) -> None:
    """Tally the search counters and check the cost objective's selection."""
    counts = outcome.counts
    for source, result in results.items():
        counts["nodes_expanded"] += result.counters.nodes_expanded
        counts["sources"] += 1
        outcome.fingerprints[source] = (
            schedule_fingerprint(result.schedule) if result.success else None
        )
        if result.success:
            schedules[source] = result.schedule
            counts["schedule_nodes"] += len(result.schedule)
        else:
            counts["failed_sources"] += 1
            counts["failed_seconds"] += result.elapsed_seconds
            counts["budget_exhausted"] += result.tree_nodes >= options.max_nodes
        stats = result.objective_stats
        if stats is not None:
            counts["cost_sources"] += 1
            counts["candidates"] += stats["candidates"]
            counts["improved"] += stats["selected_score"] < stats["first_score"]
            if stats["selected_score"] > stats["first_score"]:
                raise CheckFailed(
                    f"{source}: selected score {stats['selected_score']} "
                    f"> first-found {stats['first_score']}"
                )


def compile_system(item: SystemInput, tracer: Tracer, options: SchedulerOptions) -> Outcome:
    """Run ``item`` through every stage; the outcome records where it failed."""
    outcome = Outcome(item.name)
    counts = outcome.counts
    stage = "build"
    started = time.process_time()
    try:
        with tracer.span("flowc.compile"):
            if item.spec is not None:
                case = build_case(item.spec)
                network, manifest = case.network, case.manifest
                stimulus = manifest["stimulus"]
                sources = manifest["source_transitions"]
                expect_schedulable = bool(manifest["expected_schedulable"])
                outputs = manifest["outputs"]
            else:
                network = build_video_network(item.video)
                stimulus, sources, expect_schedulable = pfc_stimulus(), None, True
                outputs = ["display"]
        stage = "link"
        with tracer.span("flowc.link"):
            linked = link(network)
        counts["places"] = len(linked.net.places)
        counts["transitions"] = len(linked.net.transitions)

        stage = "basis"
        with tracer.span("petrinet.basis"):
            basis = t_invariant_basis(linked.net)
        counts["basis_rows"] = len(basis)

        stage = "schedule"
        with tracer.span("scheduling.search"):
            results = find_all_schedules(linked.net, options=options, sources=sources)
        schedules = {}
        with tracer.span("bench.check"):
            _check_search(results, options, outcome, schedules)
        schedulable = len(schedules) == len(results)
        if schedulable != expect_schedulable:
            raise CheckFailed(
                f"expected schedulable={expect_schedulable}, per-source success="
                f"{ {s: r.success for s, r in results.items()} }"
            )
        if not schedulable:
            return outcome

        stage = "codegen"
        with tracer.span("codegen.synthesize"):
            tasks = [synthesize_task(linked, schedule) for schedule in schedules.values()]
            baseline = baseline_code_size(linked)["total"]
            synthesized = sum(synthesized_code_size(task, linked) for task in tasks)
        counts["code_bytes"] = synthesized

        stage = "simulate"
        with tracer.span("runtime.simulate"):
            multi_trace, single_trace = TraceRecorder(), TraceRecorder()
            multi = MultiTaskSimulation(linked, stimulus=stimulus)
            single = SingleTaskSimulation(linked, schedules=schedules)
            for port in outputs:
                multi.replace_sink(port, TracingSink(port, multi_trace))
                single.replace_sink(port, TracingSink(port, single_trace))
            multi_result = multi.run()
            single_result = single.run(stimulus)
        counts["transitions_executed"] = (
            multi_result.transitions_executed + single_result.transitions_executed
        )

        stage = "predict"
        with tracer.span("objective.predict"):
            prediction = predict_single_task(linked, schedules, stimulus)

        stage = "check"
        with tracer.span("bench.check"):
            problems = prediction_problems(prediction, single_result)
            diff = trace_diff(multi_trace, single_trace)
            if diff is not None:
                problems.append(f"trace divergence: {diff}")
            events = sum(len(values) for values in stimulus.values())
            for result in (multi_result, single_result):
                if result.events_served != events:
                    problems.append(
                        f"{result.implementation} served {result.events_served}/{events} events"
                    )
            if item.video is not None:
                expected = pfc_reference_display(item.video, stimulus["init"])
                if single_result.outputs.port("display") != expected:
                    problems.append("single-task display differs from the pixel reference")
                if multi_result.outputs.port("display") != expected:
                    problems.append("multi-task display differs from the pixel reference")
            if baseline <= 0 or synthesized <= 0:
                problems.append(f"code sizes {baseline} / {synthesized} bytes")
            if problems:
                raise CheckFailed("; ".join(problems))
        outcome.multi_cycles = multi_result.cycles("pfc")
        outcome.single_cycles = single_result.cycles("pfc")
        outcome.baseline_bytes = baseline
        outcome.synthesized_bytes = synthesized
    except CheckFailed as error:
        outcome.ok, outcome.stage, outcome.message = False, stage, str(error)
    except Exception as error:  # noqa: BLE001 - a crash in any layer is a failed operation
        outcome.ok, outcome.stage = False, stage
        outcome.message = "".join(traceback.format_exception_only(type(error), error)).strip()
    finally:
        outcome.cpu_seconds = time.process_time() - started
    return outcome
