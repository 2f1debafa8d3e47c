"""Metric names and the statistics behind them.

The names here are the contract with ``BENCHMARK.json``: an untraced run
prints exactly :data:`END_TO_END`, a traced run exactly :data:`PER_LAYER`.
Layer metrics ending in ``_ms`` are self time per operation (system or
request); size and work counts are per operation too, except the
``*_base`` denominators and ``scheduling.budget_exhausted``, which are
totals over the measured run.
"""

from __future__ import annotations

import ctypes
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

END_TO_END: Dict[str, str] = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rtos_speedup": "x",
    "code_size_ratio": "x",
}

PER_LAYER: Dict[str, str] = {
    "flowc.compile_ms": "ms",
    "flowc.link_ms": "ms",
    "flowc.places": "count",
    "flowc.transitions": "count",
    "petrinet.basis_ms": "ms",
    "petrinet.basis_rows": "count",
    "scheduling.search_ms": "ms",
    "scheduling.nodes_expanded": "count",
    "scheduling.useful_ratio": "ratio",
    "scheduling.useful_base": "count",
    "scheduling.failed_ms": "ms",
    "scheduling.budget_exhausted": "count",
    "objective.candidates": "count",
    "objective.improved_share": "ratio",
    "objective.improved_base": "count",
    "objective.predict_ms": "ms",
    "codegen.synthesize_ms": "ms",
    "codegen.code_bytes": "bytes",
    "runtime.simulate_ms": "ms",
    "runtime.transitions_executed": "count",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.live_searches": "count",
    "bench.check_ms": "ms",
    "bench.input_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "failed_share": "ratio",
}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Fewest samples a block of whole rounds holds when taking tails per block.
TAIL_BLOCK = 50


def _tail(ordered: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the sample with :data:`TAIL_BEYOND` larger ones.

    With too few samples the tail falls back to the maximum (percentile 100).
    """
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count


def latency_summary(rounds: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Median and tail of per-operation latencies; failures count as +inf.

    The median pools every sample.  The tail is the highest percentile with
    at least :data:`TAIL_BEYOND` samples beyond it, taken per block of whole
    consecutive rounds holding at least :data:`TAIL_BLOCK` samples (a short
    last block joins the one before) and reported as the median over blocks:
    one heavy system then moves one block's tail, not the run's.
    """
    blocks: List[List[float]] = []
    for samples in rounds:
        if blocks and len(blocks[-1]) < TAIL_BLOCK:
            blocks[-1].extend(samples)
        else:
            blocks.append(list(samples))
    if len(blocks) > 1 and len(blocks[-1]) < TAIL_BLOCK:
        blocks[-2].extend(blocks.pop())
    tails = [_tail(sorted(block)) for block in blocks]
    return {
        "p50_ms": statistics.median(s for samples in rounds for s in samples) * 1e3,
        "tail_ms": statistics.median(value for value, _ in tails) * 1e3,
        "tail_percentile": statistics.median(percentile for _, percentile in tails),
        "samples": sum(len(samples) for samples in rounds),
        "tail_blocks": len(blocks),
    }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 0 when there is nothing to average."""
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def median_rate(rounds: Sequence[Tuple[int, float]]) -> float:
    """Median over rounds of operations completed per second."""
    return statistics.median(done / seconds for done, seconds in rounds)


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line, in the contract's order."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def peak_rss_mb(pid: str = "self") -> float:
    """Resident-set high-water mark of a process (Linux ``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def restart_peak_rss(pid: str = "self") -> None:
    """Restart a process's high-water mark from its current RSS."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def trim_heap() -> None:
    """Hand this process's freed heap back to the OS (glibc), so the RSS a
    restarted high-water mark starts from is what is still in use."""
    ctypes.CDLL("libc.so.6").malloc_trim(0)
