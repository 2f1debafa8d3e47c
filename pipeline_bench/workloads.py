"""Seeded inputs of the four workloads.

Every input is a pure function of ``(workload, seed, round)``.  Compile
workloads run in rounds of a fixed mix, so every round carries the same
share of each kind of system and a run's throughput is the median over its
rounds.  No system repeats within a run: a structurally identical net would
replay the process-wide T-invariant basis store instead of measuring it.

A timed compile run measures a fixed core of rounds, the same systems for
every seed, in an order drawn by the seed: on a host whose speed drifts by
20-40% between runs, a fresh draw per seed would add its own spread to
every median.  The ``corpus`` and ``cost`` cores hold no system that trips
the known T-invariant tableau-cap defect described in this directory's
README (``test_determinism.py`` pins its reproducers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.video import VideoAppConfig
from repro.corpus.generator import (
    FAMILIES,
    generate_corpus,
    generate_spec,
    make_unschedulable_spec,
)
from repro.corpus.topologies import ScenarioSpec

#: Corpus systems per unschedulable one in a ``corpus`` round (8 per family).
CORPUS_ROUND = 8 * len(FAMILIES)

#: Systems per ``cost`` round: one per family.
COST_ROUND = len(FAMILIES)

#: Frame geometries of the ``pfc`` ladder: lines x pixels per line.
PFC_LINES = range(4, 17)
PFC_PIXELS = range(5, 17)

#: The ladder is cut into this many bands of rising frame area; a ``pfc``
#: round takes one geometry from each band, small to large.
PFC_BANDS = 5

#: Fixed shuffle of the ladder's bands.
PFC_LADDER_SEED = 18

#: Simulated frames per ``pfc`` system (one init command each).
PFC_FRAMES = 2

#: Hot set of the ``serve`` workload, its zipf exponent and the share of
#: requests that carry a never-seen net.
SERVE_HOT_SET = 32
SERVE_ZIPF = 1.1
SERVE_COLD_SHARE = 0.005

#: Rounds in each compile workload's core.  A timed run measures the whole
#: core and nothing else, so each core outlasts the 20-second window of
#: ``BENCHMARK.json`` on a 2-core host: about 27 s for ``corpus``, 25 s for
#: ``pfc`` and 26 s for ``cost``.
CORPUS_CORE_ROUNDS = 9
PFC_CORE_ROUNDS = 10
COST_CORE_ROUNDS = 11

#: Seeds of generated systems: the ``cost`` core, the ``corpus`` core, then
#: one stride per workload seed for the never-seen ``serve`` nets.  None
#: collides with the warm-up system (seed 0) or the ``serve`` hot set (just
#: below the first stride).
_CORE_BASE = 500_000
_CORPUS_CORE_BASE = 600_000
_SEED_BASE = 1_000_000
_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class SystemInput:
    """One system of a compile workload: a corpus spec or a video geometry."""

    name: str
    spec: Optional[ScenarioSpec] = None
    video: Optional[VideoAppConfig] = None


def _spec_base(seed: int) -> int:
    return _SEED_BASE + seed * _SEED_STRIDE


def _corpus_inputs(specs: Sequence[ScenarioSpec]) -> List[SystemInput]:
    return [SystemInput(name=spec.label(), spec=spec) for spec in specs]


def _core_position(seed: int, index: int, core: int) -> int:
    """Which of ``core`` fixed rounds round ``index`` runs, in an order drawn
    by ``seed``."""
    order = list(range(core))
    random.Random(seed).shuffle(order)
    return order[index]


def corpus_round(seed: int, index: int) -> List[SystemInput]:
    """56 generated systems cycling the 7 families, then one unschedulable.

    Round ``index`` of the :data:`CORPUS_CORE_ROUNDS`-round core, in an
    order drawn by ``seed``.
    """
    position = _core_position(seed, index, CORPUS_CORE_ROUNDS)
    specs = generate_corpus(CORPUS_ROUND, seed=_CORPUS_CORE_BASE + position * CORPUS_ROUND)
    specs.append(make_unschedulable_spec(_CORPUS_CORE_BASE + position))
    return _corpus_inputs(specs)


def cost_round(seed: int, index: int) -> List[SystemInput]:
    """One generated system of each family: round ``index`` of the
    :data:`COST_CORE_ROUNDS`-round core, in an order drawn by ``seed``."""
    position = _core_position(seed, index, COST_CORE_ROUNDS)
    first = _CORE_BASE + position * COST_ROUND
    return _corpus_inputs(generate_corpus(COST_ROUND, seed=first))


def pfc_bands() -> List[List[Tuple[int, int]]]:
    """The geometry ladder cut into bands of rising area, each in a fixed shuffle."""
    ladder = sorted(
        ((lines, pixels) for lines in PFC_LINES for pixels in PFC_PIXELS),
        key=lambda geometry: (geometry[0] * geometry[1], geometry),
    )
    size = -(-len(ladder) // PFC_BANDS)
    rng = random.Random(PFC_LADDER_SEED)
    bands = []
    for start in range(0, len(ladder), size):
        band = ladder[start:start + size]
        rng.shuffle(band)
        bands.append(band)
    return bands


def pfc_round(seed: int, index: int) -> List[SystemInput]:
    """The video system over one geometry of each band, small to large:
    round ``index`` of the :data:`PFC_CORE_ROUNDS`-round core, in an order
    drawn by ``seed``."""
    position = _core_position(seed, index, PFC_CORE_ROUNDS)
    inputs = []
    for band in pfc_bands():
        lines, pixels = band[position]
        inputs.append(
            SystemInput(
                name=f"pfc_{lines}x{pixels}",
                video=VideoAppConfig(lines_per_frame=lines, pixels_per_line=pixels),
            )
        )
    return inputs


class RoundPlan(NamedTuple):
    """How a compile workload makes its rounds; a timed run measures all
    ``core`` of them."""

    make: Callable[[int, int], List[SystemInput]]
    core: int


ROUNDS = {
    "corpus": RoundPlan(corpus_round, CORPUS_CORE_ROUNDS),
    "pfc": RoundPlan(pfc_round, PFC_CORE_ROUNDS),
    "cost": RoundPlan(cost_round, COST_CORE_ROUNDS),
}


def warmup_input(workload: str) -> SystemInput:
    """A tiny system outside every workload's draw, for lazy first-call set-up."""
    if workload == "pfc":
        return SystemInput(name="pfc_2x3", video=VideoAppConfig(2, 3))
    spec = generate_corpus(1, seed=0, families=("chain",))[0]
    return SystemInput(name=spec.label(), spec=spec)


def hot_set_specs() -> List[ScenarioSpec]:
    """The daemon's hot set: one fixed corpus draw, the same for every seed.

    The most popular nets set the median request latency; drawing them anew
    per seed would make that median a property of the draw.  The seed varies
    the request order and the never-seen nets.
    """
    return generate_corpus(SERVE_HOT_SET, seed=_SEED_BASE - SERVE_HOT_SET)


def cold_spec(seed: int, index: int) -> ScenarioSpec:
    """The ``index``-th never-seen corpus net of a ``serve`` run (families cycle)."""
    return generate_spec(_spec_base(seed) + index)


def request_plan(seed: int, stream: int) -> Iterator[int]:
    """Endless request plan of one connection: hot-set rank, or -1 for a cold net."""
    rng = random.Random(f"{seed}:{stream}")
    ranks = range(SERVE_HOT_SET)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in ranks]
    while True:
        cold = rng.random() < SERVE_COLD_SHARE
        rank = rng.choices(ranks, weights=weights)[0]
        yield -1 if cold else rank
