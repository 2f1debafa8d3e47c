"""ECS ordering heuristics for the scheduling algorithm (Section 5.5).

The order in which the function EP explores the enabled ECSs at a node does
not change what is schedulable, but it strongly affects the number of nodes
created and the size of the resulting schedule.  The paper proposes:

* a *promising vector* derived from a base of T-invariants: prefer ECSs
  containing transitions that still need to fire to close a cycle back to an
  already-visited marking (Section 5.5.2);
* tie-breaks: avoid ECSs whose children immediately hit the termination
  condition, postpone uncontrollable source ECSs, and prefer single-transition
  ECSs.

The promising-vector machinery also yields two sufficient non-schedulability
conditions: if the net has no T-invariant whose support contains the source
transition, no cyclic schedule exists; and if some choice cluster has a
resolution that every minimal T-invariant contradicts, no cyclic schedule
exists either (the T-allocation certificate,
:meth:`InvariantGuidedOrdering.allocation_certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.covering import build_candidate_invariant_problem, solve_binate_covering
from repro.petrinet.invariants import combine_invariants, invariant_basis
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet

ECS = FrozenSet[str]


@dataclass(frozen=True)
class ECSLookahead:
    """One-step lookahead facts about firing an ECS at the current node."""

    hits_termination: bool = False
    closes_cycle: bool = False
    token_delta: int = 0


class HeuristicContext:
    """Information available to the ordering heuristic at one tree node.

    ``marking`` is materialised lazily: the built-in heuristics rank ECSs
    from the lookahead masks and the path firing counts alone, and building
    a facade :class:`Marking` per expanded node is pure overhead in the
    search hot loop.  The scheduler passes ``marking_supplier`` instead; a
    heuristic that does read ``context.marking`` pays the conversion only
    then (and custom callers may still pass ``marking`` directly).
    """

    __slots__ = (
        "_marking",
        "_marking_supplier",
        "path_firings",
        "depth",
        "lookahead",
        "fired_by_tid",
    )

    def __init__(
        self,
        marking: Optional[Marking] = None,
        path_firings: Optional[Mapping[str, int]] = None,
        depth: int = 0,
        lookahead: Optional[Mapping[ECS, ECSLookahead]] = None,
        marking_supplier: Optional[Callable[[], Marking]] = None,
        fired_by_tid: Optional[Sequence[int]] = None,
    ):
        self._marking = marking
        self._marking_supplier = marking_supplier
        self.path_firings: Mapping[str, int] = path_firings if path_firings is not None else {}
        self.depth = depth
        # optional per-ECS one-step lookahead computed by the scheduler
        self.lookahead: Mapping[ECS, ECSLookahead] = lookahead if lookahead is not None else {}
        # optional dense twin of path_firings (indexed by transition ID); the
        # invariant-guided ordering uses it to skip a per-node Python scan of
        # the whole candidate invariant
        self.fired_by_tid = fired_by_tid

    @property
    def marking(self) -> Optional[Marking]:
        if self._marking is None and self._marking_supplier is not None:
            self._marking = self._marking_supplier()
        return self._marking

    def hits_termination(self, ecs: ECS) -> bool:
        info = self.lookahead.get(ecs)
        return info.hits_termination if info else False

    def closes_cycle(self, ecs: ECS) -> bool:
        info = self.lookahead.get(ecs)
        return info.closes_cycle if info else False

    def token_delta(self, ecs: ECS) -> int:
        info = self.lookahead.get(ecs)
        return info.token_delta if info else 0


class ECSOrderingHeuristic:
    """Base class: orders the enabled ECSs at a node (best first)."""

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        raise NotImplementedError


@dataclass
class NaiveOrdering(ECSOrderingHeuristic):
    """Deterministic name-based ordering (the ablation baseline)."""

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        return sorted(ecss, key=lambda ecs: sorted(ecs))


@dataclass
class TieBreakOrdering(ECSOrderingHeuristic):
    """The tie-break rules of Section 5.5.2 without invariant guidance.

    1. Non-source ECSs come before source ECSs ("fire a source transition only
       when the system cannot fire anything else").
    2. ECSs closing a cycle (a child marking equals an ancestor marking) come
       first -- they immediately provide an entering point.
    3. ECSs none of whose children hit the termination condition come next.
    4. ECSs that consume more tokens than they produce come before producers:
       draining channels first is what keeps the schedule (and the channel
       bounds) small.
    5. Single-transition ECSs come before multi-transition (choice) ECSs.
    """

    analysis: StructuralAnalysis

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        def key(ecs: ECS) -> Tuple:
            is_source = self.analysis.is_source_ecs(ecs)
            return (
                bool(is_source),
                not context.closes_cycle(ecs),
                bool(context.hits_termination(ecs)),
                context.token_delta(ecs),
                len(ecs) > 1,
                sorted(ecs),
            )

        return sorted(ecss, key=key)


@dataclass
class PromisingVectorState:
    """Mutable state of the invariant-guided heuristic along the search path."""

    vector: Dict[str, int] = field(default_factory=dict)

    def appears(self, transition: str) -> bool:
        return self.vector.get(transition, 0) > 0


class InvariantGuidedOrdering(ECSOrderingHeuristic):
    """T-invariant guided ordering (Section 5.5.2).

    The heuristic keeps a *promising vector*: a non-negative transition count
    vector derived from a T-invariant (or a sum of base invariants) minus the
    transitions already fired on the path.  ECSs containing a transition that
    appears in the promising vector are preferred; the tie-break rules of
    :class:`TieBreakOrdering` are applied within each group.

    The candidate invariant is chosen so that its support satisfies the
    necessary fireability condition of Theorem 5.3 (every pseudo-enabled ECS
    of a process appearing in the vector contributes a transition), using the
    binate-covering formulation.

    ``invariants`` overrides the net's computed basis; such a basis counts
    as possibly incomplete (``base_complete`` is False), which keeps
    :meth:`allocation_certificate` silent.
    """

    def __init__(
        self,
        net: PetriNet,
        analysis: StructuralAnalysis,
        source_transition: str,
        *,
        invariants: Optional[List[Dict[str, int]]] = None,
    ):
        self.net = net
        self.analysis = analysis
        self.source_transition = source_transition
        if invariants is not None:
            self.base, self.base_complete = invariants, False
        else:
            self.base, self.base_complete = invariant_basis(net)
        self.tie_break = TieBreakOrdering(analysis)
        self._candidate = self._select_candidate_invariant()
        # dense view of the candidate invariant (tids / counts), built lazily
        # per indexed snapshot for the fired_by_tid fast path of order()
        self._dense_for: Optional[object] = None
        self._candidate_tids = None
        self._candidate_counts = None

    # -- candidate invariant -------------------------------------------------
    def _select_candidate_invariant(self) -> Dict[str, int]:
        """A combination of base invariants covering the source transition and
        satisfying (heuristically) the Theorem 5.3 necessary condition."""
        if not self.base:
            return {}
        names = [f"inv{i}" for i in range(len(self.base))]
        by_name = dict(zip(names, self.base))
        # rows: for each invariant that uses a process but not some ECS of
        # that process reachable from the initial marking, require a helper.
        rows: List[Tuple[str, FrozenSet[str]]] = []
        process_of = {t: obj.process for t, obj in self.net.transitions.items()}
        ecs_by_process: Dict[Optional[str], List[ECS]] = {}
        for ecs in self.analysis.partition:
            proc = process_of.get(min(ecs))
            ecs_by_process.setdefault(proc, []).append(ecs)
        for name, invariant in by_name.items():
            processes_in_invariant = {process_of.get(t) for t in invariant}
            for proc in processes_in_invariant:
                if proc is None:
                    continue
                for ecs in ecs_by_process.get(proc, []):
                    if any(t in invariant for t in ecs):
                        continue
                    helpers = frozenset(
                        other
                        for other, other_inv in by_name.items()
                        if any(t in other_inv for t in ecs)
                    )
                    if helpers:
                        rows.append((name, helpers))
        mandatory = {
            name for name, invariant in by_name.items() if self.source_transition in invariant
        }
        if not mandatory:
            # no invariant fires the source: the net cannot cycle through it
            return {}
        problem = build_candidate_invariant_problem(names, rows)
        solution = solve_binate_covering(problem, initial=set(mandatory))
        if solution is None or not (solution & mandatory):
            solution = mandatory
        return combine_invariants([by_name[name] for name in sorted(solution)])

    @property
    def candidate_invariant(self) -> Dict[str, int]:
        return dict(self._candidate)

    def source_is_coverable(self) -> bool:
        """False when no T-invariant fires the source transition, a sufficient
        condition for non-schedulability (Section 5.5.2)."""
        return any(self.source_transition in invariant for invariant in self.base)

    def allocation_certificate(self) -> Optional[Tuple[ECS, str]]:
        """A T-allocation witness ``(E, t)`` proving the net unschedulable.

        ``E`` is a non-source ECS with two or more transitions and ``t`` one
        of them such that every minimal-support T-invariant fires some
        member of ``E`` other than ``t``.  No schedule can then exist: a
        schedule is finite and every node has a successor, so following
        ``t`` at every node that resolves ``E`` (and any child elsewhere)
        must close a cycle.  That cycle's firing vector is a T-invariant that
        is zero on ``E - {t}``, and the support of every non-zero
        T-invariant contains the support of a minimal one -- which would
        then avoid ``E - {t}`` too.  The cycle need not fire the source (a
        loop that never awaits the environment is still a cycle), so the
        rule deliberately asks nothing of the source's entry.

        The argument needs *every* minimal invariant, so the method returns
        ``None`` unless the basis is complete (the elimination never hit
        ``max_rows``).  It also returns ``None`` when no witness exists;
        the first witness in sorted ECS / transition order is returned
        otherwise, so the verdict is deterministic.
        """
        if not self.base_complete:
            return None
        clusters = sorted(
            tuple(sorted(ecs))
            for ecs in self.analysis.partition
            if len(ecs) > 1 and not self.analysis.is_source_ecs(ecs)
        )
        cluster_of = {t: index for index, names in enumerate(clusters) for t in names}
        # per cluster: how many invariants fire any member, and the members
        # some invariant fires alone (that invariant avoids the others)
        touching = [0] * len(clusters)
        alone: List[Set[str]] = [set() for _ in clusters]
        for invariant in self.base:
            hits: Dict[int, List[str]] = {}
            for transition in invariant:
                index = cluster_of.get(transition)
                if index is not None:
                    hits.setdefault(index, []).append(transition)
            for index, members in hits.items():
                touching[index] += 1
                if len(members) == 1:
                    alone[index].add(members[0])
        for index, names in enumerate(clusters):
            if touching[index] < len(self.base):
                # some invariant avoids the whole cluster: every t is covered
                continue
            for transition in names:
                if transition not in alone[index]:
                    return frozenset(names), transition
        return None

    # -- promising vector ------------------------------------------------------
    def promising_vector(self, path_firings: Mapping[str, int]) -> Dict[str, int]:
        """Remaining firings of the candidate invariant along the current path.

        The candidate invariant is replayed cyclically: the fired counts are
        reduced modulo the invariant so long schedules (several cycles of a
        process) keep receiving guidance.
        """
        if not self._candidate:
            return {}
        remaining: Dict[str, int] = {}
        # number of complete invariant repetitions already fired
        repetitions = min(
            (path_firings.get(t, 0) // count for t, count in self._candidate.items()),
            default=0,
        )
        for transition, count in self._candidate.items():
            fired = path_firings.get(transition, 0) - repetitions * count
            left = count - fired
            if left > 0:
                remaining[transition] = left
        if not remaining:
            return dict(self._candidate)
        return remaining

    def _dense_candidate(self, inet):
        """Candidate invariant as (tid array, count array), cached per snapshot."""
        if self._dense_for is not inet:
            import numpy as np

            items = sorted(self._candidate.items())
            tindex = inet.transition_index
            self._candidate_tids = np.asarray(
                [tindex[t] for t, _count in items], dtype=np.intp
            )
            self._candidate_counts = np.asarray(
                [count for _t, count in items], dtype=np.int64
            )
            self._dense_for = inet
        return self._candidate_tids, self._candidate_counts

    def _promising_predicate(self, context: HeuristicContext):
        """``ecs -> bool``: does the ECS contain a still-promising transition?

        With a dense ``fired_by_tid`` view the cyclic-replay arithmetic of
        :meth:`promising_vector` runs as one vector op per node (and one
        integer check per queried transition) instead of a Python scan over
        the whole candidate invariant; the two paths agree exactly because
        ``remaining`` is never empty for a non-empty candidate (the invariant
        repetition count is the floor-minimum over its support).
        """
        candidate = self._candidate
        fired = context.fired_by_tid
        if not candidate or fired is None:
            vector = self.promising_vector(context.path_firings)
            if not vector:
                return lambda ecs: True
            return lambda ecs: any(vector.get(t, 0) > 0 for t in ecs)
        tids, counts = self._dense_candidate(self.net.indexed())
        repetitions = int((fired[tids] // counts).min())
        tindex = self.net.indexed().transition_index

        def is_promising(ecs: ECS) -> bool:
            for transition in ecs:
                count = candidate.get(transition)
                if count is None:
                    continue
                left = count - (int(fired[tindex[transition]]) - repetitions * count)
                if left > 0:
                    return True
            return False

        return is_promising

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        is_promising = self._promising_predicate(context)

        def key(ecs: ECS) -> Tuple:
            is_source = self.analysis.is_source_ecs(ecs)
            promising = is_promising(ecs)
            # "Fire a source transition only when the system cannot fire
            # anything else" dominates, then cycle-closing moves, then the
            # termination lookahead, the token-consumption preference and the
            # promising-vector preference.
            return (
                bool(is_source),
                not context.closes_cycle(ecs),
                bool(context.hits_termination(ecs)),
                context.token_delta(ecs),
                not promising,
                len(ecs) > 1,
                sorted(ecs),
            )

        return sorted(ecss, key=key)


def make_heuristic(
    net: PetriNet,
    analysis: StructuralAnalysis,
    source_transition: str,
    *,
    use_invariants: bool = True,
) -> ECSOrderingHeuristic:
    """Factory for the default heuristic configuration."""
    if use_invariants:
        return InvariantGuidedOrdering(net, analysis, source_transition)
    return TieBreakOrdering(analysis)
