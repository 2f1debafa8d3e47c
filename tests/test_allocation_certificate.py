"""Soundness differential of the T-allocation certificate.

The invariant precheck rejects a net without searching when some choice
cluster ``E`` has a member ``t`` such that every minimal-support T-invariant
fires a member of ``E`` other than ``t``
(:meth:`InvariantGuidedOrdering.allocation_certificate`).  A false positive
would turn a schedulable system into a wrong "no schedule" answer, so this
module pins, on every family of nets the project ships, that the certificate
never fires where the search succeeds; that it does fire, with its witness,
on the corpus's Figure-4b-shaped unschedulable systems; and that it stays
silent whenever the basis it reads may be incomplete.
"""

from __future__ import annotations

import random

import pytest

from golden_nets import GOLDEN_CASES
from repro.apps.divisors import build_divisors_system
from repro.apps.false_paths import build_false_path_network, link_with_unrolling
from repro.apps.video import VideoAppConfig, build_video_system
from repro.apps.workloads import (
    build_pipeline_network,
    build_producer_consumer_network,
    random_choice_net,
    random_multi_source_net,
)
from repro.corpus import FAMILIES, build_case, generate_spec, make_unschedulable_spec
from repro.flowc.linker import link
from repro.petrinet import invariants as invariants_module
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.invariants import invariant_basis
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.heuristics import InvariantGuidedOrdering

pytestmark = pytest.mark.filterwarnings("ignore:compiled kernel tier unavailable")

#: The witness every ``make_unschedulable_spec`` system must be rejected by:
#: ``u1``'s data-dependent choice, whose arms feed different channels.
UNSCHEDULABLE_WITNESS = frozenset({"u1.t1", "u1.t4"})

#: Schedulable systems the manifest marks schedulable, on which the basis
#: elimination hits its ``max_rows`` cap (``t_invariant_basis`` loses every
#: invariant through one source there, so the older precheck still rejects
#: them; see ``pipeline_bench/test_determinism.py``).
TRUNCATION_REPRODUCERS = [(1600146, "multi_source"), (41407398400465, "layered")]


def certificate(net, source):
    return InvariantGuidedOrdering(net, StructuralAnalysis.of(net), source).allocation_certificate()


def _unschedulable_net():
    case = build_case(make_unschedulable_spec(0))
    return link(case.network).net, case.manifest["source_transitions"][0]


def assert_silent_where_schedulable(net, sources, *, max_nodes=50_000, expect=True):
    """The certificate must not fire on any source the search schedules.

    The search runs with the precheck off, so its verdict is independent of
    the certificate.  ``expect`` additionally requires every source to
    schedule (the net is known schedulable).
    """
    options = SchedulerOptions(max_nodes=max_nodes, invariant_precheck=False)
    scheduled = 0
    for source in sources:
        result = find_schedule(net, source, options=options)
        if expect:
            assert result.success, (source, result.failure_reason)
        if result.success:
            scheduled += 1
            assert certificate(net, source) is None, source
    return scheduled


# ---------------------------------------------------------------------------
# never fires where the search succeeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net_name", sorted(GOLDEN_CASES))
def test_silent_on_every_golden_net(net_name):
    builder, sources = GOLDEN_CASES[net_name]
    net = builder()
    if net_name == "figure_4b":
        # pinned as a failure fixture that fails *through the search* (in
        # three nodes): the certificate must leave its reason unchanged
        assert all(certificate(net, source) is None for source in sources)
        return
    assert_silent_where_schedulable(net, sources)


def test_divisors_while_loop_is_not_rejected():
    """Regression: the while-loop ECS ``{divisors.t2, divisors.t9}``.

    Its continue arm closes a cycle that never awaits the environment, so the
    invariant that certifies the arm does not fire the source.  A variant of
    the rule that also demanded ``x[source] > 0`` rejected this schedulable
    system.
    """
    system = build_divisors_system()
    net = system.net
    ecss = {frozenset(ecs) for ecs in StructuralAnalysis.of(net).partition}
    assert frozenset({"divisors.t2", "divisors.t9"}) in ecss
    assert certificate(net, "src.divisors.in") is None
    result = find_schedule(net, "src.divisors.in")
    assert result.success, result.failure_reason


@pytest.mark.parametrize("geometry", [(4, 5), (6, 8)])
def test_silent_on_the_video_system(geometry):
    lines, pixels = geometry
    net = build_video_system(VideoAppConfig(lines_per_frame=lines, pixels_per_line=pixels)).net
    assert_silent_where_schedulable(net, ["src.controller.init"])


def test_silent_on_false_paths():
    net = link_with_unrolling(build_false_path_network()).net
    assert_silent_where_schedulable(net, net.uncontrollable_sources())


@pytest.mark.parametrize(
    "network",
    [
        build_producer_consumer_network(4),
        build_producer_consumer_network(6, burst=2),
        build_pipeline_network(2, 1),
        build_pipeline_network(4, 3),
    ],
    ids=["pc4", "pc6_burst2", "pipeline2x1", "pipeline4x3"],
)
def test_silent_on_workload_builders(network):
    net = link(network).net
    assert_silent_where_schedulable(net, net.uncontrollable_sources())


def test_silent_on_random_choice_nets():
    scheduled = 0
    for seed in range(200):
        net = random_choice_net(1 + seed % 4, rng=random.Random(seed))
        scheduled += assert_silent_where_schedulable(
            net, ["src"], max_nodes=2_000, expect=False
        )
    # the family may draw count-mismatched nets the search rejects; the
    # sweep must still exercise the schedulable side
    assert scheduled >= 100


def test_silent_on_random_multi_source_nets():
    for seed in range(200):
        net = random_multi_source_net(1 + seed % 3, 3, rng=random.Random(seed))
        assert_silent_where_schedulable(net, net.uncontrollable_sources(), max_nodes=2_000)


@pytest.mark.parametrize("family", FAMILIES)
def test_silent_on_a_strided_corpus_sample(family):
    for seed in range(5, 2_000, 400):
        case = build_case(generate_spec(seed, family))
        assert case.manifest["expected_schedulable"]
        net = link(case.network).net
        assert_silent_where_schedulable(net, case.manifest["source_transitions"])


# ---------------------------------------------------------------------------
# fires on the unschedulable corpus systems
# ---------------------------------------------------------------------------


def test_fires_on_every_unschedulable_spec():
    for seed in range(50):
        case = build_case(make_unschedulable_spec(seed))
        net = link(case.network).net
        for source in case.manifest["source_transitions"]:
            witness = certificate(net, source)
            assert witness is not None, seed
            ecs, transition = witness
            assert ecs == UNSCHEDULABLE_WITNESS, seed
            assert transition in ecs
            result = find_schedule(net, source)
            assert not result.success
            assert result.tree_nodes == 0
            assert "{u1.t1, u1.t4}" in result.failure_reason


def test_disabled_precheck_falls_back_to_the_budget():
    net, source = _unschedulable_net()
    result = find_schedule(
        net, source, options=SchedulerOptions(max_nodes=400, invariant_precheck=False)
    )
    assert not result.success
    assert result.tree_nodes >= 400
    assert result.failure_reason == (
        "node budget of 400 exhausted before an entering point was found"
    )


# ---------------------------------------------------------------------------
# the completeness gate
# ---------------------------------------------------------------------------


def test_truncated_basis_keeps_the_certificate_silent():
    net, source = _unschedulable_net()
    full = invariant_basis(net)
    assert full.complete and full.invariants
    truncated = invariant_basis(net, max_rows=2)
    assert not truncated.complete
    analysis = StructuralAnalysis.of(net)
    heuristic = InvariantGuidedOrdering(net, analysis, source, invariants=truncated.invariants)
    assert not heuristic.base_complete
    assert heuristic.allocation_certificate() is None
    # a caller-supplied basis is never trusted as complete, even a full one
    supplied = InvariantGuidedOrdering(net, analysis, source, invariants=full.invariants)
    assert supplied.allocation_certificate() is None


@pytest.mark.parametrize("spec_seed, family", TRUNCATION_REPRODUCERS)
def test_silent_on_the_truncation_reproducers(spec_seed, family):
    case = build_case(generate_spec(spec_seed, family))
    net = link(case.network).net
    assert not invariant_basis(net).complete
    for source in case.manifest["source_transitions"]:
        assert certificate(net, source) is None


def test_warm_store_replay_keeps_the_bit():
    net, _source = _unschedulable_net()
    invariants_module._BASIS_WARM_STORE.clear()
    try:
        for max_rows, complete in ((4096, True), (2, False)):
            computed = invariant_basis(net, max_rows=max_rows)
            assert computed.complete is complete
            rebuilt, _ = _unschedulable_net()  # fresh snapshot: warm-store hit
            assert invariant_basis(rebuilt, max_rows=max_rows) == computed
    finally:
        invariants_module._BASIS_WARM_STORE.clear()
