"""Incidence matrix and T-invariant computation.

Section 5.5.2 of the paper uses a non-negative basis of T-invariants (vectors
``x >= 0`` with ``C x = 0`` where ``C`` is the incidence matrix) to guide the
selection of ECSs during scheduling, and uses the *absence* of such a basis as
a sufficient condition for non-schedulability.

We compute minimal-support non-negative integer invariants with the classical
Farkas / Fourier-Motzkin elimination algorithm: start from ``[C^T | I]`` and
eliminate the columns of ``C^T`` one at a time by taking positive combinations
of rows with opposite signs, dropping rows whose support is a superset of
another row's support.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.cache as artifact_cache
from repro.petrinet.fingerprint import incidence_fingerprint
from repro.petrinet.net import PetriNet
from repro.util import BoundedLRU

# Warm-start store for computed bases, keyed on the *incidence fingerprint*
# (the basis depends on nothing else).  The per-snapshot analysis_cache dies
# whenever a config sweep rebuilds a structurally identical net object; this
# store survives and replays the basis instead of re-running the Farkas
# elimination.  Bounded LRU so long property-test runs cannot grow it.
# When the disk cache is active (repro.cache.activate / REPRO_CACHE=1) the
# same key additionally hits the persistent store, so the elimination is
# skipped across *processes*; loaded bases are re-verified against C x = 0
# before being trusted.  Every level stores the completeness bit with the
# vectors, so a replayed basis is exactly as trustworthy as a computed one.
_BASIS_WARM_STORE: "BoundedLRU[Tuple[str, int], InvariantBasis]" = BoundedLRU(32)


class InvariantBasis(NamedTuple):
    """A T-invariant basis plus whether the elimination ran to completion.

    ``complete`` is True only when the Farkas elimination never hit its
    ``max_rows`` cap, i.e. ``invariants`` holds *every* minimal-support
    invariant of the net.  Structural certificates that reason about the
    absence of an invariant are exact only on a complete basis; a truncated
    one still lists valid invariants, but not necessarily all of them.
    """

    invariants: List[Dict[str, int]]
    complete: bool

    def copy(self) -> "InvariantBasis":
        """A copy with fresh vector dicts (callers may mutate what they get)."""
        return InvariantBasis([dict(inv) for inv in self.invariants], self.complete)


def incidence_matrix(net: PetriNet) -> Tuple[np.ndarray, List[str], List[str]]:
    """Return ``(C, places, transitions)`` with ``C[i, j] = F(t_j, p_i) - F(p_i, t_j)``.

    Rows are indexed by places and columns by transitions, both in sorted name
    order so the matrix is reproducible.
    """
    indexed = net.indexed()
    places = list(indexed.place_names)
    transitions = list(indexed.transition_names)
    matrix = np.zeros((len(places), len(transitions)), dtype=np.int64)
    for tid, deltas in enumerate(indexed.delta):
        for pid, delta in deltas:
            matrix[pid, tid] = delta
    return matrix, places, transitions


def _normalise_row(row: np.ndarray) -> np.ndarray:
    """Divide a non-negative integer row by the gcd of its entries."""
    nonzero = [int(v) for v in row if v != 0]
    if not nonzero:
        return row
    divisor = 0
    for value in nonzero:
        divisor = gcd(divisor, abs(value))
    if divisor > 1:
        return row // divisor
    return row


def _drop_non_minimal(rows: List[np.ndarray], width: int) -> List[np.ndarray]:
    """Remove rows whose invariant-part support strictly contains another's.

    This is the hot loop of the Farkas elimination, so the all-pairs subset
    test runs as one dense boolean matrix product: ``support_j  support_i``
    iff support_j hits no column outside support_i.
    """
    n = len(rows)
    if n <= 1:
        return list(rows)
    supports = np.array([row[-width:] != 0 for row in rows])
    # contained[j, i] True iff support_j is a subset of support_i; float32
    # matmul routes through BLAS and is exact for these small counts
    contained = (supports.astype(np.float32) @ (~supports).astype(np.float32).T) == 0
    equal = contained & contained.T
    strict = contained & ~contained.T
    # drop row i when a strict subset exists, or an equal support came earlier
    # (triu(k=1)[j, i] is True exactly for j < i)
    earlier = np.triu(np.ones((n, n), dtype=bool), 1)
    dominated = (strict | (equal & earlier)).any(axis=0)
    return [row for row, drop in zip(rows, dominated) if not drop]


def t_invariant_basis(net: PetriNet, *, max_rows: int = 4096) -> List[Dict[str, int]]:
    """Minimal-support non-negative T-invariants of ``net``.

    Returns a list of sparse vectors (transition name -> positive count).  The
    empty list means the net admits no non-trivial T-invariant, which by the
    argument of Section 5.5.2 implies no cyclic schedule exists.

    ``max_rows`` caps the intermediate tableau to keep the elimination from
    exploding on pathological nets; when the cap is hit the result is still a
    set of valid invariants but may not contain every minimal one
    (:func:`invariant_basis` reports which case occurred).

    The basis is cached at two levels: on the net's indexed snapshot (so
    repeated calls for the same structural version -- one per scheduled
    source transition -- pay the elimination only once), and in a
    process-wide warm-start store keyed on the incidence fingerprint, so a
    structurally identical net *rebuilt* by a config sweep replays the basis
    instead of re-eliminating.
    """
    return invariant_basis(net, max_rows=max_rows).invariants


def invariant_basis(net: PetriNet, *, max_rows: int = 4096) -> InvariantBasis:
    """:func:`t_invariant_basis` plus its completeness bit.

    ``complete`` is False when the tableau was cut at ``max_rows`` at any
    elimination step.  The bit shares every cache level with the vectors.
    """
    cache_key = ("t_invariant_basis", max_rows)
    cache = net.indexed().analysis_cache
    cached = cache.get(cache_key)
    if cached is not None:
        return cached.copy()
    incidence_fp = incidence_fingerprint(net)
    warm_key = (incidence_fp, max_rows)
    warmed = _BASIS_WARM_STORE.get(warm_key)
    if warmed is not None:
        cache[cache_key] = warmed.copy()
        return warmed.copy()
    disk = artifact_cache.active_store()
    if disk is not None:
        loaded = artifact_cache.load_invariant_basis(
            disk, net, incidence_fp=incidence_fp, max_rows=max_rows
        )
        if loaded is not None:
            _BASIS_WARM_STORE.put(warm_key, loaded.copy())
            cache[cache_key] = loaded.copy()
            return loaded
    matrix, _places, transitions = incidence_matrix(net)
    n_places, n_transitions = matrix.shape
    if n_transitions == 0:
        return InvariantBasis([], True)
    # tableau rows: [C^T row | identity row]
    tableau = np.hstack([matrix.T, np.eye(n_transitions, dtype=np.int64)])
    rows: List[np.ndarray] = [tableau[i].copy() for i in range(n_transitions)]
    complete = True

    for column in range(n_places):
        positive = [row for row in rows if row[column] > 0]
        negative = [row for row in rows if row[column] < 0]
        zero = [row for row in rows if row[column] == 0]
        combined: List[np.ndarray] = list(zero)
        for prow in positive:
            for nrow in negative:
                a = int(prow[column])
                b = -int(nrow[column])
                factor = a * b // gcd(a, b)
                new_row = (factor // a) * prow + (factor // b) * nrow
                new_row = _normalise_row(new_row)
                combined.append(new_row)
                if len(combined) > max_rows:
                    break
            if len(combined) > max_rows:
                break
        if len(combined) > max_rows:
            complete = False
        rows = _drop_non_minimal(combined, n_transitions)
        if len(rows) > max_rows:
            rows = rows[:max_rows]
            complete = False

    invariants: List[Dict[str, int]] = []
    seen = set()
    for row in rows:
        invariant_part = row[-n_transitions:]
        if np.all(invariant_part == 0):
            continue
        if np.any(invariant_part < 0):
            continue
        key = tuple(int(v) for v in invariant_part)
        if key in seen:
            continue
        seen.add(key)
        invariants.append(
            {transitions[i]: int(v) for i, v in enumerate(invariant_part) if v != 0}
        )
    invariants.sort(key=lambda inv: (len(inv), sorted(inv.items())))
    basis = InvariantBasis(invariants, complete)
    cache[cache_key] = basis.copy()
    _BASIS_WARM_STORE.put(warm_key, basis.copy())
    if disk is not None:
        artifact_cache.store_invariant_basis(
            disk,
            incidence_fp=incidence_fp,
            max_rows=max_rows,
            basis=invariants,
            complete=complete,
        )
    return basis


def is_t_invariant(net: PetriNet, vector: Dict[str, int]) -> bool:
    """Check that ``vector`` (transition -> count) satisfies ``C x = 0``."""
    matrix, _places, transitions = incidence_matrix(net)
    x = np.zeros(len(transitions), dtype=np.int64)
    index = {t: i for i, t in enumerate(transitions)}
    for transition, count in vector.items():
        if transition not in index:
            return False
        if count < 0:
            return False
        x[index[transition]] = count
    return bool(np.all(matrix @ x == 0))


def invariant_support(invariant: Dict[str, int]) -> frozenset:
    """The set of transitions occurring in an invariant."""
    return frozenset(t for t, count in invariant.items() if count > 0)


def combine_invariants(invariants: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Component-wise sum of several invariants (itself an invariant)."""
    result: Dict[str, int] = {}
    for invariant in invariants:
        for transition, count in invariant.items():
            result[transition] = result.get(transition, 0) + count
    return {t: c for t, c in result.items() if c}


def firing_count_vector(sequence: Sequence[str]) -> Dict[str, int]:
    """Parikh vector of a firing sequence."""
    counts: Dict[str, int] = {}
    for transition in sequence:
        counts[transition] = counts.get(transition, 0) + 1
    return counts


def subtract_firings(invariant: Dict[str, int], fired: Dict[str, int]) -> Optional[Dict[str, int]]:
    """Subtract fired counts from an invariant, clipping at zero.

    Returns ``None`` if the invariant is exhausted (all entries consumed),
    which signals that the corresponding cyclic behaviour has completed.
    """
    remaining: Dict[str, int] = {}
    for transition, count in invariant.items():
        left = count - fired.get(transition, 0)
        if left > 0:
            remaining[transition] = left
    return remaining or None
