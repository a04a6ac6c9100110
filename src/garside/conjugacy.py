"""Conjugacy decision and search via sliding circuits.

The solver follows the staged plan: reach a sliding circuit by iterated
cyclic sliding while keeping a short conjugator; walk the graph whose
vertices are sliding circuits breadth first, computing the outgoing
indecomposable conjugators once per circuit (at its first-found element)
by combining a minimal summit conjugator with iterated pullbacks and
transports along the circuit; stop when the target is met or the
component is exhausted.  The other elements of a circuit are reached by
cyclic sliding itself.  A brute-force solver that conjugates by every
simple element is kept as a desk-scale reference oracle.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable

from .contract import GarsideContext, Simple, require_same_context
from .elements import Element, atom_element, identity_element
from .errors import GarsideError, InternalInvariantError
from .oracle import enumerate_simples
from .sliding import (
    Trajectory,
    minimal_sss_conjugator,
    preferred_prefix,
    pullback_step,
    slide_to_first_repetition,
    transport,
)


@dataclasses.dataclass
class RunStats:
    """Observed instrumentation counters for one solver run.

    ``trajectory_entry`` is the largest pre-periodic trajectory length
    seen, ``circuit_period`` the largest sliding-circuit length,
    ``r_max``/``pullback_max`` the largest distances at which iterated
    transports/pullbacks first repeated, ``sc_size`` counts the elements
    of the circuits explored, and ``contract_calls`` snapshots the
    context's basic-operation counter.  No a-priori bounds are claimed for
    any of these; they are observations.
    """

    trajectory_entry: int = 0
    circuit_period: int = 0
    r_max: int = 0
    pullback_max: int = 0
    sc_size: int = 0
    contract_calls: int = 0

    def observe_trajectory(self, traj: Trajectory) -> None:
        self.trajectory_entry = max(self.trajectory_entry, traj.entry_index)
        self.circuit_period = max(self.circuit_period, traj.period)

    def repetition_guard(self, delta_norm: int) -> int:
        """Iteration cap for repetition searches: generous multiple of what
        has been observed, with a floor at the proven rigid-case distance."""
        return 4 * max(self.r_max, self.pullback_max, delta_norm) + 16

    def as_dict(self) -> dict:
        return {
            "T": self.trajectory_entry,
            "N": self.circuit_period,
            "R_max": self.r_max,
            "sc_size": self.sc_size,
            "contract_calls": self.contract_calls,
        }


@dataclasses.dataclass(frozen=True)
class Circuit:
    """One sliding circuit: the orbit of a periodic point of cyclic sliding."""

    elements: tuple[Element, ...]

    @property
    def base(self) -> Element:
        return self.elements[0]

    @property
    def period(self) -> int:
        return len(self.elements)


def circuit_of(v: Element) -> Circuit:
    """The sliding circuit through v; v must be a periodic point."""
    traj = slide_to_first_repetition(v)
    if traj.entry_index != 0:
        raise GarsideError("element does not lie on a sliding circuit")
    return Circuit(traj.elements)


def slide_to_circuit(x: Element, stats: RunStats | None = None) -> tuple[Element, Element]:
    """Iterated cyclic sliding to a periodic point, with a short conjugator.

    Returns ``(x̃, c)`` with ``x^c = x̃``; c is the product of the preferred
    prefixes along the pre-periodic part only, i.e. the full trajectory
    conjugator with the once-around-the-circuit suffix cancelled off.
    """
    traj = slide_to_first_repetition(x)
    if stats is not None:
        stats.observe_trajectory(traj)
    c = identity_element(x.ctx)
    for m in range(traj.entry_index):
        c = c.mul_simple(preferred_prefix(traj.elements[m]))
    return traj.elements[traj.entry_index], c


@dataclasses.dataclass(frozen=True)
class TransportCycle:
    """Iterated whole-circuit transports of u until the first repetition.

    ``values[i]`` is the i-fold circuit transport of u; ``values[i1] ==
    values[i2]`` is the first repetition.  ``fixed`` collects the periodic
    part, the transports that are themselves fixed by some transport
    power, i.e. the conjugators landing back in a sliding circuit.
    """

    values: tuple[Element, ...]
    i1: int
    i2: int

    @property
    def fixed(self) -> frozenset[Element]:
        return frozenset(self.values[self.i1:self.i2])

    @property
    def period(self) -> int:
        return self.i2 - self.i1


def _transport_once_around(circuit: Circuit, u: Element) -> Element:
    for v in circuit.elements:
        u = transport(v, u)
        if not u.is_positive:
            raise InternalInvariantError(
                "transport of a positive conjugator between super summit "
                "conjugates came out non-positive"
            )
    return u


def _first_repetition(
    step: Callable[[Element], Element], start: Element, max_rounds: int, kind: str
) -> tuple[tuple[Element, ...], int, int]:
    """Iterate step from start until a value repeats.

    Returns ``(values, i1, i2)``: ``values[i]`` is the i-fold iterate,
    ``i2 == len(values)``, and step of the last value is ``values[i1]``.
    """
    seen: dict[Element, int] = {}
    values: list[Element] = []
    cur = start
    while cur not in seen:
        seen[cur] = len(values)
        values.append(cur)
        if len(values) > max_rounds:
            raise InternalInvariantError(
                f"no {kind} repetition within {max_rounds} rounds"
            )
        cur = step(cur)
    return tuple(values), seen[cur], len(values)


def _round_cap(circuit: Circuit, stats: RunStats | None) -> int:
    return (stats or RunStats()).repetition_guard(circuit.base.ctx.delta_norm)


def transport_cycle(
    circuit: Circuit, u: Element, stats: RunStats | None = None
) -> TransportCycle:
    """Transport u around the circuit until a value repeats."""
    values, i1, i2 = _first_repetition(
        lambda cur: _transport_once_around(circuit, cur),
        u,
        _round_cap(circuit, stats),
        "transport",
    )
    if stats is not None:
        stats.r_max = max(stats.r_max, i2)
    return TransportCycle(values, i1, i2)


def _pullback_once_around(circuit: Circuit, s: Element) -> Element:
    n = circuit.period
    elems = circuit.elements
    for m in range(n):
        anchor = elems[(n - m) % n]
        source = elems[(n - m - 1) % n]
        s = pullback_step(source, anchor, s)
    return s


def iterated_pullback_to_repetition(
    circuit: Circuit, s: Element, stats: RunStats | None = None
) -> Element:
    """Whole-circuit pullbacks of s until a value repeats; that value is returned."""
    values, i1, _ = _pullback_orbit(circuit, s, stats)
    return values[i1]


def _pullback_orbit(
    circuit: Circuit, s: Element, stats: RunStats | None = None
) -> tuple[tuple[Element, ...], int, int]:
    values, i1, i2 = _first_repetition(
        lambda cur: _pullback_once_around(circuit, cur),
        s,
        2 * _round_cap(circuit, stats),
        "pullback",
    )
    if stats is not None:
        stats.pullback_max = max(stats.pullback_max, i2)
    return values, i1, i2


def _atom_divides(ctx: GarsideContext, a, x: Element) -> bool:
    """Does the atom a left-divide the positive element x?"""
    if x.p >= 1:
        return True
    if not x.factors:
        return False
    return ctx.divide_atom_left(a, x.factors[0]) is not None


def arrows_at(
    circuit: Circuit, stats: RunStats | None = None
) -> tuple[Simple, ...]:
    """Labels of the outgoing indecomposable conjugators at the circuit base.

    For each atom in index order: grow the atom into the minimal
    conjugator reaching a super summit conjugate; if the atom divides the
    preferred prefix, replace it by its repeated-pullback value; transport
    around the circuit until repetition; and accept the periodic value
    divisible by the atom unless a previously accepted or later atom also
    divides it (in which case it is decomposable or found again later).
    """
    v = circuit.base
    ctx = v.ctx
    inf_v, sup_v, len_v = v.p, v.sup, v.canonical_length
    prefix_v = preferred_prefix(v)
    arrows: list[Simple] = []
    accepted: list = []  # atoms whose conjugator was accepted
    for t, atom in enumerate(ctx.atoms, start=1):
        va = v.conjugated_by_simple(ctx.atom_simple(atom))
        if va.canonical_length > len_v:
            rho = minimal_sss_conjugator(
                va, inf_v, sup_v, max_rounds=ctx.delta_norm + 1
            )
            s = atom_element(ctx, atom) * rho
        else:
            s = atom_element(ctx, atom)
        if not (s.p == 0 and s.canonical_length <= 1) and not (
            s.p == 1 and s.canonical_length == 0
        ):
            raise InternalInvariantError("summit conjugator of an atom not simple")
        if ctx.divide_atom_left(atom, prefix_v) is not None:
            s = iterated_pullback_to_repetition(circuit, s, stats)
        cycle = transport_cycle(circuit, s, stats)
        for m in range(cycle.i1, cycle.i2):
            candidate = cycle.values[m]
            if not _atom_divides(ctx, atom, candidate):
                continue
            blockers = accepted + list(ctx.atoms[t:])
            if not any(_atom_divides(ctx, b, candidate) for b in blockers):
                arrows.append(candidate.as_simple())
                accepted.append(atom)
            break
    return tuple(arrows)


@dataclasses.dataclass(frozen=True)
class SCGraph:
    """The graph of sliding-circuit conjugates with its spanning tree.

    The graph's vertices are sliding circuits; ``vertices`` lists their
    elements circuit by circuit in breadth-first order, and together they
    are the whole invariant set reachable from the root.  Arrows start at
    the first-found element of each circuit and carry simple labels with
    ``vertices[src]^label == vertices[dst]``.  ``parents[i]`` holds the
    spanning-tree edge ``(parent index, label)`` that reached vertex i
    (None at the root): the arrow that reached the first element of a
    circuit, and the preferred prefix of the previous element for the
    others, since cyclic sliding is conjugation by it.  Conjugators from
    the root are reconstructed on demand instead of being stored.
    """

    vertices: tuple[Element, ...]
    arrows: tuple[tuple[int, int, Simple], ...]
    parents: tuple[tuple[int, Simple] | None, ...]
    stats: RunStats
    index: dict[Element, int] = dataclasses.field(repr=False, compare=False)

    @property
    def root(self) -> Element:
        return self.vertices[0]

    def index_of(self, v: Element) -> int | None:
        return self.index.get(v)

    def conjugator_from_root(self, vertex_id: int) -> Element:
        """Product of spanning-tree labels from the root to the vertex."""
        labels: list[Simple] = []
        i = vertex_id
        while self.parents[i] is not None:
            i, label = self.parents[i]
            labels.append(label)
        c = identity_element(self.root.ctx)
        for label in reversed(labels):
            c = c.mul_simple(label)
        return c


@dataclasses.dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Element | None
    stats: RunStats


def _explore(
    root: Element, stats: RunStats, target: Element | None = None
) -> SCGraph:
    """Breadth-first walk of the sliding-circuit graph from a periodic point.

    Each newly reached element brings in its whole circuit, and arrows are
    computed once per circuit, at that element.  The walk stops as soon as
    ``target`` is a vertex; otherwise the whole component is enumerated.
    """
    index: dict[Element, int] = {}
    vertices: list[Element] = []
    parents: list[tuple[int, Simple] | None] = []
    arrows: list[tuple[int, int, Simple]] = []
    frontier: deque[tuple[int, Circuit]] = deque()

    def add_circuit(w: Element, edge: tuple[int, Simple] | None) -> int:
        circuit = circuit_of(w)
        stats.circuit_period = max(stats.circuit_period, circuit.period)
        first = len(vertices)
        for k, v in enumerate(circuit.elements):
            index[v] = first + k
            vertices.append(v)
            parents.append(edge)
            edge = (first + k, preferred_prefix(v))
        frontier.append((first, circuit))
        return first

    add_circuit(root, None)
    while frontier and target not in index:
        vid, circuit = frontier.popleft()
        v = vertices[vid]
        for label in arrows_at(circuit, stats):
            w = v.conjugated_by_simple(label)
            wid = index.get(w)
            if wid is None:
                wid = add_circuit(w, (vid, label))
            arrows.append((vid, wid, label))
            if target in index:
                break
    stats.sc_size = len(vertices)
    return SCGraph(tuple(vertices), tuple(arrows), tuple(parents), stats, index)


def enumerate_sc(x: Element, stats: RunStats | None = None) -> SCGraph:
    """The full graph of sliding-circuit conjugates of x."""
    if stats is None:
        stats = RunStats()
    start_calls = x.ctx.ops.calls
    root, _ = slide_to_circuit(x, stats)
    graph = _explore(root, stats)
    stats.contract_calls += x.ctx.ops.calls - start_calls
    return graph


def solve_conjugacy(x: Element, y: Element) -> ConjugacyResult:
    """Decide conjugacy of x and y; on success return a verified conjugator.

    Explores the sliding-circuit conjugates of x breadth first until the
    slid form of y turns up, so a positive answer stops the search early;
    a negative answer means the whole invariant set was enumerated.
    """
    require_same_context(x.ctx, y.ctx)
    stats = RunStats()
    start_calls = x.ctx.ops.calls
    x_tilde, c1 = slide_to_circuit(x, stats)
    y_tilde, c2 = slide_to_circuit(y, stats)
    graph = _explore(x_tilde, stats, target=y_tilde)
    vid = graph.index_of(y_tilde)
    witness = None
    if vid is not None:
        witness = c1 * graph.conjugator_from_root(vid) * c2.inverse()
    stats.contract_calls += x.ctx.ops.calls - start_calls
    return ConjugacyResult(vid is not None, witness, stats)


# -- brute-force reference solver ------------------------------------------


def _naive_walk(
    x_tilde: Element, target: Element | None = None
) -> dict[Element, Element]:
    """Grow the invariant set from the periodic point x̃ by conjugating every
    vertex by every simple element, keeping the conjugates that iterated
    sliding brings back to themselves.  Maps each vertex to a conjugator
    from x̃; stops as soon as ``target`` is a vertex.  Desk scale only."""
    simples = enumerate_simples(x_tilde.ctx)
    conjugator: dict[Element, Element] = {x_tilde: identity_element(x_tilde.ctx)}
    frontier: deque[Element] = deque([x_tilde])
    while frontier and target not in conjugator:
        v = frontier.popleft()
        cv = conjugator[v]
        for s in simples:
            w = v.conjugated_by_simple(s)
            if w not in conjugator and slide_to_first_repetition(w).entry_index == 0:
                conjugator[w] = cv.mul_simple(s)
                if w == target:
                    break
                frontier.append(w)
    return conjugator


def naive_solve(x: Element, y: Element) -> ConjugacyResult:
    """Reference solver over the brute-force invariant set (desk scale only)."""
    require_same_context(x.ctx, y.ctx)
    stats = RunStats()
    start_calls = x.ctx.ops.calls
    x_tilde, c1 = slide_to_circuit(x, stats)
    y_tilde, c2 = slide_to_circuit(y, stats)
    conjugator = _naive_walk(x_tilde, y_tilde)
    stats.sc_size = len(conjugator)
    stats.contract_calls += x.ctx.ops.calls - start_calls
    c = conjugator.get(y_tilde)
    if c is None:
        return ConjugacyResult(False, None, stats)
    return ConjugacyResult(True, c1 * c * c2.inverse(), stats)


def naive_sc(x: Element) -> set[Element]:
    """The invariant vertex set, enumerated brute force (desk scale only)."""
    return set(_naive_walk(slide_to_circuit(x)[0]))
