"""Conjugacy decision and search via sliding circuits.

The solver follows the staged plan: reach a sliding circuit from each
input by iterated cyclic sliding while keeping a short conjugator; answer
"not conjugate" at once if the two circuits differ in (inf, sup), which
are constant on the super summit set that holds every sliding circuit;
otherwise walk the graph whose vertices are sliding circuits breadth first
from both circuits, computing the outgoing indecomposable conjugators once
per circuit (at its first-found element) by combining a minimal summit
conjugator with iterated pullbacks and transports along the circuit; stop
when the two walks meet or either one has reached its whole component.
The other elements of a circuit are reached by cyclic sliding itself.
Iterated transports and pullbacks end in a repetition because both maps
send a positive divisor of Δ^k to another one (transport preserves the
prefix order and fixes Δ^k, and the pullback of s is minimal among the
elements whose transport s divides, Δ^k among them), so their orbits stay
in a finite set; every value is checked against that bound.  A
brute-force solver that conjugates by every simple element is kept as a
desk-scale reference oracle.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Container, Iterable

from .contract import (
    GarsideContext,
    RunStats,
    Simple,
    counted,
    current_run,
    require_same_context,
)
from .elements import Element, atom_element, identity_element
from .errors import InternalInvariantError, OracleSizeError
from .sliding import (
    Trajectory,
    _first_repetition,
    minimal_sss_conjugator,
    preferred_prefix,
    pullback_step,
    slide_to_first_repetition,
    transport,
)


@dataclasses.dataclass(frozen=True)
class Circuit:
    """A sliding circuit (the orbit of a periodic point of cyclic sliding) and
    the ``conjugator`` taking the element that was slid to ``elements[0]``."""

    elements: tuple[Element, ...]
    conjugator: Element

    @property
    def base(self) -> Element:
        return self.elements[0]

    @property
    def period(self) -> int:
        return len(self.elements)


def circuit_of(x: Element) -> Circuit:
    """Slide x to its sliding circuit; the conjugator is the product of the
    preferred prefixes along the pre-periodic part of the trajectory only.
    The trajectory's entry index and period are recorded in the current run.

    An uncached copy of x is slid, so that what earlier calls cached on x
    cannot lower the ``contract_calls`` of this one."""
    traj = slide_to_first_repetition(Element(x.ctx, x.p, x.factors))
    stats = current_run()
    stats.trajectory_entry = max(stats.trajectory_entry, traj.entry_index)
    stats.circuit_period = max(stats.circuit_period, traj.period)
    c = identity_element(x.ctx)
    for v in traj.elements[:traj.entry_index]:
        c = c.mul_simple(preferred_prefix(v))
    return Circuit(traj.circuit_elements, c)


def _divisor_of_delta_power(value: Element, k: int, what: str) -> Element:
    """Return value after checking that 1 ≼ value ≼ Δ^k, i.e. that it is
    positive with sup at most k."""
    if not value.is_positive or value.sup > k:
        raise InternalInvariantError(f"{what} is not a positive divisor of Δ^{k}")
    return value


def _transport_once_around(circuit: Circuit, u: Element) -> Element:
    k = u.sup
    for v in circuit.elements:
        u = _divisor_of_delta_power(transport(v, u), k, "transport")
    return u


def transport_cycle(circuit: Circuit, u: Element) -> Trajectory:
    """Transport u around the circuit until a value repeats.

    The cycle of the result holds the transports that are fixed by some
    transport power, i.e. the conjugators landing back in a sliding circuit.
    The number of transports applied is recorded in the current run.
    """
    cycle = _first_repetition(lambda cur: _transport_once_around(circuit, cur), u)
    stats = current_run()
    stats.r_max = max(stats.r_max, len(cycle.elements))
    return cycle


def _pullback_once_around(circuit: Circuit, s: Element) -> Element:
    n = circuit.period
    elems = circuit.elements
    k = s.sup
    for m in range(n):
        anchor = elems[(n - m) % n]
        source = elems[(n - m - 1) % n]
        s = _divisor_of_delta_power(pullback_step(source, anchor, s), k, "pullback")
    return s


def iterated_pullback_to_repetition(circuit: Circuit, s: Element) -> Trajectory:
    """Pull s back around the circuit until a value repeats.

    The first element of the result's cycle is the first repeated value."""
    return _first_repetition(lambda cur: _pullback_once_around(circuit, cur), s)


def _atom_divides(ctx: GarsideContext, a, x: Element) -> bool:
    """Does the atom a left-divide the positive element x?"""
    if x.p >= 1:
        return True
    if not x.factors:
        return False
    return ctx.divide_atom_left(a, x.factors[0]) is not None


def arrows_at(circuit: Circuit) -> tuple[Simple, ...]:
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
        _divisor_of_delta_power(s, 1, "summit conjugator of an atom")
        if ctx.divide_atom_left(atom, prefix_v) is not None:
            s = iterated_pullback_to_repetition(circuit, s).circuit_elements[0]
        for candidate in transport_cycle(circuit, s).circuit_elements:
            if not _atom_divides(ctx, atom, candidate):
                continue
            blockers = accepted + list(ctx.atoms[t:])
            if not any(_atom_divides(ctx, b, candidate) for b in blockers):
                arrows.append(candidate.as_simple())
                accepted.append(atom)
            break
    return tuple(arrows)


class SCGraph:
    """The graph of sliding-circuit conjugates with its spanning tree, walked
    breadth first from a root circuit and advanced one circuit at a time.

    The graph's vertices are sliding circuits; ``vertices`` lists their
    elements circuit by circuit in breadth-first order, and ``index`` maps
    each to its position.  Each newly reached element brings in its whole
    circuit, and arrows are computed once per circuit, at that element,
    when :meth:`expand` takes the circuit off the ``frontier``; once the
    frontier is empty, the vertices are the whole invariant set of the
    root.  Arrows carry simple labels with
    ``vertices[src]^label == vertices[dst]``.  ``parents[i]`` holds the
    spanning-tree edge ``(parent index, label)`` that reached vertex i
    (None at the root): the arrow that reached the first element of a
    circuit, and the preferred prefix of the previous element for the
    others, since cyclic sliding is conjugation by it.  Conjugators from
    the root are reconstructed on demand instead of being stored.
    """

    def __init__(self, root: Circuit, stats: RunStats):
        self.stats = stats
        self.vertices: list[Element] = []
        self.arrows: list[tuple[int, int, Simple]] = []
        self.parents: list[tuple[int, Simple] | None] = []
        self.index: dict[Element, int] = {}
        self.frontier: deque[tuple[int, Circuit]] = deque()
        self._add(root, None)

    @property
    def root(self) -> Element:
        return self.vertices[0]

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

    def _add(self, circuit: Circuit, edge: tuple[int, Simple] | None) -> int:
        first = len(self.vertices)
        for k, v in enumerate(circuit.elements):
            self.index[v] = first + k
            self.vertices.append(v)
            self.parents.append(edge)
            edge = (first + k, preferred_prefix(v))
        self.frontier.append((first, circuit))
        return first

    def expand(self, other: Container[Element] = frozenset()) -> Element | None:
        """Compute the arrows of the oldest circuit on the frontier and add
        the circuits they reach.  Stops at the first added element that
        ``other`` holds, and returns it; returns None if there is none."""
        vid, circuit = self.frontier.popleft()
        v = self.vertices[vid]
        for label in arrows_at(circuit):
            w = v.conjugated_by_simple(label)
            wid = self.index.get(w)
            if wid is not None:
                self.arrows.append((vid, wid, label))
                continue
            reached = circuit_of(w)
            if not reached.conjugator.is_identity:
                raise InternalInvariantError("an arrow left the sliding circuits")
            self.arrows.append((vid, self._add(reached, (vid, label)), label))
            shared = _first_shared(reached.elements, other)
            if shared is not None:
                return shared
        return None


@dataclasses.dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Element | None
    stats: RunStats


def _first_shared(
    elements: Iterable[Element], other: Container[Element]
) -> Element | None:
    return next((v for v in elements if v in other), None)


def _meeting(wx: SCGraph, wy: SCGraph) -> Element | None:
    """Advance the two walks until one reaches an element the other holds,
    expanding the side with the smaller frontier at each step; return that
    element, or None once either walk has run out."""
    v = _first_shared(wy.vertices, wx.index)
    while v is None and wx.frontier and wy.frontier:
        walk, other = (wx, wy) if len(wx.frontier) <= len(wy.frontier) else (wy, wx)
        v = walk.expand(other.index)
    return v


def enumerate_sc(x: Element) -> SCGraph:
    """The full graph of sliding-circuit conjugates of x."""
    with counted() as stats:
        graph = SCGraph(circuit_of(x), stats)
        while graph.frontier:
            graph.expand()
        stats.sc_size = len(graph.vertices)
        return graph


def solve_conjugacy(x: Element, y: Element) -> ConjugacyResult:
    """Decide conjugacy of x and y; on success return a verified conjugator.

    Both inputs are slid to their sliding circuits, whose elements are
    super summit.  If the slid forms x̃ and ỹ differ in (inf, sup), the
    inputs are not conjugate and no graph is walked.  Otherwise one walk
    starts from x̃ and one from ỹ, and the one with the smaller frontier
    is advanced by a circuit at a time until they share an element v.
    Then x̃^a = v = ỹ^b, with a and b read off the two spanning trees.  A
    walk that runs out has reached the whole invariant set of its input
    without meeting the other side, so the inputs are not conjugate.
    """
    require_same_context(x.ctx, y.ctx)
    with counted() as stats:
        cx, cy = circuit_of(x), circuit_of(y)
        witness = None
        if (cx.base.p, cx.base.sup) == (cy.base.p, cy.base.sup):
            wx, wy = SCGraph(cx, stats), SCGraph(cy, stats)
            v = _meeting(wx, wy)
            stats.sc_size = len(wx.vertices) + len(wy.vertices)
            if v is not None:
                a = wx.conjugator_from_root(wx.index[v])
                b = wy.conjugator_from_root(wy.index[v])
                witness = cx.conjugator * a * b.inverse() * cy.conjugator.inverse()
    return ConjugacyResult(witness is not None, witness, stats)


# -- brute-force reference solver ------------------------------------------

ENUMERATION_LIMIT = 720  # 6! simples; braids beyond six strands are refused


def enumerate_simples(ctx: GarsideContext) -> list[Simple]:
    """All simple elements, as the closure of {1} under right atom products."""
    seen = {ctx.identity}
    order = [ctx.identity]
    frontier = [ctx.identity]
    while frontier:
        nxt = []
        for s in frontier:
            for a in ctx.atoms:
                t = ctx.mult_atom_right(s, a)
                if t is not None and t not in seen:
                    if len(order) >= ENUMERATION_LIMIT:
                        raise OracleSizeError(
                            f"context has more than {ENUMERATION_LIMIT} simple elements"
                        )
                    seen.add(t)
                    order.append(t)
                    nxt.append(t)
        frontier = nxt
    return order


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
    with counted() as stats:
        cx, cy = circuit_of(x), circuit_of(y)
        conjugator = _naive_walk(cx.base, cy.base)
        stats.sc_size = len(conjugator)
        c = conjugator.get(cy.base)
        witness = None
        if c is not None:
            witness = cx.conjugator * c * cy.conjugator.inverse()
    return ConjugacyResult(c is not None, witness, stats)
