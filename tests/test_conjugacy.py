"""Circuits, arrows, the graph search solvers and the brute-force reference."""

import itertools
import random

import pytest

import garside as g
import garside.conjugacy
from garside.conjugacy import (
    arrows_at,
    circuit_of,
    enumerate_sc,
    enumerate_simples,
    iterated_pullback_to_repetition,
    naive_solve,
    solve_conjugacy,
    transport_cycle,
)
from garside.contract import counted
from garside.elements import (
    delta_power_element,
    identity_element,
    positive_part,
    simple_element,
)
from garside.errors import InternalInvariantError, OracleSizeError
from garside.sliding import (
    minimal_sss_conjugator,
    slide_to_first_repetition,
)

from conftest import eval_word, random_element
from reference import brute_minimal_simple, is_left_divisor, left_divides, naive_sc

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S1S2 = (2, 0, 1)
S2S1 = (1, 2, 0)


def _b5_example(b5):
    y = g.normalize(
        b5, [eval_word(5, [2, 1, 4, 3, 4]), eval_word(5, [1])], delta_power=1
    )
    s = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1])])
    return y, s


def test_slide_to_circuit_examples(b3, b5):
    # periodic points: the circuit starts at x and the conjugator is trivial
    x = g.normalize(b3, [S1, S1])
    circuit = circuit_of(x)
    assert circuit.base == x and circuit.conjugator.is_identity

    x = simple_element(b3, S1S2)
    circuit = circuit_of(x)
    assert circuit.base == x and circuit.conjugator.is_identity

    y, _ = _b5_example(b5)
    circuit = circuit_of(y)
    assert circuit.base == y and circuit.conjugator.is_identity


def test_slide_to_circuit_conjugator(b4, rng):
    for _ in range(100):
        x = random_element(b4, rng, rng.randint(0, 8))
        circuit = circuit_of(x)
        assert x.conjugated(circuit.conjugator) == circuit.base
        assert slide_to_first_repetition(circuit.base).elements == circuit.elements


def test_circuit_of_from_transient_point(b4, rng):
    transient = 0
    for _ in range(50):
        x = random_element(b4, rng, 6)
        traj = slide_to_first_repetition(x)
        if traj.entry_index == 0:
            continue
        transient += 1
        with counted() as stats:
            circuit = circuit_of(x)
        assert circuit.elements == traj.circuit_elements
        assert x.conjugated(circuit.conjugator) == circuit.elements[0]
        assert not circuit.conjugator.is_identity
        assert (stats.trajectory_entry, stats.circuit_period) == (
            traj.entry_index, traj.period
        )
    assert transient > 0


def test_transport_cycle_trivial(b3):
    x = g.normalize(b3, [S1, S1])
    cycle = transport_cycle(circuit_of(x), identity_element(b3))
    assert set(cycle.circuit_elements) == {identity_element(b3)}
    assert cycle.period == 1


def test_transport_cycle_examples_b5(b5):
    y, s = _b5_example(b5)
    circuit = circuit_of(y)
    p = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [4])])
    cycle = transport_cycle(circuit, p)
    expected = g.normalize(
        b5, [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1]), eval_word(5, [4])]
    )
    assert set(cycle.circuit_elements) == {expected}
    assert cycle.period == 1
    assert (cycle.entry_index, len(cycle.elements)) == (1, 2)
    # the transports of s collapse to the identity
    cycle_s = transport_cycle(circuit, s)
    assert set(cycle_s.circuit_elements) == {identity_element(b5)}


def test_iterated_pullback_examples(b5):
    y, s = _b5_example(b5)
    circuit = circuit_of(y)
    orbit = iterated_pullback_to_repetition(circuit, identity_element(b5))
    assert orbit.circuit_elements[0].is_identity
    orbit = iterated_pullback_to_repetition(circuit, s)
    assert (orbit.entry_index, len(orbit.elements)) == (1, 2)
    assert orbit.elements[1] == g.normalize(b5, [eval_word(5, [3]), eval_word(5, [4])])


def test_transport_cycle_fixed_set_facts(b4, rng):
    # the identity lies in the fixed set only when the fixed set is trivial,
    # and u itself is fixed exactly when conjugation by u stays in the set
    done = 0
    while done < 40:
        x = random_element(b4, rng, rng.randint(1, 6))
        v = slide_to_first_repetition(x).circuit_elements[0]
        circuit = circuit_of(v)
        sc = naive_sc(v)
        u0 = positive_part(random_element(b4, rng, 2))
        u = u0 * minimal_sss_conjugator(v.conjugated(u0), v.inf, v.sup)
        cycle = transport_cycle(circuit, u)
        for w in cycle.elements:  # positive divisors of Δ^sup(u)
            assert w.is_positive and w.sup <= u.sup
        fixed = set(cycle.circuit_elements)
        if identity_element(b4) in fixed:
            assert fixed == {identity_element(b4)}
        assert (u in fixed) == (v.conjugated(u) in sc)
        for w in fixed:
            assert v.conjugated(w) in sc
        done += 1


def test_pullback_value_is_brute_force_minimal_b5(b5):
    # over all 120 simples: the repeated pullback value is the prefix-minimal
    # simple whose whole-circuit transport admits the seed as a prefix while
    # conjugating the base into the super summit set
    from garside.conjugacy import _transport_once_around

    y, s = _b5_example(b5)
    circuit = circuit_of(y)
    simples = enumerate_simples(b5)

    def valid(u):
        w = y.conjugated_by_simple(u)
        if (w.inf, w.sup) != (y.inf, y.sup):
            return False
        t = _transport_once_around(circuit, simple_element(b5, u))
        return left_divides(s, t)

    best = brute_minimal_simple(b5, simples, valid)
    assert best == eval_word(5, [3, 4])
    orbit = iterated_pullback_to_repetition(circuit, s)
    assert orbit.circuit_elements[0] == simple_element(b5, best)


def test_iterated_pullback_monotonic(b4, rng):
    done = 0
    while done < 60:
        x = random_element(b4, rng, rng.randint(1, 6))
        v = slide_to_first_repetition(x).circuit_elements[0]
        circuit = circuit_of(v)
        s = positive_part(random_element(b4, rng, 2))
        t = s * positive_part(random_element(b4, rng, 2))
        rho_s = s * minimal_sss_conjugator(v.conjugated(s), v.inf, v.sup)
        rho_t = t * minimal_sss_conjugator(v.conjugated(t), v.inf, v.sup)
        if not left_divides(rho_s, rho_t):
            continue
        ps = iterated_pullback_to_repetition(circuit, rho_s).circuit_elements[0]
        pt = iterated_pullback_to_repetition(circuit, rho_t).circuit_elements[0]
        assert left_divides(ps, pt)
        for seed in (rho_s, rho_t):  # positive divisors of Δ^sup(seed)
            for w in iterated_pullback_to_repetition(circuit, seed).elements:
                assert w.is_positive and w.sup <= seed.sup
        done += 1


@pytest.mark.parametrize("name, orbit, what", [
    ("transport", transport_cycle, "transport"),
    ("pullback_step", iterated_pullback_to_repetition, "pullback"),
], ids=["transport", "pullback"])
def test_divisor_bound_is_checked(b5, monkeypatch, name, orbit, what):
    # a value times Δ leaves the positive divisors of Δ^sup(seed); it is
    # caught on the first pass around the circuit, not after some rounds
    y, s = _b5_example(b5)
    circuit = circuit_of(y)
    original = getattr(garside.conjugacy, name)
    calls = []

    def times_delta(*args):
        calls.append(args)
        return original(*args).mul_delta_power(1)

    monkeypatch.setattr(garside.conjugacy, name, times_delta)
    with pytest.raises(InternalInvariantError) as info:
        orbit(circuit, s)
    assert str(info.value) == f"{what} is not a positive divisor of Δ^{s.sup}"
    assert 0 < len(calls) <= circuit.period


def _brute_arrows(ctx, v, sc, simples):
    """Arrows at v: prefix-minimal nontrivial simples conjugating v into sc."""
    candidates = [
        s
        for s in simples
        if s != ctx.identity and v.conjugated_by_simple(s) in sc
    ]
    return {
        s
        for s in candidates
        if not any(t != s and is_left_divisor(ctx, t, s) for t in candidates)
    }


def test_arrows_match_brute_force_b3(b3, rng):
    simples = enumerate_simples(b3)
    seen = 0
    for _ in range(25):
        x = random_element(b3, rng, rng.randint(0, 5))
        sc = naive_sc(x)
        for v in sc:
            got = set(arrows_at(circuit_of(v)))
            expected = _brute_arrows(b3, v, sc, simples)
            assert got == expected, (v, got, expected)
            seen += len(got)
    assert seen > 0


def test_arrows_indecomposable_sampled_b4(b4, rng):
    simples = enumerate_simples(b4)
    vetted = 0
    for _ in range(8):
        x = random_element(b4, rng, rng.randint(0, 6))
        graph = enumerate_sc(x)
        sc = set(graph.vertices)
        assert sc == naive_sc(x)
        for src, _, label in graph.arrows:
            v = graph.vertices[src]
            for t in simples:
                if t in (b4.identity, label):
                    continue
                if is_left_divisor(b4, t, label):
                    assert v.conjugated_by_simple(t) not in sc
            vetted += 1
    assert vetted > 0


def test_arrows_at_delta_and_rigid(b3):
    delta = delta_power_element(b3, 1)
    got = set(arrows_at(circuit_of(delta)))
    expected = _brute_arrows(b3, delta, naive_sc(delta), enumerate_simples(b3))
    assert got == expected == {b3.delta}

    x = g.normalize(b3, [S1, S1])
    got = set(arrows_at(circuit_of(x)))
    expected = _brute_arrows(b3, x, naive_sc(x), enumerate_simples(b3))
    assert got == expected


def test_arrow_example_b5(b5):
    y, _ = _b5_example(b5)
    arrows = arrows_at(circuit_of(y))
    expected = eval_word(5, [3, 2, 1, 4])
    with_s3_prefix = [
        a for a in arrows if b5.divide_atom_left(b5.atoms[2], a) is not None
    ]
    assert with_s3_prefix == [expected]


def test_solve_conjugacy_basics(b3, b4, rng):
    s1 = simple_element(b3, S1)
    s2 = simple_element(b3, S2)
    res = solve_conjugacy(s1, s2)
    assert res.conjugate and s1.conjugated(res.witness) == s2
    assert not solve_conjugacy(s1, s1.inverse()).conjugate
    for _ in range(20):
        x = random_element(b4, rng, rng.randint(0, 6))
        res = solve_conjugacy(x, x)
        assert res.conjugate and x.conjugated(res.witness) == x


def test_solver_agrees_with_reference(b4, b5, rng):
    # shorter B5 inputs keep the brute-force reference at desk scale
    for ctx, pairs, length in ((b4, 60, 8), (b5, 20, 4)):
        for _ in range(pairs):
            x = random_element(ctx, rng, rng.randint(0, length))
            if rng.random() < 0.5:
                y = x.conjugated(random_element(ctx, rng, 6))
            else:
                y = random_element(ctx, rng, rng.randint(0, length))
            fast = solve_conjugacy(x, y)
            slow = naive_solve(x, y)
            assert fast.conjugate == slow.conjugate
            if fast.conjugate:
                assert x.conjugated(fast.witness) == y
                assert x.conjugated(slow.witness) == y


def test_solver_exhaustive_positive_words_b3(b3):
    atoms = [a.index for a in b3.atoms]
    elements = {}
    for length in range(5):
        for word in itertools.product(atoms, repeat=length):
            x = g.element_from_word(b3, g.BraidWord(0, word))
            elements[(x.p, x.factors)] = x
    xs = list(elements.values())
    for x, y in itertools.product(xs, repeat=2):
        fast = solve_conjugacy(x, y)
        slow = naive_solve(x, y)
        assert fast.conjugate == slow.conjugate
        if fast.conjugate:
            assert x.conjugated(fast.witness) == y


def test_enumerate_sc_examples(b3):
    graph = enumerate_sc(delta_power_element(b3, 1))
    assert set(graph.vertices) == {delta_power_element(b3, 1)}
    graph = enumerate_sc(simple_element(b3, S1S2))
    assert set(graph.vertices) == {
        simple_element(b3, S1S2),
        simple_element(b3, S2S1),
    }


def test_enumerate_sc_structure(b4, rng):
    for _ in range(12):
        x = random_element(b4, rng, rng.randint(0, 7))
        graph = enumerate_sc(x)
        vertices = set(graph.vertices)
        assert vertices == naive_sc(x)
        # conjugation invariance of the vertex set
        w = random_element(b4, rng, 5)
        assert set(enumerate_sc(x.conjugated(w)).vertices) == vertices
        # tau closure and constant inf/sup across the set
        assert all(v.tau(1) in vertices for v in vertices)
        assert len({(v.inf, v.sup) for v in vertices}) == 1
        # arrows: simple nontrivial labels, endpoints correct, bounded degree
        out_degree = {}
        for src, dst, label in graph.arrows:
            assert label != b4.identity
            assert graph.vertices[src].conjugated_by_simple(label) == graph.vertices[dst]
            out_degree[src] = out_degree.get(src, 0) + 1
        assert all(d <= len(b4.atoms) for d in out_degree.values())
        # spanning tree reaches every vertex with a verifying conjugator
        for i, v in enumerate(graph.vertices):
            assert graph.root.conjugated(graph.conjugator_from_root(i)) == v
            assert graph.index.get(v) == i
        assert graph.index.get(delta_power_element(b4, 99)) is None
        assert graph.stats.sc_size == len(vertices)


def _count_arrows_at(monkeypatch):
    """Record the circuit passed to each arrows_at call of the solvers."""
    calls = []

    def counting(circuit):
        calls.append(frozenset(circuit.elements))
        return arrows_at(circuit)

    monkeypatch.setattr(garside.conjugacy, "arrows_at", counting)
    return calls


def test_arrows_computed_once_per_circuit(b4, rng, monkeypatch):
    calls = _count_arrows_at(monkeypatch)
    longest = 0
    for _ in range(20):
        x = random_element(b4, rng, rng.randint(2, 8))
        graph = enumerate_sc(x)
        circuits = {frozenset(circuit_of(v).elements) for v in graph.vertices}
        assert sorted(calls, key=hash) == sorted(circuits, key=hash)
        longest = max(longest, graph.stats.circuit_period)
        calls.clear()

        res = solve_conjugacy(x, x.conjugated(random_element(b4, rng, 6)))
        assert res.conjugate
        assert len(calls) == len(set(calls))
        calls.clear()
    assert longest > 1


def test_solve_within_one_circuit_needs_no_arrows(b5, monkeypatch):
    # spanning-tree edges inside a circuit are preferred prefixes
    calls = _count_arrows_at(monkeypatch)
    y, _ = _b5_example(b5)
    circuit = circuit_of(y).elements
    assert len(circuit) == 6
    for target in circuit:
        res = solve_conjugacy(circuit[0], target)
        assert res.conjugate and circuit[0].conjugated(res.witness) == target
    assert calls == []


def test_naive_solve_refuses_oversized(b3):
    big = g.braid_context(7)
    x = delta_power_element(big, 1)
    with pytest.raises(OracleSizeError):
        naive_solve(x, x)


def test_stats_count_the_whole_call(b4):
    # the window closes after the witness is built, for every entry point
    x = g.element_from_word(b4, g.parse_word("1 2 3"))
    y = x.conjugated(g.element_from_word(b4, g.parse_word("2 -1 3 3")))
    for call in (lambda: solve_conjugacy(x, y), lambda: naive_solve(x, y),
                 lambda: enumerate_sc(x)):
        with counted() as window:
            stats = call().stats
        assert stats.contract_calls == window.contract_calls


def test_stats_are_populated(b4, rng):
    x = random_element(b4, rng, 6)
    y = x.conjugated(random_element(b4, rng, 4))
    res = solve_conjugacy(x, y)
    stats = res.stats
    assert stats.sc_size >= 1
    assert stats.contract_calls > 0
    assert stats.circuit_period >= 1
    assert stats.trajectory_entry >= 0
    assert stats.as_dict()["N"] == stats.circuit_period


def _word(ctx, letters):
    return g.element_from_word(ctx, g.BraidWord(0, tuple(letters)))


def _letters(ctx, rng, length):
    return [rng.choice(range(1, ctx.n)) * rng.choice((1, -1)) for _ in range(length)]


def _nonconj_draw(ctx, rng, ell):
    """A pair drawn like the ``nonconj`` benchmark items: x has 3ℓ letters
    and canonical length ℓ; y negates one letter of x, inserts s_j^{±2}
    (same exponent sum and permutation) and is conjugated by 8 letters."""
    while True:
        x = _letters(ctx, rng, 3 * ell)
        if _word(ctx, x).canonical_length == ell:
            break
    z = list(x)
    k = rng.randrange(len(z))
    e = 1 if z[k] > 0 else -1
    z[k] = -z[k]
    j = rng.randrange(1, ctx.n)
    at = rng.randrange(len(z) + 1)
    z[at:at] = [j * e, j * e]
    w = _letters(ctx, rng, 8)
    return _word(ctx, x), _word(ctx, [-a for a in reversed(w)] + z + w)


def test_walks_run_out_on_summit_equal_pairs(b4):
    # pairs the summit test passes on but that are not conjugate: the
    # answer comes from a walk that ran out, and must match the reference
    rng = random.Random(11)
    exhausted = 0
    for _ in range(1000):
        x, y = _nonconj_draw(b4, rng, rng.choice((3, 4)))
        cx, cy = circuit_of(x), circuit_of(y)
        if (cx.base.inf, cx.base.sup) != (cy.base.inf, cy.base.sup):
            continue
        res = solve_conjugacy(x, y)
        if res.conjugate:
            assert x.conjugated(res.witness) == y
            continue
        assert not naive_solve(x, y).conjugate
        assert res.stats.sc_size > 0
        exhausted += 1
        if exhausted == 40:
            break
    assert exhausted == 40


def test_summit_test_rejects_without_graph_work(b4, monkeypatch):
    # slid forms that differ in (inf, sup) are answered with no arrows
    x = _word(b4, [1, 2, 3])
    y = _word(b4, [1, 2, -3])
    windows = []
    for z in (x, y):
        with counted() as window:
            circuit_of(z)
        windows.append(window.contract_calls)

    def no_arrows(circuit):
        raise AssertionError("arrows_at called")

    monkeypatch.setattr(garside.conjugacy, "arrows_at", no_arrows)
    res = solve_conjugacy(x, y)
    assert (res.conjugate, res.witness) == (False, None)
    assert res.stats.sc_size == 0
    assert res.stats.contract_calls == sum(windows)


#: ROADMAP heavy-tail instances (n, words of x and y), regenerated from
#: (n, l, seed) = (10, 12, 3) and (16, 6, 5) as ``bench/workloads.py``
#: does.  A walk from x alone spends 1.2M and 2.9M contract calls on them.
HEAVY_TAIL = [
    pytest.param(
        10,
        "-3 -3 -3 1 -2 -6 -5 6 -9 3 5 -1 1 3 -2 8 -6 -3 -5 1 6 -3 2 1 -9 4 -5 1 "
        "-5 -5 -5 6 -9 -8 9 6",
        "4 9 -5 2 -2 1 6 -3 -3 -3 -3 1 -2 -6 -5 6 -9 3 5 -1 1 3 -2 8 -6 -3 -5 1 "
        "6 -3 2 1 -9 4 -5 1 -5 -5 -5 6 -9 -8 9 6 3 -6 -1 2 -2 5 -9 -4",
        id="b10-l12-seed3",
    ),
    pytest.param(
        16,
        "4 3 -5 4 3 -15 5 -6 3 5 -6 14 -10 -2 -6 -8 -3 8",
        "-12 -8 -10 6 1 14 1 1 4 3 -5 4 3 -15 5 -6 3 5 -6 14 -10 -2 -6 -8 -3 8 "
        "-1 -1 -14 -1 -6 10 8 12",
        id="b16-l6-seed5",
    ),
]


@pytest.mark.parametrize("n, x_word, y_word", HEAVY_TAIL)
def test_heavy_tail_meets_in_the_middle(n, x_word, y_word):
    ctx = g.braid_context(n)
    x = g.element_from_word(ctx, g.parse_word(x_word))
    y = g.element_from_word(ctx, g.parse_word(y_word))
    res = solve_conjugacy(x, y)
    assert res.conjugate and x.conjugated(res.witness) == y
    assert res.stats.contract_calls <= 100_000
