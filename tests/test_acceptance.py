"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings on the terminal.
"""

import itertools
import random
import statistics
import time

import garside as g
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
from garside.sliding import (
    cyclic_sliding,
    minimal_sss_conjugator,
    preferred_prefix,
    preferred_suffix,
    slide_to_first_repetition,
    transport,
)
from garside.elements import positive_part, simple_element

import reference as ref
from conftest import eval_word, random_element
from reference import (
    brute_gcd_simple,
    brute_lcm_simple,
    is_left_divisor,
    is_right_divisor,
    naive_sc,
)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def verdict(self, name, ok=True):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"{status} {name} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        assert ok, name
        assert elapsed < self.budget, f"{name} exceeded {self.budget}s"


def test_criterion_1_worked_example_regression():
    watch = Stopwatch(1.0)
    b5 = g.braid_context(5)
    y = g.normalize(
        b5, [eval_word(5, [2, 1, 4, 3, 4]), eval_word(5, [1])], delta_power=1
    )
    s = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1])])

    # (a) conjugation lands on the stated two-factor normal form
    expected = g.normalize(
        b5, [eval_word(5, [1, 3]), eval_word(5, [3, 2, 1, 2])], delta_power=1
    )
    assert y.conjugated(s) == expected
    assert expected.factors == (eval_word(5, [1, 3]), eval_word(5, [3, 2, 1, 2]))

    # (b) sliding returns to y after exactly six steps
    cur = y
    for _ in range(5):
        cur = cyclic_sliding(cur)
        assert cur != y
    assert cyclic_sliding(cur) == y

    # (c) the transport of s at y is trivial
    assert transport(y, s).is_identity

    # (d) iterated six-fold pullbacks of s stabilize at the stated value
    circuit = circuit_of(y)
    orbit = iterated_pullback_to_repetition(circuit, s)
    assert (orbit.entry_index, len(orbit.elements)) == (1, 2)
    p = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [4])])
    assert orbit.elements[1] == p

    # (e) six-fold transports of that value stabilize with a one-element cycle
    cycle = transport_cycle(circuit, p)
    c_s = g.normalize(
        b5,
        [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1]), eval_word(5, [4])],
    )
    assert set(cycle.circuit_elements) == {c_s}

    # (f) the arrow at y divisible by the third atom is that same conjugator
    arrows = arrows_at(circuit)
    with_prefix = [
        a for a in arrows if b5.divide_atom_left(b5.atoms[2], a) is not None
    ]
    assert with_prefix == [c_s.as_simple()]
    watch.verdict("criterion 1: worked-example regression (B5)")


def test_criterion_2_oracle_equivalence():
    watch = Stopwatch(60.0)
    b4 = g.braid_context(4)
    rng = random.Random(42)
    pairs = 0
    while pairs < 200:
        x = random_element(b4, rng, rng.randint(0, 8))
        if x.canonical_length > 4:
            continue
        if rng.random() < 0.5:
            while True:
                y = x.conjugated(random_element(b4, rng, rng.randint(0, 8)))
                if y.canonical_length <= 4:
                    break
        else:
            y = random_element(b4, rng, rng.randint(0, 8))
            if y.canonical_length > 4:
                continue
        fast = solve_conjugacy(x, y)
        slow = naive_solve(x, y)
        assert fast.conjugate == slow.conjugate
        if fast.conjugate:
            assert x.conjugated(fast.witness) == y
            assert x.conjugated(slow.witness) == y
        pairs += 1
    watch.verdict(f"criterion 2: oracle equivalence on {pairs} B4 pairs")


def test_criterion_3_normal_form_suite():
    watch = Stopwatch(30.0)
    b5 = g.braid_context(5)
    rng = random.Random(43)
    atoms = [a.index for a in b5.atoms]

    def rewrite(word):
        w = list(word)
        for _ in range(10):
            moves = []
            for i in range(len(w) - 1):
                if abs(abs(w[i]) - abs(w[i + 1])) >= 2:
                    moves.append(("swap", i))
            for i in range(len(w) - 2):
                a, b, c = w[i], w[i + 1], w[i + 2]
                if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                    moves.append(("slide3", i))
            if not moves:
                break
            kind, i = rng.choice(moves)
            if kind == "swap":
                w[i], w[i + 1] = w[i + 1], w[i]
            else:
                w[i], w[i + 1], w[i + 2] = w[i + 1], w[i], w[i + 1]
        return w

    for _ in range(1000):
        word = [rng.choice(atoms) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
        x = g.element_from_word(b5, g.BraidWord(0, tuple(word)))
        for a, b in zip(x.factors, x.factors[1:]):
            assert ref.is_left_weighted(b5, a, b)
        xi = x.inverse()
        assert xi.inf == -x.sup and xi.sup == -x.inf
        y = g.element_from_word(b5, g.BraidWord(0, tuple(rewrite(word))))
        assert y == x
    watch.verdict("criterion 3: normal-form suite on 1000 B5 words")


def test_criterion_4_lattice_suite():
    watch = Stopwatch(30.0)
    checked = 0
    for n in (3, 4):
        ctx = g.braid_context(n)
        simples = enumerate_simples(ctx)
        for s, t in itertools.product(simples, repeat=2):
            assert ctx.gcd_simple(s, t) == brute_gcd_simple(ctx, simples, s, t, "left")
            assert ctx.rgcd_simple(s, t) == brute_gcd_simple(ctx, simples, s, t, "right")
            assert ref.lcm_simple(ctx, s, t) == brute_lcm_simple(ctx, simples, s, t, "left")
            assert ref.rlcm_simple(ctx, s, t) == brute_lcm_simple(ctx, simples, s, t, "right")
            checked += 1
    b4 = g.braid_context(4)
    simples4 = enumerate_simples(b4)
    for s, t in itertools.product(simples4, repeat=2):
        assert ref.equal_simple(b4, s, t) == (s == t)
    watch.verdict(f"criterion 4: lattice suite, {checked} exhaustive pairs")


def test_criterion_5_sliding_transport_properties():
    watch = Stopwatch(60.0)
    rng = random.Random(44)
    for n in (4, 5):
        ctx = g.braid_context(n)
        for _ in range(120):
            x = random_element(ctx, rng, rng.randint(0, 8))
            sx = cyclic_sliding(x)
            assert sx.inf >= x.inf and sx.sup <= x.sup
            assert cyclic_sliding(x.tau(1)) == cyclic_sliding(x).tau(1)
            alpha = random_element(ctx, rng, rng.randint(0, 5))
            t = transport(x, alpha)
            lhs = simple_element(ctx, preferred_prefix(x)) * t
            rhs = alpha * simple_element(ctx, preferred_prefix(x.conjugated(alpha)))
            assert lhs == rhs
        for _ in range(60):
            z = slide_to_first_repetition(
                random_element(ctx, rng, rng.randint(1, 7))
            ).circuit_elements[0]
            seed = positive_part(random_element(ctx, rng, rng.randint(0, 4)))
            alpha = seed * minimal_sss_conjugator(z.conjugated(seed), z.inf, z.sup)
            assert transport(z, alpha).is_positive
            assert is_right_divisor(
                ctx, preferred_prefix(z), preferred_suffix(cyclic_sliding(z))
            )
    watch.verdict("criterion 5: sliding and transport properties (B4, B5)")


def test_criterion_6_sc_invariance_and_structure():
    watch = Stopwatch(120.0)
    b4 = g.braid_context(4)
    rng = random.Random(45)
    for _ in range(50):
        x = random_element(b4, rng, rng.randint(0, 7))
        w = random_element(b4, rng, rng.randint(0, 6))
        vertices = set(enumerate_sc(x).vertices)
        assert vertices == set(enumerate_sc(x.conjugated(w)).vertices)
        assert all(v.tau(1) in vertices for v in vertices)

    b3 = g.braid_context(3)
    simples3 = enumerate_simples(b3)
    arrows_checked = 0
    for _ in range(15):
        x = random_element(b3, rng, rng.randint(0, 5))
        graph = enumerate_sc(x)
        sc = set(graph.vertices)
        assert sc == naive_sc(x)
        for src, _, label in graph.arrows:
            v = graph.vertices[src]
            for t in simples3:
                if t in (b3.identity, label):
                    continue
                if is_left_divisor(b3, t, label):
                    assert v.conjugated_by_simple(t) not in sc
            arrows_checked += 1
    watch.verdict(
        f"criterion 6: SC invariance (50 B4 classes), {arrows_checked} arrows vetted"
    )


def test_criterion_7_desk_scale_performance():
    watch = Stopwatch(120.0)
    b7 = g.braid_context(7)
    seeds = [101, 102, 103, 104, 105]
    calls_by_length = {}
    for ell in (2, 4, 8):
        calls = []
        for seed in seeds:
            rng = random.Random(seed)
            while True:
                x = random_element(b7, rng, 3 * ell)
                if x.canonical_length == ell:
                    break
            y = x.conjugated(random_element(b7, rng, 8))
            t0 = time.perf_counter()
            res = solve_conjugacy(x, y)
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"solve took {elapsed:.1f}s at length {ell}"
            assert res.conjugate and x.conjugated(res.witness) == y
            calls.append(res.stats.contract_calls)
        calls_by_length[ell] = statistics.geometric_mean(calls)
    # sub-quadratic trend in the canonical length, within a factor of four:
    # quadratic growth from length 2 to 8 would be a 16x increase
    ratio = calls_by_length[8] / calls_by_length[2]
    assert ratio < 4 * (8 / 2) ** 2, f"contract-call ratio {ratio:.1f} not sub-quadratic"
    watch.verdict(
        "criterion 7: B7 performance, call ratio "
        f"{ratio:.2f} across lengths 2/4/8"
    )
