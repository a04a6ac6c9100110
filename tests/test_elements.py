"""Normal forms and element arithmetic."""

import itertools

import pytest

import garside as g
from garside.conjugacy import enumerate_simples
from garside.contract import GarsideContext
from garside.elements import (
    delta_power_element,
    identity_element,
    lcm_elements,
    positive_part,
    simple_element,
)
from garside.errors import ContextMismatchError

import reference as ref
from conftest import eval_word, random_element
from reference import gcd_elements, left_divides, rgcd_elements

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S2S1 = (1, 2, 0)


def test_normalize_examples(b3):
    x = g.normalize(b3, [S1, S2, S1, S1])
    assert (x.p, x.factors) == (1, (S1,))
    e = g.normalize(b3, [])
    assert e.is_identity and (e.p, e.sup, e.canonical_length) == (0, 0, 0)


def test_normalize_reads_pair_payloads_of_b2(b2):
    # the B_2 simples are pairs; (0, 1) is the identity, not a signed part
    assert g.normalize(b2, [b2.identity]).is_identity
    assert g.normalize(b2, [b2.delta, (b2.delta, -1)]).is_identity
    x = g.normalize(b2, [(b2.delta, 1), b2.identity, b2.delta])
    assert (x.p, x.factors) == (2, ())


def test_normalize_reads_pairs_under_the_default_check(b2):
    # a context without a check_simple override: the default check strips
    # the value by atom division, so the B_2 identity is not a signed part
    class View(GarsideContext):
        def _divide_atom_left(self, a, s):
            return b2._divide_atom_left(a, s)

        def _divide_atom_right(self, s, a):
            return b2._divide_atom_right(s, a)

    view = View(b2.atoms, b2.identity, b2.delta)
    assert g.normalize(view, [view.identity]).is_identity
    with pytest.raises(ContextMismatchError):
        g.normalize(view, [0])


def test_normalize_keeps_given_normal_form(b5):
    # a two-factor product that is already left weighted must come back as is
    x1 = eval_word(5, [2, 1, 4, 3, 4])
    x2 = eval_word(5, [1])
    y = g.normalize(b5, [x1, x2], delta_power=1)
    assert (y.p, y.factors) == (1, (x1, x2))
    assert (y.inf, y.sup, y.canonical_length) == (1, 3, 2)


def test_invert_examples(b3):
    assert identity_element(b3).inverse() == identity_element(b3)
    x = g.normalize(b3, [S1], delta_power=1)
    xi = x.inverse()
    assert (xi.p, xi.factors) == (-2, (S2S1,))
    assert (x * xi).is_identity


def test_invert_round_trip_b5(b5, rng):
    for _ in range(1000):
        x = random_element(b5, rng, rng.randint(0, 10))
        if x.canonical_length > 5:
            continue
        xi = x.inverse()
        assert xi.inverse() == x
        assert (x * xi).is_identity
        assert xi.p == -x.sup and xi.sup == -x.p
        assert xi.canonical_length == x.canonical_length


def test_multiply_and_group_axioms(b4, rng):
    e = identity_element(b4)
    for _ in range(150):
        x = random_element(b4, rng, rng.randint(0, 8))
        y = random_element(b4, rng, rng.randint(0, 8))
        z = random_element(b4, rng, rng.randint(0, 4))
        assert x * e == x and e * x == x
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == e


def test_conjugation_by_delta_is_tau(b4, rng):
    d = delta_power_element(b4, 1)
    for _ in range(80):
        x = random_element(b4, rng, rng.randint(0, 8))
        assert x.conjugated(d) == x.tau(1)
        assert x.conjugated(d).factors == tuple(
            b4.tau_power(f, 1) for f in x.factors
        )


def test_conjugation_example_b5(b5):
    y = g.normalize(
        b5, [eval_word(5, [2, 1, 4, 3, 4]), eval_word(5, [1])], delta_power=1
    )
    s = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1])])
    expected = g.normalize(
        b5, [eval_word(5, [1, 3]), eval_word(5, [3, 2, 1, 2])], delta_power=1
    )
    assert y.conjugated(s) == expected
    assert (expected.p, expected.factors) == (
        1,
        (eval_word(5, [1, 3]), eval_word(5, [3, 2, 1, 2])),
    )


def test_conjugation_routes_agree(b4, rng):
    for _ in range(100):
        x = random_element(b4, rng, rng.randint(0, 6))
        s = simple_element(b4, enumerate_simples(b4)[rng.randrange(24)])
        assert x.conjugated(s) == s.inverse() * x * s
        if s.canonical_length == 1:
            assert x.conjugated_by_simple(s.factors[0]) == x.conjugated(s)


def test_conjugation_by_multi_factor_elements(b4, b5, rng):
    # the factorwise route against the product formula it replaced
    checked = 0
    for ctx in (b4, b5):
        for k in (-2, -1, 0, 1, 2):
            for _ in range(20):
                x = random_element(ctx, rng, rng.randint(0, 8))
                c = random_element(ctx, rng, 10).mul_delta_power(k)
                if len(c.factors) >= 2:
                    assert x.conjugated(c) == (c.inverse() * x) * c
                    checked += 1
    assert checked >= 150


def test_inf_sup_len(b3):
    assert (identity_element(b3).inf, identity_element(b3).sup) == (0, 0)
    for k in (-3, -1, 0, 2, 5):
        d = delta_power_element(b3, k)
        assert (d.inf, d.sup, d.canonical_length) == (k, k, 0)


def test_initial_final_factors(b3, b5, rng):
    for k in (-2, 0, 3):
        d = delta_power_element(b3, k)
        assert d.initial_factor() == b3.identity
        assert d.final_factor() == b3.delta
    x1 = eval_word(5, [2, 1, 4, 3, 4])
    y = g.normalize(b5, [x1, eval_word(5, [1])], delta_power=1)
    assert y.final_factor() == eval_word(5, [1])
    assert y.initial_factor() == b5.tau_power(x1, -1)
    for _ in range(120):
        x = random_element(b5, rng, rng.randint(0, 8))
        assert x.inverse().initial_factor() == b5.right_complement(x.final_factor())


def test_normal_form_is_left_weighted(b5, rng):
    for _ in range(250):
        x = random_element(b5, rng, rng.randint(0, 10))
        for a, b in zip(x.factors, x.factors[1:]):
            assert ref.is_left_weighted(b5, a, b)
        assert b5.identity not in x.factors
        assert b5.delta not in x.factors


def test_right_normal_form(b5, rng):
    for _ in range(250):
        x = random_element(b5, rng, rng.randint(0, 10))
        rf = x.right_factors
        assert len(rf) == x.canonical_length
        for a, b in zip(rf, rf[1:]):
            assert ref.is_right_weighted(b5, a, b)
        # same element: multiply the right factors then the delta power
        assert g.normalize(b5, rf).mul_delta_power(x.p) == x


def test_element_gcd_examples(b3):
    s1 = simple_element(b3, S1)
    s2 = simple_element(b3, S2)
    assert gcd_elements(s1, s1) == s1
    assert gcd_elements(s1, s2).is_identity
    assert lcm_elements(s1, s2) == delta_power_element(b3, 1)
    assert lcm_elements(s1, identity_element(b3)) == s1


def test_element_gcd_universal_property(b3):
    # all positive elements of canonical length <= 2 as brute-force candidates
    simples = enumerate_simples(b3)
    positives = {identity_element(b3)}
    for s, t in itertools.product(simples, repeat=2):
        positives.add(g.normalize(b3, [s, t]))
    positives = [p for p in positives if p.canonical_length <= 2 and p.p == 0]
    sample = [p for p in positives if p.sup <= 2][:20]
    for a, b in itertools.product(sample, repeat=2):
        d = gcd_elements(a, b)
        assert left_divides(d, a) and left_divides(d, b)
        for c in positives:
            if left_divides(c, a) and left_divides(c, b):
                assert left_divides(c, d)


def _lcm_by_suffix_gcd(a, b):
    """Reference lcm: Δ^m·rgcd(a⁻¹Δ^m, b⁻¹Δ^m)⁻¹ with m = max(sup a, sup b)."""
    m = max(a.sup, b.sup)
    d = rgcd_elements(a.inverse().mul_delta_power(m), b.inverse().mul_delta_power(m))
    return delta_power_element(a.ctx, m) * d.inverse()


def test_element_lcm_is_common_multiple(b4, rng):
    for _ in range(60):
        a = positive_part(random_element(b4, rng, rng.randint(0, 5)))
        b = positive_part(random_element(b4, rng, rng.randint(0, 5)))
        m = lcm_elements(a, b)
        assert left_divides(a, m) and left_divides(b, m)
        d = rgcd_elements(a, b)
        assert ref.right_divides(d, a) and ref.right_divides(d, b)


def test_lcm_matches_suffix_gcd_formula(rng):
    negative = 0
    for n in (3, 4, 5, 6):
        ctx = g.braid_context(n)
        for _ in range(50):
            a = random_element(ctx, rng, rng.randint(0, 6))
            b = random_element(ctx, rng, rng.randint(0, 6))
            negative += min(a.inf, b.inf) < 0
            assert lcm_elements(a, b) == _lcm_by_suffix_gcd(a, b)
    assert negative >= 100


def test_positive_prefix(b4, rng):
    # 1 ∨ x·Δ^-q for inf <= q <= sup: the leftmost sup - q right factors of x
    identity = identity_element(b4)
    for _ in range(1000):
        x = random_element(b4, rng, rng.randint(0, 8))
        q = rng.randint(x.inf, x.sup)
        got = positive_part(x.mul_delta_power(-q))
        assert got == _lcm_by_suffix_gcd(identity, x.mul_delta_power(-q))
        assert got == g.normalize(b4, x.right_factors[:x.sup - q])
    assert positive_part(x.mul_delta_power(-x.sup)).is_identity


def test_positive_part(b4, rng):
    for _ in range(100):
        x = random_element(b4, rng, rng.randint(0, 6))
        p = positive_part(x)
        assert p.is_positive
        assert left_divides(x, p) or x == p
        assert p == _lcm_by_suffix_gcd(identity_element(b4), x)


def _reference_normal_form(ctx, p, parts):
    """Fixpoint renormalizer: full sliding passes until nothing moves."""
    fs = [s for s in parts if s != ctx.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(fs) - 1):
            a, b = ctx.local_sliding(fs[i], fs[i + 1])
            if (a, b) != (fs[i], fs[i + 1]):
                fs[i], fs[i + 1] = a, b
                changed = True
        while fs and fs[-1] == ctx.identity:
            fs.pop()
    while fs and fs[0] == ctx.delta:
        fs.pop(0)
        p += 1
    return p, tuple(fs)


def test_normalize_agrees_with_fixpoint_reference(b4, b5, rng):
    for ctx in (b4, b5):
        pool = [ctx.atom_simple(a) for a in ctx.atoms] + [ctx.delta, ctx.identity]
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(0, 7)):
                if rng.random() < 0.5:
                    parts.append(rng.choice(pool))
                else:
                    table = list(range(ctx.n))
                    rng.shuffle(table)
                    parts.append(tuple(table))
            p0 = rng.randint(-3, 3)
            x = g.normalize(ctx, parts, delta_power=p0)
            assert (x.p, x.factors) == _reference_normal_form(ctx, p0, parts)


def test_normalize_preserves_image_and_writhe_exhaustive(b3):
    # two independent homomorphic invariants over all products of up to
    # three simple elements: the underlying permutation and the letter count
    from garside.braid import _mult
    from conftest import inversions

    simples = enumerate_simples(b3)
    for k in (1, 2, 3):
        for parts in itertools.product(simples, repeat=k):
            x = g.normalize(b3, parts)
            assert x.p >= 0
            image = tuple(range(3))
            for s in parts:
                image = _mult(image, s)
            got = tuple(range(3))
            for _ in range(x.p):
                got = _mult(got, b3.delta)
            for f in x.factors:
                got = _mult(got, f)
            assert got == image
            writhe = sum(inversions(s) for s in parts)
            assert writhe == 3 * x.p + sum(inversions(f) for f in x.factors)


def _rewrite(letters, rng, steps=10):
    w = list(letters)
    for _ in range(steps):
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


def test_normal_form_invariant_under_defining_relations(b4, rng):
    atoms = [a.index for a in b4.atoms]
    for _ in range(300):
        word = [rng.choice(atoms) * rng.choice((1, -1)) for _ in range(10)]
        rewritten = _rewrite(word, rng)
        x = g.element_from_word(b4, g.BraidWord(0, tuple(word)))
        y = g.element_from_word(b4, g.BraidWord(0, tuple(rewritten)))
        assert x == y


def test_powers(b4, rng):
    for _ in range(40):
        x = random_element(b4, rng, rng.randint(0, 5))
        assert ref.power(x, 0) == identity_element(b4)
        assert ref.power(x, 2) == x * x
        assert ref.power(x, -1) == x.inverse()
        assert ref.power(x, -3) == (x * x * x).inverse()


def test_elements_hash_consistently(b4, rng):
    seen = {}
    for _ in range(200):
        x = random_element(b4, rng, rng.randint(0, 6))
        key = (x.p, x.factors)
        if key in seen:
            assert seen[key] == x and hash(seen[key]) == hash(x)
        seen[key] = x
