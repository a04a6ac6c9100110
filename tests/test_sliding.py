"""Preferred prefixes, cyclic sliding, transport, pullback, summit conjugators."""

from collections import deque

import pytest

import garside as g
from garside.conjugacy import enumerate_simples
from garside.elements import (
    delta_power_element,
    identity_element,
    positive_part,
    simple_element,
)
from garside.errors import GarsideError, InternalInvariantError
from garside.sliding import (
    cyclic_sliding,
    minimal_sss_conjugator,
    preferred_prefix,
    preferred_suffix,
    pullback_step,
    slide_to_first_repetition,
    transport,
)

from conftest import eval_word, random_element
from reference import (
    brute_minimal_simple,
    checked_pullback_step,
    is_rigid,
    gcd_elements,
    is_right_divisor,
    left_divides,
    rgcd_elements,
)

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S1S2 = (2, 0, 1)
S2S1 = (1, 2, 0)


def _sss_representative(x):
    return slide_to_first_repetition(x).circuit_elements[0]


def _b5_example(b5):
    y = g.normalize(
        b5, [eval_word(5, [2, 1, 4, 3, 4]), eval_word(5, [1])], delta_power=1
    )
    s = g.normalize(b5, [eval_word(5, [3]), eval_word(5, [2]), eval_word(5, [1])])
    return y, s


def test_preferred_prefix_examples(b3):
    for k in (-2, 0, 1):
        assert preferred_prefix(delta_power_element(b3, k)) == b3.identity
    assert preferred_prefix(simple_element(b3, S1S2)) == S1
    x = g.normalize(b3, [S1, S1])
    assert preferred_prefix(x) == b3.identity
    assert is_rigid(x)


def test_preferred_prefix_matches_definition(b4, rng):
    # p(x) = (x Δ^{-inf}) ∧ (x⁻¹ Δ^{sup}) ∧ Δ, computed with element gcds
    one_delta = delta_power_element(b4, 1)
    for _ in range(150):
        x = random_element(b4, rng, rng.randint(0, 8))
        lhs = simple_element(b4, preferred_prefix(x))
        rhs = gcd_elements(
            gcd_elements(
                x.mul_delta_power(-x.inf), x.inverse().mul_delta_power(x.sup)
            ),
            one_delta,
        )
        assert lhs == rhs


def test_preferred_suffix_matches_definition(b4, rng):
    one_delta = delta_power_element(b4, 1)
    for _ in range(150):
        x = random_element(b4, rng, rng.randint(0, 8))
        lhs = simple_element(b4, preferred_suffix(x))
        rhs = rgcd_elements(
            rgcd_elements(
                x.mul_delta_power(-x.inf).tau(x.inf),
                delta_power_element(b4, x.sup) * x.inverse(),
            ),
            one_delta,
        )
        assert lhs == rhs


def test_cyclic_sliding_examples(b3):
    for k in (-1, 0, 2):
        d = delta_power_element(b3, k)
        assert cyclic_sliding(d) == d
    x = simple_element(b3, S1S2)
    y = simple_element(b3, S2S1)
    assert cyclic_sliding(x) == y
    assert cyclic_sliding(y) == x


def test_cyclic_sliding_period_six_b5(b5):
    y, _ = _b5_example(b5)
    cur = y
    for m in range(1, 6):
        cur = cyclic_sliding(cur)
        assert cur != y
    assert cyclic_sliding(cur) == y


def test_sliding_monotonicity(b4, b5, rng):
    for ctx in (b4, b5):
        for _ in range(150):
            x = random_element(ctx, rng, rng.randint(0, 8))
            sx = cyclic_sliding(x)
            assert sx.inf >= x.inf and sx.sup <= x.sup


def test_sliding_commutes_with_tau(b4, rng):
    for _ in range(150):
        x = random_element(b4, rng, rng.randint(0, 8))
        assert cyclic_sliding(x.tau(1)) == cyclic_sliding(x).tau(1)


def test_sliding_reaches_summit_length(b3, b4, rng):
    # small instances: breadth-first closure over simple conjugations that
    # never increase canonical length finds the summit length independently
    for ctx in (b3, b4):
        simples = [s for s in enumerate_simples(ctx) if s != ctx.identity]
        for _ in range(15):
            x = random_element(ctx, rng, rng.randint(1, 4))
            seen = {x}
            queue = deque([x])
            best = x.canonical_length
            while queue:
                v = queue.popleft()
                for s in simples:
                    w = v.conjugated_by_simple(s)
                    if w.canonical_length <= x.canonical_length and w not in seen:
                        seen.add(w)
                        best = min(best, w.canonical_length)
                        queue.append(w)
            terminal = _sss_representative(x)
            assert terminal.canonical_length == best


def test_transport_of_own_prefix(b4, rng):
    for _ in range(100):
        x = random_element(b4, rng, rng.randint(0, 8))
        lhs = transport(x, simple_element(b4, preferred_prefix(x)))
        rhs = simple_element(b4, preferred_prefix(cyclic_sliding(x)))
        assert lhs == rhs


def test_transport_diagram_identity(b4, rng):
    for _ in range(150):
        x = random_element(b4, rng, rng.randint(0, 8))
        alpha = random_element(b4, rng, rng.randint(0, 5))
        t = transport(x, alpha)
        lhs = simple_element(b4, preferred_prefix(x)) * t
        rhs = alpha * simple_element(b4, preferred_prefix(x.conjugated(alpha)))
        assert lhs == rhs


def test_transport_examples_b5(b5):
    y, s = _b5_example(b5)
    assert transport(y, s).is_identity


def _positive_sss_conjugator(z, rng, ctx):
    """A positive alpha with z^alpha super summit (z itself super summit)."""
    seed = positive_part(random_element(ctx, rng, rng.randint(0, 4)))
    rho = minimal_sss_conjugator(z.conjugated(seed), z.inf, z.sup)
    return seed * rho


def test_transport_structure_on_sss(b4, rng):
    delta = delta_power_element(b4, 1)
    for _ in range(80):
        z = _sss_representative(random_element(b4, rng, rng.randint(1, 7)))
        alpha = _positive_sss_conjugator(z, rng, b4)
        t = transport(z, alpha)
        assert t.is_positive
        # powers of delta transport to themselves
        for k in (-1, 0, 1, 2):
            assert transport(z, delta_power_element(b4, k)) == delta_power_element(b4, k)
        # simple conjugators transport to simples
        if alpha.sup <= 1 and alpha.is_positive:
            assert t.sup <= 1 and t.is_positive


def test_transport_respects_gcd_on_sss(b4, rng):
    done = 0
    for _ in range(120):
        z = _sss_representative(random_element(b4, rng, rng.randint(1, 7)))
        alpha = _positive_sss_conjugator(z, rng, b4)
        beta = _positive_sss_conjugator(z, rng, b4)
        meet = gcd_elements(alpha, beta)
        if (z.conjugated(meet).inf, z.conjugated(meet).sup) != (z.inf, z.sup):
            continue
        lhs = transport(z, meet)
        rhs = gcd_elements(transport(z, alpha), transport(z, beta))
        assert lhs == rhs
        done += 1
    assert done > 40


def test_prefix_of_slid_suffix_relation(b4, rng):
    # the preferred suffix of the slid element admits the preferred prefix
    # as a right divisor, for super summit inputs
    for _ in range(120):
        z = _sss_representative(random_element(b4, rng, rng.randint(1, 7)))
        lhs = preferred_suffix(cyclic_sliding(z))
        rhs = preferred_prefix(z)
        assert is_right_divisor(b4, rhs, lhs)


def test_pullback_trivial(b4, rng):
    for _ in range(40):
        z = _sss_representative(random_element(b4, rng, rng.randint(1, 6)))
        y = cyclic_sliding(z)
        assert pullback_step(z, y, identity_element(b4)).is_identity


def test_pullback_minimality_against_witnesses(b4, rng):
    # if s is the transport of a valid positive u, the pullback of s divides u
    done = 0
    for _ in range(150):
        z = _sss_representative(random_element(b4, rng, rng.randint(1, 7)))
        u = _positive_sss_conjugator(z, rng, b4)
        s = transport(z, u)
        p = checked_pullback_step(z, cyclic_sliding(z), s)
        assert left_divides(p, u), (z, u, s, p)
        assert left_divides(s, transport(z, p))
        done += 1
    assert done == 150


def test_pullback_checked_mode_rejects_bad_anchor(b4, rng):
    z = _sss_representative(random_element(b4, rng, 5))
    wrong = z * delta_power_element(b4, 1)
    with pytest.raises(GarsideError):
        checked_pullback_step(z, wrong, identity_element(b4))


def test_minimal_sss_conjugator_examples(b3, b5):
    x = simple_element(b3, S1)
    assert minimal_sss_conjugator(x, x.inf, x.sup).is_identity
    y, s = _b5_example(b5)
    ys = y.conjugated(s)
    # the conjugate is already super summit, so nothing needs to move
    assert minimal_sss_conjugator(ys, y.inf, y.sup).is_identity


def test_minimal_sss_conjugator_minimality(b3, rng):
    simples = enumerate_simples(b3)
    checked = 0
    while checked < 40:
        x = random_element(b3, rng, rng.randint(1, 4))
        if x.canonical_length > 2:
            continue
        v = _sss_representative(x)
        rho = minimal_sss_conjugator(x, v.inf, v.sup)
        xr = x.conjugated(rho)
        assert xr.inf >= v.inf and xr.sup <= v.sup
        if rho.is_positive and rho.sup <= 1:
            def hits_targets(s):
                w = x.conjugated(simple_element(b3, s))
                return w.inf >= v.inf and w.sup <= v.sup

            best = brute_minimal_simple(b3, simples, hits_targets)
            assert simple_element(b3, best) == rho
            checked += 1


def test_minimal_sss_conjugator_round_guard(b4, rng):
    x = random_element(b4, rng, 8)
    v = _sss_representative(x)
    if x != v:
        with pytest.raises(InternalInvariantError):
            minimal_sss_conjugator(x, v.inf + 5, v.sup - 5, max_rounds=1)


def test_trajectories(b3, b5):
    x = g.normalize(b3, [S1, S1])  # rigid, hence a fixed point
    traj = slide_to_first_repetition(x)
    assert traj.entry_index == 0 and traj.period == 1 and traj.elements == (x,)

    x = simple_element(b3, S1S2)
    traj = slide_to_first_repetition(x)
    assert traj.entry_index == 0 and traj.period == 2
    assert set(traj.elements) == {x, simple_element(b3, S2S1)}

    y, _ = _b5_example(b5)
    traj = slide_to_first_repetition(y)
    assert traj.entry_index == 0 and traj.period == 6


def test_trajectory_invariants_randomized(b4, rng):
    for _ in range(60):
        x = random_element(b4, rng, rng.randint(0, 8))
        traj = slide_to_first_repetition(x)
        assert len(set(traj.elements)) == len(traj.elements)
        assert traj.entry_index + traj.period == len(traj.elements)
        assert cyclic_sliding(traj.elements[-1]) == traj.elements[traj.entry_index]
        assert traj.circuit_elements == traj.elements[traj.entry_index:]
