"""Self-validation of the brute-force oracles."""

import random

import pytest

import garside as g
from garside.conjugacy import enumerate_simples
from garside.errors import OracleSizeError

from reference import (
    brute_gcd_simple,
    brute_lcm_simple,
    brute_minimal_simple,
    divisors_of_simple,
    is_left_divisor,
    is_right_divisor,
)


def test_enumeration_sizes_and_closure(b2, b3, b4, b5):
    for ctx, count in ((b2, 2), (b3, 6), (b4, 24), (b5, 120)):
        simples = enumerate_simples(ctx)
        assert len(simples) == count
        assert len(set(simples)) == count
        pool = set(simples)
        for s in simples:
            assert ctx.right_complement(s) in pool
            assert ctx.tau_power(s, 1) in pool


def test_enumeration_refuses_oversized():
    with pytest.raises(OracleSizeError):
        enumerate_simples(g.braid_context(7))


def test_gcd_oracle_output_divides_inputs(b4):
    rng = random.Random(1)
    simples = enumerate_simples(b4)
    for _ in range(50):
        s, t = rng.choice(simples), rng.choice(simples)
        d = brute_gcd_simple(b4, simples, s, t, "left")
        assert is_left_divisor(b4, d, s) and is_left_divisor(b4, d, t)
        m = brute_lcm_simple(b4, simples, s, t, "right")
        assert is_right_divisor(b4, s, m) and is_right_divisor(b4, t, m)


def test_divisor_tests_agree_with_division(b3):
    simples = enumerate_simples(b3)
    for s in simples:
        for a in b3.atoms:
            assert is_left_divisor(b3, b3.atom_simple(a), s) == (
                b3.divide_atom_left(a, s) is not None
            )


def test_divisor_sets(b3):
    simples = enumerate_simples(b3)
    assert set(divisors_of_simple(b3, simples, b3.delta, "left")) == set(simples)
    s1 = b3.atom_simple(b3.atoms[0])
    assert set(divisors_of_simple(b3, simples, s1, "left")) == {b3.identity, s1}
    assert set(divisors_of_simple(b3, simples, s1, "right")) == {b3.identity, s1}


def test_minimality_oracle(b3):
    simples = enumerate_simples(b3)
    s1 = b3.atom_simple(b3.atoms[0])
    found = brute_minimal_simple(b3, simples, lambda s: is_left_divisor(b3, s1, s))
    assert found == s1
    # non-unique minima are refused, not silently picked
    with pytest.raises(OracleSizeError):
        brute_minimal_simple(b3, simples, lambda s: s != b3.identity)
