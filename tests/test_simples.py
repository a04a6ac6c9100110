"""Derived operations on simple elements: complements, tau, lattice, slidings."""

import itertools
import random

import pytest

import garside as g
from garside.braid import _mult
from garside.conjugacy import enumerate_simples
from garside.simples import SimpleLatticeOps

import reference as ref
from conftest import BareContext, inversions, random_simple
from reference import brute_gcd_simple, brute_lcm_simple, is_left_divisor

S1 = (1, 0, 2)
S2 = (0, 2, 1)
S1S2 = (2, 0, 1)
S2S1 = (1, 2, 0)
DELTA3 = (2, 1, 0)


def test_complement_examples(b3):
    assert b3.right_complement(b3.identity) == b3.delta
    assert b3.right_complement(b3.delta) == b3.identity
    assert b3.right_complement(S1) == S2S1
    assert b3.right_complement(S1S2) == S1


def test_complements_invert_each_other(b4):
    for s in enumerate_simples(b4):
        assert b4.left_complement(b4.right_complement(s)) == s
        assert b4.right_complement(b4.left_complement(s)) == s


def test_tau_examples(b3, b4):
    assert b3.tau_power(S1, 0) == S1
    assert b3.tau_power(S1, 1) == S2
    for s in enumerate_simples(b4):
        assert b4.tau_power(b4.tau_power(s, 1), -1) == s


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_of_complement_is_tau(n):
    ctx = g.braid_context(n)
    for s in enumerate_simples(ctx):
        assert ctx.right_complement(ctx.right_complement(s)) == ctx.tau_power(s, 1)


def test_square_of_complement_is_tau_randomized():
    rng = random.Random(3)
    for n in (6, 7):
        ctx = g.braid_context(n)
        for _ in range(200):
            s = random_simple(ctx, rng)
            assert ctx.right_complement(ctx.right_complement(s)) == ctx.tau_power(s, 1)
            assert SimpleLatticeOps.tau_power(ctx, s, 1) == ctx.tau_power(s, 1)


def test_triviality(b3):
    assert ref.is_trivial_simple(b3, b3.identity)
    assert not ref.is_trivial_simple(b3, S1)
    assert ref.is_trivial_simple(b3, b3.right_complement(b3.delta))
    assert ref.is_trivial_simple(b3, b3.identity)


def test_equality(b3, b4):
    assert ref.equal_simple(b3, S1, S1)
    assert not ref.equal_simple(b3, S1S2, S2S1)
    bare = BareContext(b4)
    for s, t in itertools.product(enumerate_simples(b4), repeat=2):
        assert ref.equal_simple(bare, s, t) == (s == t)


def test_gcd_examples(b3):
    assert b3.gcd_simple(S1S2, S1S2) == S1S2
    assert b3.gcd_simple(b3.identity, S1) == b3.identity
    assert b3.gcd_simple(S1S2, S1) == S1


def test_lcm_examples(b3):
    assert ref.lcm_simple(b3, S2S1, b3.identity) == S2S1
    assert ref.lcm_simple(b3, S1, S2) == DELTA3
    assert ref.rlcm_simple(b3, S1, S2) == DELTA3


def test_lattice_matches_brute_force_b3(b3):
    simples = enumerate_simples(b3)
    for s, t in itertools.product(simples, repeat=2):
        assert b3.gcd_simple(s, t) == brute_gcd_simple(b3, simples, s, t, "left")
        assert b3.rgcd_simple(s, t) == brute_gcd_simple(b3, simples, s, t, "right")
        assert ref.lcm_simple(b3, s, t) == brute_lcm_simple(b3, simples, s, t, "left")
        assert ref.rlcm_simple(b3, s, t) == brute_lcm_simple(b3, simples, s, t, "right")


def test_lattice_axioms(b3):
    simples = enumerate_simples(b3)
    for s, t in itertools.product(simples, repeat=2):
        assert b3.gcd_simple(s, t) == b3.gcd_simple(t, s)
        assert ref.lcm_simple(b3, s, t) == ref.lcm_simple(b3, t, s)
        assert b3.gcd_simple(s, ref.lcm_simple(b3, s, t)) == s
        assert ref.lcm_simple(b3, s, b3.gcd_simple(s, t)) == s
    for s in simples:
        assert b3.gcd_simple(s, s) == s
        assert ref.lcm_simple(b3, s, s) == s


def test_lattice_axioms_randomized_b6():
    ctx = g.braid_context(6)
    rng = random.Random(17)
    for _ in range(1000):
        s = random_simple(ctx, rng)
        t = random_simple(ctx, rng)
        assert ctx.gcd_simple(s, t) == ctx.gcd_simple(t, s)
        assert ctx.gcd_simple(s, ref.lcm_simple(ctx, s, t)) == s
        assert ref.lcm_simple(ctx, s, ctx.gcd_simple(s, t)) == s


def test_generic_equality_is_gcd_congruence(b3):
    bare = BareContext(b3)
    simples = enumerate_simples(b3)
    for s, t, u in itertools.product(simples, repeat=3):
        if ref.equal_simple(bare, s, t):
            assert ref.equal_simple(
                bare,
                SimpleLatticeOps.gcd_simple(bare, s, u),
                SimpleLatticeOps.gcd_simple(bare, t, u),
            )


def test_local_sliding_examples(b3):
    assert b3.local_sliding(S1, S2S1) == (DELTA3, b3.identity)
    assert b3.local_sliding(S1, S1) == (S1, S1)
    for t in enumerate_simples(b3):
        assert b3.local_sliding(DELTA3, t) == (DELTA3, t)


def test_local_sliding_preserves_product_and_weights(b3):
    for s, t in itertools.product(enumerate_simples(b3), repeat=2):
        a, b = b3.local_sliding(s, t)
        assert _mult(a, b) == _mult(s, t)
        assert ref.is_left_weighted(b3, a, b)
        a, b = b3.local_right_sliding(s, t)
        assert _mult(a, b) == _mult(s, t)
        assert ref.is_right_weighted(b3, a, b)


def test_local_sliding_randomized_b5(b5):
    rng = random.Random(23)
    for _ in range(300):
        s = random_simple(b5, rng)
        t = random_simple(b5, rng)
        a, b = b5.local_sliding(s, t)
        assert _mult(a, b) == _mult(s, t)
        assert ref.is_left_weighted(b5, a, b)


def test_atom_products(b3):
    a1, a2 = b3.atoms
    assert b3.mult_atom_left(a1, b3.identity) == S1
    assert b3.mult_atom_right(S1, a2) == S1S2
    for a in b3.atoms:
        assert b3.mult_atom_right(DELTA3, a) is None
        assert b3.mult_atom_left(a, DELTA3) is None


def test_atom_length(b3, b4):
    assert ref.atom_length(b3, b3.identity) == 0
    assert ref.atom_length(b3, DELTA3) == 3
    for s in enumerate_simples(b4):
        fd = b4.first_left_divisor(s)
        if fd is not None:
            a, q = fd
            assert ref.atom_length(b4, s) == 1 + ref.atom_length(b4, q)
        assert ref.atom_length(b4, s) == inversions(s)


def test_divisor_quotients_recompose(b4):
    # left quotient then left multiplication is the identity, via the
    # independent composition oracle
    for s in enumerate_simples(b4):
        for a in b4.atoms:
            q = b4.divide_atom_left(a, s)
            if q is not None:
                assert _mult(b4.atom_simple(a), q) == s
                assert is_left_divisor(b4, b4.atom_simple(a), s)
            else:
                assert not is_left_divisor(b4, b4.atom_simple(a), s)
