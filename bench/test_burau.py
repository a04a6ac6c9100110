"""Tests of the benchmark's independent Burau checker.

Run with ``python3 -m pytest bench``.
"""

import random

import pytest

import burau


def random_word(rng, n, length):
    return [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(length)]


def text(word):
    return " ".join(map(str, word))


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_braid_relations_hold(n):
    for i in range(1, n - 1):
        assert burau.burau([i, i + 1, i], n) == burau.burau([i + 1, i, i + 1], n)
    for i in range(1, n):
        for j in range(i + 2, n):
            assert burau.burau([i, j], n) == burau.burau([j, i], n)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_inverses_cancel(n):
    rng = random.Random(n)
    for _ in range(20):
        w = random_word(rng, n, 12)
        assert burau.burau(w + burau.invert(w), n) == burau.identity(n)
        assert burau.burau(burau.invert(w) + w, n) == burau.identity(n)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_half_twist_flips_the_generators(n):
    delta = burau.delta_letters(n)
    for i in range(1, n):
        assert burau.burau(delta + [i], n) == burau.burau([n - i] + delta, n)
    assert burau.letters("D^-2 (1) . 2", n) == burau.invert(delta) * 2 + [1, 2]


def test_known_conjugate_pairs_are_never_certified():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 7):
        for _ in range(10):
            x = random_word(rng, n, 9)
            w = random_word(rng, n, 8)
            y = burau.invert(w) + x + w
            assert not burau.certified_nonconjugate(n, text(x), text(y))
            assert burau.witness_holds(n, text(x), text(y), text(w))


def test_wrong_witness_and_different_classes_are_caught():
    # s1 s2 and s1 s2^-1 have different exponent sums, so are not conjugate
    assert burau.certified_nonconjugate(3, "1 2", "1 -2")
    assert not burau.witness_holds(3, "1", "2", "")
    assert burau.witness_holds(3, "1", "2", "2 1")


def test_letters_outside_the_group_are_rejected():
    with pytest.raises(ValueError):
        burau.letters("1 3", 3)
    with pytest.raises(ValueError):
        burau.letters("1 D", 3)
