import random

import pytest

import garside as g
from garside.contract import GarsideContext


class BareContext(GarsideContext):
    """Contract-only view of a context: required operations, no fast paths.

    Forces every derived operation through the generic routes, which is how
    the package's genericity over the atom-level interface gets exercised.
    """

    def __init__(self, inner):
        self.inner = inner
        super().__init__(inner.atoms, inner.identity, inner.delta)

    def _divide_atom_left(self, a, s):
        return self.inner._divide_atom_left(a, s)

    def _divide_atom_right(self, s, a):
        return self.inner._divide_atom_right(s, a)

    def check_simple(self, s):
        self.inner.check_simple(s)

    def __eq__(self, other):
        return isinstance(other, BareContext) and other.inner == self.inner

    def __hash__(self):
        return hash(("bare", self.inner))


def eval_word(n, letters):
    """Independent word-to-permutation oracle: compose transpositions."""
    table = list(range(n))
    for i in letters:
        j = i - 1
        table = [j + 1 if v == j else j if v == j + 1 else v for v in table]
    return tuple(table)


def inversions(table):
    n = len(table)
    return sum(
        1 for i in range(n - 1) for j in range(i + 1, n) if table[i] > table[j]
    )


def random_element(ctx, rng, length):
    parts = [
        (ctx.atom_simple(rng.choice(ctx.atoms)), rng.choice((1, -1)))
        for _ in range(length)
    ]
    return g.normalize(ctx, parts)


def random_simple(ctx, rng):
    table = list(range(ctx.n))
    rng.shuffle(table)
    return tuple(table)


@pytest.fixture(scope="session")
def b2():
    return g.braid_context(2)


@pytest.fixture(scope="session")
def b3():
    return g.braid_context(3)


@pytest.fixture(scope="session")
def b4():
    return g.braid_context(4)


@pytest.fixture(scope="session")
def b5():
    return g.braid_context(5)


@pytest.fixture()
def rng():
    return random.Random(20260811)
