"""Seeded input sets for the four benchmark workloads.

Every item is a pair of braid words plus the verdict the benchmark
expects; the solver only ever sees the words.  Conjugate pairs come from
the generator of acceptance criterion 7: ``x`` is a random word of 3ℓ
letters, redrawn until its canonical length is ℓ, and ``y = w⁻¹·x·w`` for
a random 8-letter word ``w``, given to the solver as that literal word.
Drawing a letter takes ``rng.choice`` over the atoms and then over the
signs, exactly as ``tests/conftest.py::random_element`` does, so the
same ``random.Random(seed)`` yields byte-identical words.

The canonical-length and circuit-period filters ask ``garside``; the
verdicts are checked with :mod:`burau`, which does not.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator

import burau

W_LETTERS = 8


@dataclasses.dataclass(frozen=True)
class Item:
    n: int
    x: str
    y: str
    conjugate: bool


@dataclasses.dataclass(frozen=True)
class Workload:
    """A workload: item i is drawn in cell ``cells[i mod len(cells)]``.

    A cell is a pair (n, l): braid group B_n and canonical length l of x.
    Cycling through fixed cells keeps the mix of sizes the same in every
    run, so that runs with different seeds differ only in the draws.
    """

    name: str
    why: str
    rule: str
    via_cli: bool
    cells: tuple[tuple[int, int], ...]

    @property
    def strands(self) -> tuple[int, ...]:
        return tuple(sorted({n for n, _ in self.cells}))


#: The cells are small on purpose.  Through the CLI a single B6 or B7 item
#: can take seconds, and a few of them decide a whole run, so that runs
#: with different seeds differ by a quarter.  At B4/B5 a run solves a
#: thousand items or more.  The three ROADMAP instances (B7-B9) are solved
#: once each by ``record.py`` instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conj",
            "everyday decide-and-witness CLI call on B4/B5: short circuits, "
            "early exit, fixed per-call costs visible",
            "criterion-7 conjugate pairs, run through `garside conj --json`",
            True,
            ((4, 2), (4, 4), (4, 6), (5, 2)),
        ),
        Workload(
            "nonconj",
            "certified non-conjugate B4 pairs force a walk of the whole "
            "sliding-circuit graph; no early exit",
            "criterion-7 x; one letter of x negated and s_j^(2e) inserted (same "
            "exponent sum and permutation), conjugated by a random 8-letter "
            "word; kept only when the Burau traces certify non-conjugacy; run "
            "through `garside conj --json`",
            True,
            ((4, 3), (4, 4)),
        ),
        Workload(
            "long_circuit",
            "B4 pairs whose sliding circuit has period >= 8: transports and "
            "pullbacks per arrow grow with the period",
            "criterion-7 conjugate pairs kept only when the circuit reached "
            "from x has period >= 8; run through `garside conj --json`",
            True,
            ((4, 3),),
        ),
        Workload(
            "generic",
            "contract-only view of B4: the generic simple-element lattice and "
            "the two required atom divisions, no braid fast paths",
            "criterion-7 conjugate pairs, solved with solve_conjugacy over a "
            "contract-only context",
            False,
            ((4, 2),),
        ),
    )
}

#: The heavy-tail instances ROADMAP names, by (n, l, seed) of the
#: criterion-7 generator, with the words (x, y) they must regenerate.
ROADMAP_INSTANCES = {
    (7, 8, 1): (
        "-2 5 1 3 -2 2 -3 -5 -6 -2 -4 1 -5 -2 1 1 -5 6 -1 -5 -4 -5 1 -4",
        "4 -3 -5 -4 1 3 5 3 -2 5 1 3 -2 2 -3 -5 -6 -2 -4 1 -5 -2 1 1 -5 6 -1 "
        "-5 -4 -5 1 -4 -3 -5 -3 -1 4 5 3 -4",
    ),
    (8, 8, 1): (
        "-7 -5 -5 -7 -1 -7 -2 4 -7 5 -1 5 5 -2 -7 -4 2 -2 1 -5 -5 6 -2 -4",
        "6 3 -2 7 -1 -6 3 2 -7 -5 -5 -7 -1 -7 -2 4 -7 5 -1 5 5 -2 -7 -4 2 -2 "
        "1 -5 -5 6 -2 -4 -2 -3 6 1 -7 2 -3 -6",
    ),
    (9, 8, 3): (
        "4 -6 2 -8 4 -8 7 4 7 2 -1 -1 -8 -7 8 6 1 8 -5 -5 -7 7 6 5",
        "1 -7 -6 -8 2 -5 4 -6 4 -6 2 -8 4 -8 7 4 7 2 -1 -1 -8 -7 8 6 1 8 -5 "
        "-5 -7 7 6 5 6 -4 5 -2 8 6 7 -1",
    ),
}


def word_text(letters: list[int]) -> str:
    return " ".join(str(a) for a in letters)


def random_letters(rng: random.Random, n: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        atom = rng.choice(range(1, n))
        out.append(atom * rng.choice((1, -1)))
    return out


class Generator:
    """Draws items with the help of a loaded ``garside`` package."""

    def __init__(self, garside, contexts):
        self.g = garside
        self.contexts = contexts
        self.draws = 0

    def _element(self, n: int, letters: list[int]):
        ctx = self.contexts[n]
        atoms = ctx.atoms
        return self.g.normalize(
            ctx, [(ctx.atom_simple(atoms[abs(a) - 1]), 1 if a > 0 else -1) for a in letters]
        )

    def base(self, rng: random.Random, n: int, ell: int):
        """Criterion-7 x: 3ℓ random letters, redrawn until canonical length ℓ.

        Returns the letters and the element they spell.
        """
        while True:
            x = random_letters(rng, n, 3 * ell)
            element = self._element(n, x)
            if element.canonical_length == ell:
                return x, element

    def conjugate_pair(self, rng: random.Random, n: int, ell: int) -> tuple[list[int], list[int]]:
        x, _ = self.base(rng, n, ell)
        w = random_letters(rng, n, W_LETTERS)
        return x, burau.invert(w) + x + w

    def stream(self, workload: str, seed: int) -> Iterator[Item]:
        """The endless item sequence of a workload; the seed fixes it."""
        rng = random.Random(f"{workload}/{seed}")
        draw = getattr(self, "_" + workload)
        for n, ell in itertools.cycle(WORKLOADS[workload].cells):
            yield draw(rng, n, ell)

    def _conj(self, rng, n, ell) -> Item:
        x, y = self.conjugate_pair(rng, n, ell)
        self.draws += 1
        return Item(n, word_text(x), word_text(y), True)

    _generic = _conj

    def _long_circuit(self, rng, n, ell) -> Item:
        while True:
            self.draws += 1
            x, element = self.base(rng, n, ell)
            if self.g.slide_to_first_repetition(element).period >= 8:
                w = random_letters(rng, n, W_LETTERS)
                return Item(n, word_text(x), word_text(burau.invert(w) + x + w), True)

    def _nonconj(self, rng, n, ell) -> Item:
        while True:
            self.draws += 1
            x, _ = self.base(rng, n, ell)
            z = list(x)
            k = rng.randrange(len(z))
            e = 1 if z[k] > 0 else -1
            z[k] = -z[k]
            j = rng.randrange(1, n)
            at = rng.randrange(len(z) + 1)
            z[at:at] = [j * e, j * e]
            w = random_letters(rng, n, W_LETTERS)
            y = word_text(burau.invert(w) + z + w)
            xt = word_text(x)
            if burau.certified_nonconjugate(n, xt, y):
                return Item(n, xt, y, False)


def roadmap_instance(gen: Generator, n: int, ell: int, seed: int) -> Item:
    """One ROADMAP heavy-tail instance, regenerated from its (n, l, seed)."""
    x, y = gen.conjugate_pair(random.Random(seed), n, ell)
    return Item(n, word_text(x), word_text(y), True)
