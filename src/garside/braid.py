"""Artin braid groups as a concrete Garside structure.

Simple elements of the braid group on ``n`` strands are permutation
braids, represented canonically by their permutation as an image table:
a tuple ``s`` of length ``n`` with 0-based entries, where ``s[j]`` is the
final position of the strand starting at position ``j``.  Products compose
left to right, so the table of ``u·v`` is ``j ↦ v[u[j]]``.

Under this convention the generator ``σ_i`` (atom index ``i``, 1-based)
is the transposition of ``i-1`` and ``i``, and

* ``σ_i`` left-divides a simple ``s``  iff ``s[i-1] > s[i]``
  (a descent of the image table); the quotient swaps the two positions;
* ``σ_i`` right-divides ``s`` iff the value ``i-1`` occurs to the right
  of the value ``i``; the quotient swaps the two values.

The choice of composition order is a convention; it is pinned here once
and validated against an exhaustive positive-word oracle in the test
suite.  The Garside element ``delta`` is the half twist ``j ↦ n-1-j``.

This module also defines the braid word text format used by the command
line: whitespace-separated signed integers (``i`` for ``σ_i``, ``-i`` for
its inverse), with an optional leading ``D``/``d`` token carrying a caret
power for the half twist, e.g. ``"D^-1 1 2 -1"``.  Parentheses and ``.``
are accepted as extra separators so that the emitted normal-form words,
like ``"D^1 (2 1 4 3 4) (1)"``, parse back to the same element.
"""

from __future__ import annotations

import dataclasses
import re

from .contract import Atom, GarsideContext, Simple
from .elements import Element, normalize
from .errors import ContextMismatchError, GarsideError


class WordParseError(GarsideError):
    """Malformed braid word; ``position`` is the character offset, if known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _mult(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Image table of "u then v"."""
    return tuple(v[x] for x in u)


def _inverse(u: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(u)
    for j, x in enumerate(u):
        inv[x] = j
    return tuple(inv)


class BraidContext(GarsideContext):
    """Garside structure of the braid group on ``n`` strands (``n >= 2``)."""

    def __init__(self, n: int):
        if n < 2:
            raise GarsideError(f"need at least 2 strands, got {n}")
        self.n = n
        atoms = tuple(Atom(i, f"s{i}") for i in range(1, n))
        identity = tuple(range(n))
        delta = tuple(range(n - 1, -1, -1))
        super().__init__(atoms, identity, delta)

    def __repr__(self) -> str:
        return f"BraidContext(n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BraidContext) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("BraidContext", self.n))

    # -- required operations ------------------------------------------------

    def _shape_check(self, s) -> None:
        if type(s) is not tuple or len(s) != self.n:
            raise ContextMismatchError(
                f"not a simple element of B_{self.n}: {s!r}"
            )

    def check_simple(self, s: Simple) -> None:
        self._shape_check(s)
        if sorted(s) != list(range(self.n)):
            raise ContextMismatchError(f"not a permutation table: {s!r}")

    def _check_atom(self, a: Atom) -> int:
        i = a.index
        if not 1 <= i <= self.n - 1:
            raise ContextMismatchError(f"atom {a!r} does not belong to B_{self.n}")
        return i - 1

    def _divide_atom_left(self, a, s):
        j = self._check_atom(a)
        self._shape_check(s)
        if s[j] > s[j + 1]:
            return s[:j] + (s[j + 1], s[j]) + s[j + 2:]
        return None

    def _divide_atom_right(self, s, a):
        j = self._check_atom(a)
        self._shape_check(s)
        if s.index(j) > s.index(j + 1):
            return tuple(
                j + 1 if x == j else j if x == j + 1 else x for x in s
            )
        return None

    # -- native fast paths ----------------------------------------------------
    # Each override charges one counter unit and then works directly on the
    # permutation tables; the generic routines in SimpleLatticeOps remain
    # available for cross-checking.

    def is_trivial_simple(self, s) -> bool:
        self.ops.calls += 1
        return s == self.identity

    def equal_simple(self, s, t) -> bool:
        self.ops.calls += 1
        return s == t

    def atom_simple(self, a):
        j = self._check_atom(a)
        s = list(range(self.n))
        s[j], s[j + 1] = s[j + 1], s[j]
        return tuple(s)

    def atom_length(self, s) -> int:
        self.ops.calls += 1
        n = self.n
        return sum(
            1 for i in range(n - 1) for j in range(i + 1, n) if s[i] > s[j]
        )

    def right_complement(self, s):
        self.ops.calls += 1
        return self._rc(s)

    def left_complement(self, s):
        self.ops.calls += 1
        return self._lc(s)

    def tau_power(self, s, k: int):
        self.ops.calls += 1
        if k % 2 == 0:
            return s
        return self._tau(s)

    def _rc(self, s):
        inv = _inverse(s)
        m = self.n - 1
        return tuple(m - x for x in inv)

    def _lc(self, s):
        inv = _inverse(s)
        m = self.n - 1
        return tuple(inv[m - j] for j in range(self.n))

    def _tau(self, s):
        m = self.n - 1
        return tuple(m - s[m - j] for j in range(self.n))

    def gcd_simple(self, s, t):
        self.ops.calls += 1
        return self._gcd(s, t)

    def _gcd(self, s, t):
        # Strip common descents, accumulating the stripped atoms as a product.
        n = self.n
        s = list(s)
        t = list(t)
        g = list(range(n))
        pos = list(range(n))
        j = 0
        while j < n - 1:
            if s[j] > s[j + 1] and t[j] > t[j + 1]:
                s[j], s[j + 1] = s[j + 1], s[j]
                t[j], t[j + 1] = t[j + 1], t[j]
                pj, pj1 = pos[j], pos[j + 1]
                g[pj], g[pj1] = j + 1, j
                pos[j], pos[j + 1] = pj1, pj
                # a strip can only create new common descents next door
                if j:
                    j -= 1
            else:
                j += 1
        return tuple(g)

    def rgcd_simple(self, s, t):
        self.ops.calls += 1
        return _inverse(self._gcd(_inverse(s), _inverse(t)))

    def lcm_simple(self, s, t):
        self.ops.calls += 1
        a = _inverse(self._gcd(_inverse(self._rc(s)), _inverse(self._rc(t))))
        return self._lc(a)

    def rlcm_simple(self, s, t):
        self.ops.calls += 1
        return self._rc(self._gcd(self._lc(s), self._lc(t)))

    def local_sliding(self, s, t):
        self.ops.calls += 1
        u = self._gcd(self._rc(s), t)
        return _mult(s, u), _mult(_inverse(u), t)

    def local_right_sliding(self, s, t):
        self.ops.calls += 1
        u = _inverse(self._gcd(_inverse(s), _inverse(self._lc(t))))
        return _mult(s, _inverse(u)), _mult(u, t)

    def mult_atom_left(self, a, s):
        self.ops.calls += 1
        j = self._check_atom(a)
        if s[j] < s[j + 1]:
            return s[:j] + (s[j + 1], s[j]) + s[j + 2:]
        return None

    def mult_atom_right(self, s, a):
        self.ops.calls += 1
        j = self._check_atom(a)
        if s.index(j) < s.index(j + 1):
            return tuple(
                j + 1 if x == j else j if x == j + 1 else x for x in s
            )
        return None


def braid_context(n: int) -> BraidContext:
    """Build the Garside context of the braid group on n strands."""
    return BraidContext(n)


# -- braid words ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A braid word: optional leading half-twist power, then signed letters."""

    delta_power: int
    letters: tuple[int, ...]


_DELTA_TOKEN = re.compile(r"^[Dd](?:\^([+-]?\d+))?$")
_INT_TOKEN = re.compile(r"^[+-]?\d+$")


def parse_word(text: str) -> BraidWord:
    """Parse the braid word grammar; raise WordParseError with a position."""
    delta_power = 0
    letters: list[int] = []
    first = True
    for m in re.finditer(r"[^\s().]+", text):
        token, position = m.group(), m.start()
        dm = _DELTA_TOKEN.match(token)
        if dm:
            if not first:
                raise WordParseError("half-twist token only allowed first", position)
            delta_power = int(dm.group(1)) if dm.group(1) else 1
        elif _INT_TOKEN.match(token):
            value = int(token)
            if value == 0:
                raise WordParseError("letter 0 is not a generator", position)
            letters.append(value)
        else:
            raise WordParseError(f"unrecognized token {token!r}", position)
        first = False
    return BraidWord(delta_power, tuple(letters))


def element_from_word(ctx: BraidContext, word: BraidWord) -> Element:
    """Normal form of a braid word in the given context."""
    parts = []
    for letter in word.letters:
        i = abs(letter)
        if i >= ctx.n:
            raise WordParseError(f"letter {letter} needs at least {i + 1} strands")
        parts.append((ctx.atom_simple(ctx.atoms[i - 1]), 1 if letter > 0 else -1))
    return normalize(ctx, parts, delta_power=word.delta_power)


def simple_to_word(ctx: BraidContext, s: Simple) -> list[int]:
    """A positive word for a simple element (first-divisor stripping)."""
    out = []
    while True:
        fd = ctx.first_left_divisor(s)
        if fd is None:
            return out
        a, s = fd
        out.append(a.index)


def word_from_element(x: Element) -> str:
    """Render the left normal form as ``D^p`` plus parenthesized factors."""
    ctx = x.ctx
    pieces = [f"D^{x.p}"]
    for f in x.factors:
        pieces.append("(" + " ".join(str(i) for i in simple_to_word(ctx, f)) + ")")
    return " ".join(pieces)
