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
import functools
import re

from .contract import Atom, GarsideContext, Simple, current_run
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
    return tuple(map(v.__getitem__, u))


def _inverse(u) -> tuple[int, ...]:
    inv = [0] * len(u)
    for j, x in enumerate(u):
        inv[x] = j
    return tuple(inv)


# -- permutation-table kernels ------------------------------------------------
# Pure functions of their tables, with m = n − 1.  An atom left-divides a
# table iff it is a descent there, so every meet is one _strip_descents
# call; a sliding that strips nothing has a weighted pair and returns its
# own inputs.

def _strip_descents(a, c):
    """Strip the common descents of the lists a and c in place; return the
    original position of each entry (the inverse table of their gcd), or
    None when they share no descent."""
    m = len(a) - 1
    j = 0
    while j < m and (a[j] < a[j + 1] or c[j] < c[j + 1]):
        j += 1
    if j == m:
        return None
    pos = list(range(m + 1))
    while j < m:
        if a[j] > a[j + 1] and c[j] > c[j + 1]:
            a[j], a[j + 1] = a[j + 1], a[j]
            c[j], c[j + 1] = c[j + 1], c[j]
            pos[j], pos[j + 1] = pos[j + 1], pos[j]
            # a strip can only create new common descents next door
            if j:
                j -= 1
        else:
            j += 1
    return pos


def _right_complement(s):
    """s⁻¹·Δ."""
    m = len(s) - 1
    out = [0] * len(s)
    for j, x in enumerate(s):
        out[x] = m - j
    return tuple(out)


def _left_complement(s):
    """Δ·s⁻¹."""
    m = len(s) - 1
    out = [0] * len(s)
    for j, x in enumerate(s):
        out[m - x] = j
    return tuple(out)


def _tau(s):
    """Δ⁻¹·s·Δ."""
    return tuple(map((len(s) - 1).__sub__, reversed(s)))


def _gcd(s, t):
    pos = _strip_descents(list(s), list(t))
    return tuple(range(len(s))) if pos is None else _inverse(pos)


def _rgcd(s, t):
    # reversing words maps a permutation braid to the braid of the inverse
    # permutation and the suffix order to the prefix order
    pos = _strip_descents(list(_inverse(s)), list(_inverse(t)))
    return tuple(range(len(s))) if pos is None else tuple(pos)


def _local_sliding(s, t):
    # u = ∂s ∧ t; ∂s stripped by u is ∂(s·u), so s·u is its left complement
    a, c = list(_right_complement(s)), list(t)
    if _strip_descents(a, c) is None:
        return s, t
    return _left_complement(a), tuple(c)


def _local_right_sliding(s, t):
    # with u = s ∧ʳ Δ·t⁻¹, the inverse tables of s and of Δ·t⁻¹ stripped of
    # their common prefix are those of s·u⁻¹ and of Δ·(u·t)⁻¹
    m = len(s) - 1
    a, c = list(_inverse(s)), list(map(m.__sub__, t))
    if _strip_descents(a, c) is None:
        return s, t
    return _inverse(a), tuple(map(m.__sub__, c))


#: Most entries one kernel cache of a BraidContext holds; a full cache
#: evicts its least recently used entry to take the next one.
MEMO_LIMIT = 1 << 14


class BraidContext(GarsideContext):
    """Garside structure of the braid group on ``n`` strands (``n >= 2``)."""

    def __init__(self, n: int):
        if n < 2:
            raise GarsideError(f"need at least 2 strands, got {n}")
        self.n = n
        self._sorted_table = list(range(n))
        cache = functools.lru_cache(MEMO_LIMIT)
        self._right_complements = cache(_right_complement)
        self._left_complements = cache(_left_complement)
        self._taus = cache(_tau)
        self._gcds = cache(_gcd)
        self._rgcds = cache(_rgcd)
        self._slidings = cache(_local_sliding)
        self._right_slidings = cache(_local_right_sliding)
        atoms = tuple(Atom(i) for i in range(1, n))
        identity = tuple(range(n))
        delta = tuple(range(n - 1, -1, -1))
        super().__init__(atoms, identity, delta)

    def __repr__(self) -> str:
        return f"BraidContext(n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BraidContext) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("BraidContext", self.n))

    def _measure_delta(self) -> int:
        """‖Δ‖ = n(n−1)/2, the number of crossings of the half twist;
        stripping Δ atom by atom would take time cubic in n."""
        return self.n * (self.n - 1) // 2

    # -- required operations ------------------------------------------------

    def _shape_check(self, s) -> None:
        if type(s) is not tuple or len(s) != self.n:
            raise ContextMismatchError(
                f"not a simple element of B_{self.n}: {s!r}"
            )

    def check_simple(self, s: Simple) -> None:
        self._shape_check(s)
        if set(map(type, s)) != {int} or sorted(s) != self._sorted_table:
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
    # Only the derived operations on the solver's path are overridden.  Each
    # override charges one unit to the current run, on a cache hit as on a
    # miss, and answers through a per-context, least-recently-used cache of a
    # permutation-table kernel; the generic routines in SimpleLatticeOps
    # serve every other derived operation and remain the reference for these.

    def atom_simple(self, a):
        j = self._check_atom(a)
        s = list(range(self.n))
        s[j], s[j + 1] = s[j + 1], s[j]
        return tuple(s)

    def right_complement(self, s):
        current_run().contract_calls += 1
        return self._right_complements(s)

    def left_complement(self, s):
        current_run().contract_calls += 1
        return self._left_complements(s)

    def tau_power(self, s, k: int):
        if k == 0:
            return s
        current_run().contract_calls += 1
        if k % 2 == 0:
            return s
        return self._taus(s)

    def gcd_simple(self, s, t):
        current_run().contract_calls += 1
        return self._gcds(s, t)

    def rgcd_simple(self, s, t):
        current_run().contract_calls += 1
        return self._rgcds(s, t)

    def local_sliding(self, s, t):
        current_run().contract_calls += 1
        return self._slidings(s, t)

    def local_right_sliding(self, s, t):
        current_run().contract_calls += 1
        return self._right_slidings(s, t)


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
