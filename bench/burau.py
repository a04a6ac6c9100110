"""Independent conjugacy checks through the unreduced Burau matrix at t = -1.

Stdlib only and deliberately free of any ``garside`` import, so that the
benchmark can judge the solver's answers without trusting its code.  At
t = -1 the unreduced Burau representation sends

    σ_i   ↦ I with the 2×2 block [[2, -1], [1, 0]] at rows/columns i-1, i
    σ_i⁻¹ ↦ I with the 2×2 block [[0, 1], [-1, 2]] at rows/columns i-1, i

so every braid maps to an integral matrix with an integral inverse.  The
map is a homomorphism, hence

* a witness w for "x and y are conjugate" must give Burau(w⁻¹·x·w) ==
  Burau(y), evaluated from the concatenated word;
* conjugate braids have conjugate matrices, so equal traces of all
  powers; a pair whose traces of some power differ is certified
  non-conjugate.

Words use the package's text format: signed generator indices, an
optional leading ``D^k`` half-twist power, and ``(``, ``)``, ``.`` as
separators.
"""

from __future__ import annotations

import re

Matrix = list[list[int]]

_DELTA = re.compile(r"^[Dd](?:\^([+-]?\d+))?$")


def delta_letters(n: int) -> list[int]:
    """A positive word for the half twist Δ of B_n."""
    return [i for k in range(n - 1, 0, -1) for i in range(1, k + 1)]


def letters(text: str, n: int) -> list[int]:
    """Signed letters of a braid word, with D^k expanded into Δ-words."""
    out: list[int] = []
    for position, token in enumerate(re.findall(r"[^\s().]+", text)):
        m = _DELTA.match(token)
        if m:
            if position:
                raise ValueError(f"half-twist token not first in {text!r}")
            k = int(m.group(1)) if m.group(1) else 1
            word = delta_letters(n) if k > 0 else invert(delta_letters(n))
            out.extend(word * abs(k))
        else:
            value = int(token)
            if not 1 <= abs(value) < n:
                raise ValueError(f"letter {value} outside B_{n}")
            out.append(value)
    return out


def invert(word: list[int]) -> list[int]:
    return [-a for a in reversed(word)]


def identity(n: int) -> Matrix:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def burau(word: list[int], n: int) -> Matrix:
    """Burau(word) at t = -1, as the product of the letters' matrices."""
    m = identity(n)
    for letter in word:
        a = abs(letter) - 1
        b = a + 1
        for row in m:
            ra, rb = row[a], row[b]
            if letter > 0:
                row[a], row[b] = 2 * ra + rb, -ra
            else:
                row[a], row[b] = -rb, ra + 2 * rb
    return m


def matmul(x: Matrix, y: Matrix) -> Matrix:
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def power_traces(m: Matrix, count: int) -> list[int]:
    """Traces of m, m², …, m^count."""
    out = []
    p = m
    for k in range(count):
        if k:
            p = matmul(p, m)
        out.append(sum(p[i][i] for i in range(len(m))))
    return out


def witness_holds(n: int, x: str, y: str, w: str) -> bool:
    """Burau(w⁻¹·x·w) == Burau(y) for the three braid words."""
    ww = letters(w, n)
    return burau(invert(ww) + letters(x, n) + ww, n) == burau(letters(y, n), n)


def certified_nonconjugate(n: int, x: str, y: str) -> bool:
    """True when the traces of some power Burau^k, k <= n, differ.

    The traces of the first n powers fix the characteristic polynomial,
    which is all this invariant can tell apart.
    """
    bx = burau(letters(x, n), n)
    by = burau(letters(y, n), n)
    return power_traces(bx, n) != power_traces(by, n)
