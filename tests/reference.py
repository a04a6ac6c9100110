"""Reference routines the tests compare the package against.

Nothing here is on the solver's path.  The simple-element functions are
the generic routes written against the atom-level contract, taking the
context as their first argument; the element-level ones are the textbook
order and lattice operations; the divisor oracles decide divisibility by
an independent characterization and take lattice extrema over enumerated
simples (``garside.conjugacy.enumerate_simples``), so they refuse what
cannot be enumerated; ``naive_sc`` is the invariant set found by the
brute-force solver's walk.
"""

from __future__ import annotations

from typing import Callable, Iterable

from garside.braid import BraidContext, _inverse, _mult
from garside.conjugacy import _naive_walk, circuit_of
from garside.contract import GarsideContext, Simple, require_same_context
from garside.elements import Element, identity_element
from garside.errors import GarsideError, OracleSizeError
from garside.sliding import (
    cyclic_sliding,
    preferred_prefix,
    pullback_step,
    slide_to_first_repetition,
)

from conftest import inversions


# -- simple elements, generic over the contract ------------------------------

def is_trivial_simple(ctx: GarsideContext, s: Simple) -> bool:
    """True iff s is the identity (no atom divides it)."""
    return ctx.first_left_divisor(s) is None


def first_right_divisor(ctx: GarsideContext, s: Simple):
    """First atom (in index order) right-dividing s, with quotient, or None."""
    for a in ctx.atoms:
        q = ctx.divide_atom_right(s, a)
        if q is not None:
            return a, q
    return None


def equal_simple(ctx: GarsideContext, s: Simple, t: Simple) -> bool:
    """Test s == t by stripping common atom prefixes until none remain."""
    s, t, _ = ctx._strip_common(ctx.divide_atom_left, s, t)
    return is_trivial_simple(ctx, s) and is_trivial_simple(ctx, t)


def atom_length(ctx: GarsideContext, s: Simple) -> int:
    """Number of atoms in any decomposition of the simple element s."""
    count = 0
    while True:
        fd = ctx.first_left_divisor(s)
        if fd is None:
            return count
        _, s = fd
        count += 1


def lcm_simple(ctx: GarsideContext, s: Simple, t: Simple) -> Simple:
    """Least common multiple of two simples for the prefix order."""
    return ctx.left_complement(
        ctx.rgcd_simple(ctx.right_complement(s), ctx.right_complement(t))
    )


def rlcm_simple(ctx: GarsideContext, s: Simple, t: Simple) -> Simple:
    """Least common multiple of two simples for the suffix order."""
    return ctx.right_complement(
        ctx.gcd_simple(ctx.left_complement(s), ctx.left_complement(t))
    )


def is_left_weighted(ctx: GarsideContext, s: Simple, t: Simple) -> bool:
    """True iff the pair s·t is left weighted: ∂(s) ∧ t = 1."""
    return ctx.gcd_simple(ctx.right_complement(s), t) == ctx.identity


def is_right_weighted(ctx: GarsideContext, s: Simple, t: Simple) -> bool:
    """True iff the pair s·t is right weighted: s ∧^r ∂⁻¹(t) = 1."""
    return ctx.rgcd_simple(s, ctx.left_complement(t)) == ctx.identity


# -- elements ------------------------------------------------------------------

def power(x: Element, k: int) -> Element:
    """x^k by repeated multiplication."""
    if k < 0:
        return power(x.inverse(), -k)
    out = identity_element(x.ctx)
    for _ in range(k):
        out = out * x
    return out


def left_divides(a: Element, b: Element) -> bool:
    """a ≼ b: is a⁻¹·b positive?"""
    return (a.inverse() * b).p >= 0


def right_divides(a: Element, b: Element) -> bool:
    """b ≽ a: is b·a⁻¹ positive?"""
    return (b * a.inverse()).p >= 0


def _head(x: Element) -> Simple:
    """x ∧ Δ for positive x: Δ, the first factor, or the identity."""
    if x.p >= 1:
        return x.ctx.delta
    return x.factors[0] if x.factors else x.ctx.identity


def _right_head(x: Element) -> Simple:
    """x ∧^r Δ for positive x: Δ, the last right factor, or the identity."""
    if x.p >= 1:
        return x.ctx.delta
    return x.right_factors[-1] if x.factors else x.ctx.identity


def gcd_elements(a: Element, b: Element) -> Element:
    """Greatest common divisor for the prefix order."""
    require_same_context(a.ctx, b.ctx)
    ctx = a.ctx
    m = min(a.p, b.p)
    ap = Element._make(ctx, a.p - m, a.factors)
    bp = Element._make(ctx, b.p - m, b.factors)
    d = identity_element(ctx)
    while True:
        u = ctx.gcd_simple(_head(ap), _head(bp))
        if u == ctx.identity:
            break
        d = d.mul_simple(u)
        ap = ap.lmul_simple_inverse(u)
        bp = bp.lmul_simple_inverse(u)
    return Element._make(ctx, d.p + m, d.factors)


def rgcd_elements(a: Element, b: Element) -> Element:
    """Greatest common divisor for the suffix order."""
    require_same_context(a.ctx, b.ctx)
    ctx = a.ctx
    m = min(a.p, b.p)
    ap = a.mul_delta_power(-m)
    bp = b.mul_delta_power(-m)
    d = identity_element(ctx)
    while True:
        u = ctx.rgcd_simple(_right_head(ap), _right_head(bp))
        if u == ctx.identity:
            break
        d = d.lmul_simple(u)
        ap = ap.mul_simple_inverse(u)
        bp = bp.mul_simple_inverse(u)
    return d.mul_delta_power(m)


# -- brute-force divisor oracles -----------------------------------------------

def is_left_divisor(ctx: GarsideContext, d: Simple, s: Simple) -> bool:
    """Oracle prefix test d ≼ s between simples.

    For braids this is decided by inversion-count additivity of the
    permutation tables (an independent characterization); generically it
    strips the first atom of d off both arguments.
    """
    if isinstance(ctx, BraidContext):
        q = _mult(_inverse(d), s)
        return inversions(d) + inversions(q) == inversions(s)
    while True:
        fd = ctx.first_left_divisor(d)
        if fd is None:
            return True
        a, d = fd
        s2 = ctx.divide_atom_left(a, s)
        if s2 is None:
            return False
        s = s2


def is_right_divisor(ctx: GarsideContext, d: Simple, s: Simple) -> bool:
    """Oracle suffix test: d divides s on the right."""
    if isinstance(ctx, BraidContext):
        q = _mult(s, _inverse(d))
        return inversions(d) + inversions(q) == inversions(s)
    while True:
        fd = first_right_divisor(ctx, d)
        if fd is None:
            return True
        a, d = fd
        s2 = ctx.divide_atom_right(s, a)
        if s2 is None:
            return False
        s = s2


def divisors_of_simple(
    ctx: GarsideContext, simples: Iterable[Simple], s: Simple, side: str = "left"
) -> list[Simple]:
    test = is_left_divisor if side == "left" else is_right_divisor
    return [d for d in simples if test(ctx, d, s)]


def brute_gcd_simple(
    ctx: GarsideContext,
    simples: list[Simple],
    s: Simple,
    t: Simple,
    side: str = "left",
) -> Simple:
    """The common divisor every other common divisor divides."""
    test = is_left_divisor if side == "left" else is_right_divisor
    common = [d for d in simples if test(ctx, d, s) and test(ctx, d, t)]
    best = [d for d in common if all(test(ctx, c, d) for c in common)]
    if len(best) != 1:
        raise OracleSizeError(f"divisor intersection has no unique maximum: {best}")
    return best[0]


def brute_lcm_simple(
    ctx: GarsideContext,
    simples: list[Simple],
    s: Simple,
    t: Simple,
    side: str = "left",
) -> Simple:
    """The common multiple (within the simples) dividing every other one."""
    test = is_left_divisor if side == "left" else is_right_divisor
    common = [m for m in simples if test(ctx, s, m) and test(ctx, t, m)]
    best = [m for m in common if all(test(ctx, m, c) for c in common)]
    if len(best) != 1:
        raise OracleSizeError(f"multiple intersection has no unique minimum: {best}")
    return best[0]


def brute_minimal_simple(
    ctx: GarsideContext,
    simples: list[Simple],
    predicate: Callable[[Simple], bool],
) -> Simple:
    """The unique prefix-minimal simple satisfying the predicate."""
    hits = [s for s in simples if predicate(s)]
    minimal = [
        s
        for s in hits
        if not any(h != s and is_left_divisor(ctx, h, s) for h in hits)
    ]
    if len(minimal) != 1:
        raise OracleSizeError(
            f"predicate has {len(minimal)} minimal satisfiers, expected one"
        )
    return minimal[0]


# -- sliding -------------------------------------------------------------------

def is_rigid(x: Element) -> bool:
    """True iff the preferred prefix of x is trivial."""
    return preferred_prefix(x) == x.ctx.identity


def checked_pullback_step(z: Element, y: Element, s: Element) -> Element:
    """:func:`~garside.sliding.pullback_step` after validating its preconditions.

    The anchor y must be the sliding of z, s must be positive and y^s must
    be super summit.
    """
    if cyclic_sliding(z) != y:
        raise GarsideError("pullback anchor is not the sliding of its source")
    if not s.is_positive:
        raise GarsideError("pullback needs a positive element")
    ys = y.conjugated(s)
    summit = slide_to_first_repetition(ys).circuit_elements[0]
    if (ys.p, ys.sup) != (summit.p, summit.sup):
        raise GarsideError("pullback target is not super summit")
    return pullback_step(z, y, s)


# -- the invariant set -------------------------------------------------------

def naive_sc(x: Element) -> set[Element]:
    """The invariant vertex set, enumerated brute force (desk scale only)."""
    return set(_naive_walk(circuit_of(x).base))
