"""Group elements in greedy normal form, with the arithmetic built on it.

An :class:`Element` is held eagerly in left normal form ``Δ^p·x₁⋯x_r``:
every factor is a proper simple (neither trivial nor ``Δ``) and every
adjacent pair ``x_i·x_{i+1}`` is left weighted.  The right normal form
``y₁⋯y_r·Δ^p`` is computed on first use and cached; both forms share the
integers ``p = inf`` and ``r = canonical length``.

Renormalization works by local slidings.  Appending one simple to a left
normal form needs a single backward sweep of slidings, prepending needs a
single forward sweep; both are linear in the number of factors, which is
what makes conjugation by a simple element linear as well.  Multiplying
two elements concatenates their factor sequences (shifting the left one
through the right one's ``Δ`` power) and re-normalizes across the seam.
"""

from __future__ import annotations

from typing import Iterable

from .contract import GarsideContext, Simple, require_same_context
from .errors import GarsideError, InternalInvariantError


def _strip_edges(ctx: GarsideContext, p: int, fs: list) -> int:
    """Drop trailing trivial factors and absorb leading deltas into p."""
    identity = ctx.identity
    delta = ctx.delta
    while fs and fs[-1] == identity:
        fs.pop()
    while fs and fs[0] == delta:
        fs.pop(0)
        p += 1
    return p


def _append(ctx: GarsideContext, p: int, fs: list, s: Simple) -> int:
    """Multiply Δ^p·fs on the right by the simple s; one backward sweep."""
    if s == ctx.identity:
        return p
    if s == ctx.delta:
        fs[:] = [ctx.tau_power(f, 1) for f in fs]
        return p + 1
    fs.append(s)
    sliding = ctx.local_sliding
    for i in range(len(fs) - 2, -1, -1):
        a = fs[i]
        a2, b2 = sliding(a, fs[i + 1])
        if a2 == a:
            break
        fs[i] = a2
        fs[i + 1] = b2
    return _strip_edges(ctx, p, fs)


def _prepend(ctx: GarsideContext, p: int, fs: list, s: Simple) -> int:
    """Multiply Δ^p·fs on the left by the simple s; one forward sweep."""
    if s == ctx.identity:
        return p
    s = ctx.tau_power(s, p)
    if s == ctx.delta:
        return p + 1
    fs.insert(0, s)
    sliding = ctx.local_sliding
    for i in range(len(fs) - 1):
        a = fs[i]
        a2, b2 = sliding(a, fs[i + 1])
        if a2 == a:
            break
        fs[i] = a2
        fs[i + 1] = b2
    return _strip_edges(ctx, p, fs)


def _append_inverse(ctx: GarsideContext, p: int, fs: list, s: Simple) -> int:
    """Multiply Δ^p·fs on the right by s⁻¹ = Δ⁻¹·∂⁻¹(s)."""
    fs[:] = [ctx.tau_power(f, -1) for f in fs]
    return _append(ctx, p - 1, fs, ctx.left_complement(s))


def _prepend_inverse(ctx: GarsideContext, p: int, fs: list, s: Simple) -> int:
    """Multiply Δ^p·fs on the left by s⁻¹ = Δ⁻¹·∂⁻¹(s)."""
    return _prepend(ctx, p, fs, ctx.left_complement(s)) - 1


def _right_prepend(ctx: GarsideContext, fs: list, s: Simple) -> int:
    """Multiply the right-normal factor list fs on the left by the simple s.

    Mirror of :func:`_append`: one forward sweep of right slidings, excess
    mass travelling to the right.  Returns the Δ power shed at the right
    end (the factor list carries its Δ power on the right).
    """
    if s == ctx.identity:
        return 0
    if s == ctx.delta:
        fs[:] = [ctx.tau_power(f, -1) for f in fs]
        return 1
    fs.insert(0, s)
    sliding = ctx.local_right_sliding
    for i in range(len(fs) - 1):
        a = fs[i]
        a2, b2 = sliding(a, fs[i + 1])
        if a2 == a:
            break
        fs[i] = a2
        fs[i + 1] = b2
    carry = 0
    while fs and fs[-1] == ctx.delta:
        fs.pop()
        carry += 1
    while fs and fs[0] == ctx.identity:
        fs.pop(0)
    return carry


class Element:
    """A group element in left normal form, immutable and hashable.

    Equality compares the Δ power and the factor sequence (normal forms
    are unique).  The right normal form, the hash and the preferred
    prefix/suffix are cached on first use; the caches are idempotent, so
    a data race at worst recomputes the same value.
    """

    __slots__ = ("ctx", "p", "factors", "_hash", "_right", "_pref", "_suff")

    def __init__(self, ctx: GarsideContext, p: int, factors: tuple[Simple, ...]):
        self.ctx = ctx
        self.p = p
        self.factors = factors
        self._hash = None
        self._right = None
        self._pref = None
        self._suff = None

    @classmethod
    def _make(cls, ctx, p, factors) -> "Element":
        return cls(ctx, p, tuple(factors))

    # -- basic quantities -------------------------------------------------

    @property
    def inf(self) -> int:
        return self.p

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def sup(self) -> int:
        return self.p + len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.p == 0 and not self.factors

    @property
    def is_positive(self) -> bool:
        """True iff the element lies in the positive monoid (inf >= 0)."""
        return self.p >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.p == other.p
            and self.factors == other.factors
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.p, self.factors))
        return h

    def __repr__(self) -> str:
        return f"<Element p={self.p} factors={list(self.factors)!r}>"

    # -- normal forms ------------------------------------------------------

    @property
    def right_factors(self) -> tuple[Simple, ...]:
        """Factors y₁..y_r of the right normal form y₁⋯y_r·Δ^p (cached)."""
        rf = self._right
        if rf is None:
            ctx = self.ctx
            shifted = [ctx.tau_power(f, -self.p) for f in self.factors]
            fs: list = []
            carry = 0
            for s in reversed(shifted):
                carry += _right_prepend(ctx, fs, s)
            if carry or len(fs) != len(self.factors):
                raise InternalInvariantError("right normal form changed p or r")
            rf = self._right = tuple(fs)
        return rf

    def initial_factor(self) -> Simple:
        """ι(x) = x·Δ^{-inf} ∧ Δ; trivial for Δ powers."""
        if not self.factors:
            return self.ctx.identity
        return self.ctx.tau_power(self.factors[0], -self.p)

    def final_factor(self) -> Simple:
        """φ(x): the last normal-form factor; Δ for Δ powers."""
        if not self.factors:
            return self.ctx.delta
        return self.factors[-1]

    def right_initial_factor(self) -> Simple:
        """ι-mirror for the suffix order: Δ^{-inf}·x ∧^r Δ."""
        if not self.factors:
            return self.ctx.identity
        return self.ctx.tau_power(self.right_factors[-1], self.p)

    def right_final_factor(self) -> Simple:
        """φ-mirror for the suffix order; Δ for Δ powers."""
        if not self.factors:
            return self.ctx.delta
        return self.right_factors[0]

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        require_same_context(self.ctx, other.ctx)
        ctx = self.ctx
        q = other.p
        fs = [ctx.tau_power(f, q) for f in self.factors]
        p = self.p + q
        for s in other.factors:
            p = _append(ctx, p, fs, s)
        return Element._make(ctx, p, fs)

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self.inverse() ** (-k)
        out = identity_element(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "Element":
        """x⁻¹, read off the normal form factor by factor."""
        ctx = self.ctx
        p, r = self.p, len(self.factors)
        fs: list = []
        for j in range(r, 0, -1):
            # exponent -2(p+j)+1 of the complement map, as tau then one step
            f = ctx.tau_power(self.factors[j - 1], -(p + j))
            fs.append(ctx.right_complement(f))
        q = _strip_edges(ctx, -(p + r), fs)
        return Element._make(ctx, q, fs)

    def mul_simple(self, s: Simple) -> "Element":
        fs = list(self.factors)
        p = _append(self.ctx, self.p, fs, s)
        return Element._make(self.ctx, p, fs)

    def mul_simple_inverse(self, s: Simple) -> "Element":
        fs = list(self.factors)
        p = _append_inverse(self.ctx, self.p, fs, s)
        return Element._make(self.ctx, p, fs)

    def lmul_simple(self, s: Simple) -> "Element":
        fs = list(self.factors)
        p = _prepend(self.ctx, self.p, fs, s)
        return Element._make(self.ctx, p, fs)

    def lmul_simple_inverse(self, s: Simple) -> "Element":
        fs = list(self.factors)
        p = _prepend_inverse(self.ctx, self.p, fs, s)
        return Element._make(self.ctx, p, fs)

    def mul_delta_power(self, k: int) -> "Element":
        """x·Δ^k (equals Δ^k·τ^k(x))."""
        ctx = self.ctx
        return Element._make(
            ctx, self.p + k, [ctx.tau_power(f, k) for f in self.factors]
        )

    def conjugated_by_simple(self, s: Simple) -> "Element":
        """s⁻¹·x·s in linearly many slidings."""
        return self.mul_simple(s).lmul_simple_inverse(s)

    def conjugated_by_simple_inverse(self, s: Simple) -> "Element":
        """s·x·s⁻¹ in linearly many slidings."""
        return self.mul_simple_inverse(s).lmul_simple(s)

    def conjugated(self, c: "Element") -> "Element":
        """c⁻¹·x·c; incremental path when c is a Δ power times one simple."""
        require_same_context(self.ctx, c.ctx)
        if len(c.factors) <= 1:
            out = self.tau(c.p) if c.p else self
            if c.factors:
                out = out.conjugated_by_simple(c.factors[0])
            return out
        # general route: concatenate and renormalize
        return (c.inverse() * self) * c

    def tau(self, k: int = 1) -> "Element":
        """Conjugate by Δ^k, applied factorwise."""
        ctx = self.ctx
        return Element._make(
            ctx, self.p, [ctx.tau_power(f, k) for f in self.factors]
        )

    def as_simple(self) -> Simple:
        """The payload of an element that is simple (1 ≼ x ≼ Δ)."""
        if self.p == 0 and not self.factors:
            return self.ctx.identity
        if self.p == 0 and len(self.factors) == 1:
            return self.factors[0]
        if self.p == 1 and not self.factors:
            return self.ctx.delta
        raise GarsideError(f"{self!r} is not simple")


# -- constructors ------------------------------------------------------------

def identity_element(ctx: GarsideContext) -> Element:
    return Element._make(ctx, 0, ())


def delta_power_element(ctx: GarsideContext, k: int) -> Element:
    return Element._make(ctx, k, ())


def simple_element(ctx: GarsideContext, s: Simple) -> Element:
    """The element represented by one simple payload (validated)."""
    ctx.check_simple(s)
    if s == ctx.identity:
        return identity_element(ctx)
    if s == ctx.delta:
        return delta_power_element(ctx, 1)
    return Element._make(ctx, 0, (s,))


def atom_element(ctx: GarsideContext, a) -> Element:
    return Element._make(ctx, 0, (ctx.atom_simple(a),))


def normalize(
    ctx: GarsideContext,
    parts: Iterable = (),
    delta_power: int = 0,
) -> Element:
    """Normal form of Δ^delta_power times a product of signed simples.

    Each part is a simple payload or a pair ``(payload, exponent)`` with
    exponent ±1.  An empty input yields the identity.
    """
    p = delta_power
    fs: list = []
    for part in parts:
        if isinstance(part, tuple) and len(part) == 2 and part[1] in (1, -1):
            s, e = part
        else:
            s, e = part, 1
        ctx.check_simple(s)
        if e == 1:
            p = _append(ctx, p, fs, s)
        else:
            p = _append_inverse(ctx, p, fs, s)
    return Element._make(ctx, p, fs)


# -- order and lattice operations ---------------------------------------------

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


def lcm_elements(a: Element, b: Element) -> Element:
    """Least common multiple for the prefix order: Δ^m·d⁻¹ with d a suffix gcd."""
    require_same_context(a.ctx, b.ctx)
    ctx = a.ctx
    m = max(a.sup, b.sup)
    d = rgcd_elements(
        a.inverse().mul_delta_power(m), b.inverse().mul_delta_power(m)
    )
    return delta_power_element(ctx, m) * d.inverse()


def rlcm_elements(a: Element, b: Element) -> Element:
    """Least common multiple for the suffix order."""
    require_same_context(a.ctx, b.ctx)
    ctx = a.ctx
    m = max(a.sup, b.sup)
    d = gcd_elements(
        delta_power_element(ctx, m) * a.inverse(),
        delta_power_element(ctx, m) * b.inverse(),
    )
    return d.inverse().mul_delta_power(m)


def positive_prefix(x: Element, q: int) -> Element:
    """1 ∨ x·Δ^{-q}, read off the right normal form in O(1) factor picks.

    Requires inf(x) <= q <= sup(x); the result is the product of the
    leftmost ``sup(x) - q`` right-normal-form factors of x.
    """
    r = x.sup - q
    if not 0 <= r <= len(x.factors):
        raise GarsideError(
            f"positive_prefix needs inf <= q <= sup, got q={q} for "
            f"inf={x.p}, sup={x.sup}"
        )
    ctx = x.ctx
    fs: list = []
    p = 0
    for s in x.right_factors[:r]:
        p = _append(ctx, p, fs, s)
    return Element._make(ctx, p, fs)


def positive_part(x: Element) -> Element:
    """1 ∨ x."""
    if x.sup <= 0:
        return identity_element(x.ctx)
    if x.p >= 0:
        return x
    return positive_prefix(x, 0)
