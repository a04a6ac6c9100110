"""Cyclic sliding and the conjugation operators built around it.

The preferred prefix of ``x`` is the simple ``ι(x) ∧ ∂(φ(x))``; cyclic
sliding conjugates ``x`` by it.  The preferred suffix is the mirror notion
for the suffix order.  Transport completes the square made by a
conjugation and one sliding step on each side; pullback is its partial
inverse, the minimal positive element whose transport admits a given
prefix.  Iterating cyclic sliding reaches a periodic orbit, recorded as a
:class:`Trajectory`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .contract import Simple, require_same_context
from .elements import Element, identity_element, lcm_elements, positive_part
from .errors import InternalInvariantError


def preferred_prefix(x: Element) -> Simple:
    """The simple ι(x) ∧ ∂(φ(x)); trivial exactly for rigid elements."""
    s = x._pref
    if s is None:
        ctx = x.ctx
        s = ctx.gcd_simple(
            x.initial_factor(), ctx.right_complement(x.final_factor())
        )
        x._pref = s
    return s


def preferred_suffix(x: Element) -> Simple:
    """Mirror of the preferred prefix for the suffix order; not cached, since
    its one caller asks it of a freshly built conjugate."""
    ctx = x.ctx
    return ctx.rgcd_simple(
        x.right_initial_factor(), ctx.left_complement(x.right_final_factor())
    )


def cyclic_sliding(x: Element) -> Element:
    """Conjugate of x by its preferred prefix."""
    s = preferred_prefix(x)
    if s == x.ctx.identity:
        return x
    return x.conjugated_by_simple(s)


def transport(x: Element, alpha: Element) -> Element:
    """𝔭(x)⁻¹·α·𝔭(x^α): the conjugator completing the sliding square at x."""
    require_same_context(x.ctx, alpha.ctx)
    xa = x.conjugated(alpha)
    out = alpha.lmul_simple_inverse(preferred_prefix(x))
    return out.mul_simple(preferred_prefix(xa))


def pullback_step(z: Element, y: Element, s: Element) -> Element:
    """The pullback of the positive s at y = 𝔰(z): (𝔭(z)·s·𝔭ʳ(y^s)⁻¹) ∨ 1.

    This is the minimal positive element whose transport at z admits s as
    a prefix, provided z lies in a sliding circuit and y^s is super
    summit.  Those preconditions cost as much to verify as the operation
    itself, so they are not validated here.
    """
    require_same_context(z.ctx, y.ctx)
    require_same_context(z.ctx, s.ctx)
    ys = y.conjugated(s)
    w = s.lmul_simple(preferred_prefix(z)).mul_simple_inverse(preferred_suffix(ys))
    return positive_part(w)


def minimal_sss_conjugator(
    x: Element,
    inf_target: int,
    sup_target: int,
    max_rounds: int | None = None,
) -> Element:
    """Minimal positive ρ with inf(x^ρ) >= inf_target and sup(x^ρ) <= sup_target.

    The targets must be the summit infimum and supremum of the conjugacy
    class (callers pass inf/sup of a known super summit conjugate); each
    round multiplies ρ by ``1 ∨ (x^ρ)⁻¹Δ^inf_target ∨ x^ρΔ^{-sup_target}``,
    read off the right normal forms.  When the caller certifies a round
    bound (e.g. ‖Δ‖ for an atom seed a, since then ρ ≼ ∂(a)), exceeding it
    raises InternalInvariantError.
    """
    ctx = x.ctx
    rho = identity_element(ctx)
    cur = x
    rounds = 0
    while cur.p < inf_target or cur.sup > sup_target:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise InternalInvariantError(
                f"summit conjugator search exceeded {max_rounds} certified rounds"
            )
        low = positive_part(cur.inverse().mul_delta_power(inf_target))
        high = positive_part(cur.mul_delta_power(-sup_target))
        u = lcm_elements(low, high)
        if u.is_identity:
            raise InternalInvariantError("summit conjugator step stalled")
        rho = rho * u
        cur = cur.conjugated(u)
    return rho


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """An orbit of one step map up to its first repetition.

    ``elements[0]`` is the starting value; applying the step to the last
    element yields ``elements[entry_index]`` again.  The elements from
    ``entry_index`` on form the cycle the orbit falls into (the sliding
    circuit, for cyclic sliding); ``entry_index + period`` is the total
    length.
    """

    elements: tuple[Element, ...]
    entry_index: int
    period: int

    @property
    def circuit_elements(self) -> tuple[Element, ...]:
        return self.elements[self.entry_index:]


def _first_repetition(
    step: Callable[[Element], Element], start: Element
) -> Trajectory:
    """Iterate step from start until a value repeats.

    The loop ends because every step map iterated here keeps its orbit in
    a finite set: cyclic sliding never lowers inf nor raises sup, and
    transport and pullback map the positive divisors of Δ^k to themselves
    (their callers in ``conjugacy`` check this).
    """
    seen: dict[Element, int] = {}
    elements: list[Element] = []
    cur = start
    while cur not in seen:
        seen[cur] = len(elements)
        elements.append(cur)
        cur = step(cur)
    entry = seen[cur]
    return Trajectory(tuple(elements), entry, len(elements) - entry)


def slide_to_first_repetition(x: Element) -> Trajectory:
    """Apply cyclic sliding until an element repeats."""
    return _first_repetition(cyclic_sliding, x)
